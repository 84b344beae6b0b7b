//! `lossy_reliable`: one thread, the inline [`LossyNetwork`] with seeded
//! fault dice (drop 5 %, duplicate 2 %, reorder 2 %), and
//! `ReliableInitiator::put` of 64 KiB messages at MTU 2048 — 32
//! fragments each — into one byte-threshold epoch per put, checked byte
//! for byte. This is the paper's core property, threshold completion
//! under reorder and duplication, plus `retry` and the dedup window.
//!
//! Nothing but this thread touches the network, so the fault counters
//! read after a **fixed put count** ([`EXACT_PUTS`] into each instance,
//! not after a fixed time) are a pure function of the seed: they repeat
//! exactly. Blocks themselves are timed like every other workload's.

use super::{stamp, stamped_eq, Block, Cfg, Rng, Workload, CLIENT, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::{median, LaneStats};
use rvma_core::{
    EndpointConfig, FaultModel, LossyNetwork, ReliableInitiator, RetryConfig, RvmaEndpoint,
    TelemetrySnapshot, Threshold, VirtAddr, Window,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MSG: usize = 64 << 10;
const MTU: usize = 2048;
/// Puts per time sample. The workload's end-to-end number is goodput, so
/// a sample is the mean put time of a step, as on the other throughput
/// lanes. (A single put's time is set by its retry rounds — 1, 2 or 3 by
/// the dice — and its p99 by whatever the host steals from one put in a
/// hundred: 20 to 43 us from run to run under a p50 that moved 15 %.)
const STEP: u64 = 32;
const EXACT_PUTS: u64 = 2048;
const SMOKE_EXACT_PUTS: u64 = 128;
const MAILBOX: VirtAddr = VirtAddr(0x10);

/// Counters read after the instance's first `exact_puts` puts: exact for
/// a seed.
struct Exact {
    dropped: u64,
    duplicated: u64,
    deferred: u64,
    retransmit_ratio: f64,
    rounds_p50: f64,
}

pub struct LossyReliable {
    net: Arc<LossyNetwork>,
    server: Arc<RvmaEndpoint>,
    init: ReliableInitiator,
    win: Window,
    payload: Vec<u8>,
    exact_puts: u64,
    op: u64,
    fragments: u64,
    transmissions: u64,
    rounds: Vec<f64>,
    exact: Option<Exact>,
}

impl Workload for LossyReliable {
    const NAME: &'static str = "lossy_reliable";
    const LANES: &'static [&'static str] = &["reliable_put"];
    const THREADS: usize = 1;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let model = FaultModel {
            drop_p: 0.05,
            dup_p: 0.02,
            reorder_p: 0.02,
            ..FaultModel::NONE
        };
        let config = EndpointConfig {
            dedup_window: 1 << 15,
            telemetry,
            ..EndpointConfig::default()
        };
        let mut rng = Rng(cfg.seed);
        let net = LossyNetwork::with_config(MTU, model, rng.next_u64(), config);
        let server = net.add_endpoint(SERVER);
        // 0.05^8 per fragment would exhaust the default 8-round budget
        // about once in 10^9 fragments; a deeper budget keeps "no
        // operation fails" true for any seed without changing the
        // common path (extra rounds only run when needed).
        let init = net.reliable_initiator_with(
            CLIENT,
            RetryConfig {
                max_attempts: 32,
                ..RetryConfig::default()
            },
        );
        let win = server
            .init_window(MAILBOX, Threshold::bytes(MSG as u64))
            .map_err(|e| e.to_string())?;
        Ok(LossyReliable {
            net,
            server,
            init,
            win,
            payload: rng.bytes(MSG),
            exact_puts: if cfg.smoke {
                SMOKE_EXACT_PUTS
            } else {
                EXACT_PUTS
            },
            op: 0,
            fragments: 0,
            transmissions: 0,
            rounds: Vec::new(),
            exact: None,
        })
    }

    fn block(&mut self, _lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        let mut busy = Duration::ZERO;
        let deadline = Instant::now() + dur;
        let (mut step_ns, mut step_ok) = (0.0, 0);
        loop {
            self.op += 1;
            stamp(&mut self.payload, self.op);
            let t0 = Instant::now();
            let mut note = self.win.post_pooled(MSG).expect("post");
            let t1 = Instant::now();
            let report = self.init.put(SERVER, MAILBOX, &self.payload);
            // Release fragments the fabric is still holding back; their
            // duplicates must not leak into the next epoch.
            self.net.flush_delayed();
            let t2 = Instant::now();
            let done = note.wait_timeout(Duration::from_secs(5));
            let t3 = Instant::now();
            b.ops += 1;
            busy += t3 - t0;
            match (report, done) {
                (Ok(r), Some(buf)) if stamped_eq(buf.data(), &self.payload, self.op) => {
                    self.fragments += r.fragments;
                    self.transmissions += r.transmissions;
                    if self.exact.is_none() {
                        self.rounds.push(f64::from(r.rounds));
                    }
                    step_ns += (t3 - t1).as_nanos() as f64;
                    step_ok += 1;
                }
                _ => b.failed += 1,
            }
            if self.op.is_multiple_of(STEP) {
                if step_ok > 0 {
                    b.samples_ns.push(step_ns / f64::from(step_ok));
                }
                (step_ns, step_ok) = (0.0, 0);
            }
            if let Some(s) = spans.as_deref_mut() {
                s.record("reliable_put", None, self.op, t0, t3);
                s.record(
                    "window.post_pooled_ns",
                    Some("reliable_put"),
                    self.op,
                    t0,
                    t1,
                );
                s.record("retry.put_ns", Some("reliable_put"), self.op, t1, t2);
                s.record("notify.wait_ns", Some("reliable_put"), self.op, t2, t3);
            }
            if self.op == self.exact_puts {
                self.exact = Some(Exact {
                    dropped: self.net.dropped(),
                    duplicated: self.net.duplicated(),
                    deferred: self.net.deferred(),
                    retransmit_ratio: (self.transmissions - self.fragments) as f64
                        / self.fragments.max(1) as f64,
                    rounds_p50: median(&self.rounds),
                });
            }
            // A short block (`--smoke`) still runs until the counters are
            // read.
            if t3 >= deadline && self.exact.is_some() && self.op.is_multiple_of(STEP) {
                break;
            }
        }
        b.busy_s = busy.as_secs_f64();
        b
    }

    fn finish(self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let st = self.server.stats();
        // One epoch per put, no more (a replayed final fragment must not
        // complete a second one) and no fewer.
        let failed = st.epochs_completed.abs_diff(self.op) + st.nacks;
        if let Some(x) = &self.exact {
            layers.set("transport_lossy.dropped", x.dropped as f64);
            layers.set("transport_lossy.duplicated", x.duplicated as f64);
            layers.set("transport_lossy.deferred", x.deferred as f64);
            layers.set("retry.retransmit_ratio", x.retransmit_ratio);
            layers.set("retry.rounds_p50", x.rounds_p50);
        }
        super::export_endpoint(layers, &st);
        layers.set("pool.buffer_hit_rate", self.win.pool_stats().hit_rate());
        *tel = self.net.telemetry().map(|t| t.snapshot());
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set(
            "goodput_mibps",
            lanes[0].mops() * 1e6 * MSG as f64 / (1 << 20) as f64,
        );
    }
}
