//! `stream_small`: threaded backend, one sender streaming 64 B puts into
//! op-threshold epochs of 65 536 puts. Flow control is the bounded wire
//! ring's own backpressure — `put_at` blocks on a full ring — with no
//! pacing loop. Two lanes use the same ring differently: `put` (one ring
//! crossing per put) and `batch` (`PutBatch`, default doorbell).
//!
//! Per-message submit and deliver cost dominates; completion does almost
//! nothing (one wake per 65 536 puts), so this is the bypass workload for
//! any notify or completion-queue change.

use super::{stamp, stamped_eq, Block, Cfg, Rng, Threaded, Workload, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::{
    EndpointConfig, EpochProgress, Notification, TelemetrySnapshot, Threshold, VirtAddr, Window,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MSG: usize = 64;
const EPOCH_PUTS: u64 = 65_536;
/// Offsets cycle over this many slots, so the epoch buffer (128 KiB)
/// stays cache-resident and the measurement is per-message overhead.
const SLOTS: u64 = 2048;
/// Puts per timed step: two clock reads amortised over 1000 puts. Not a
/// multiple of the doorbell threshold, so the batch lane's closing
/// `flush` always has fragments pending.
const STEP: u64 = 1000;
const MAILBOX: VirtAddr = VirtAddr(1);

/// The receiver's side of the stream: posted epochs and what they must
/// contain. Separate from the fabric so a `PutBatch` can borrow the
/// initiator across a whole block while epochs rotate.
struct Epochs {
    win: Window,
    progress: Arc<EpochProgress>,
    /// Notifications of posted epochs, oldest first. Three buffers rotate,
    /// so the epoch after the one being filled is always posted and the
    /// sender never waits for the epoch it just finished.
    notes: VecDeque<Notification>,
    payload: Vec<u8>,
    /// Puts issued so far (the stamp of the next put).
    k: u64,
    verified: u64,
}

impl Epochs {
    fn post(&mut self) {
        let note = self.win.post_pooled((SLOTS as usize) * MSG).expect("post");
        self.notes.push_back(note);
    }

    /// Stamp the next put and return its buffer offset.
    fn next_put(&mut self) -> usize {
        stamp(&mut self.payload, self.k);
        let off = (self.k % SLOTS) as usize * MSG;
        self.k += 1;
        off
    }

    /// Slot `s` of epoch `e` must hold the last put that targeted it.
    fn check(&self, epoch: u64, data: &[u8]) -> bool {
        let base = (epoch + 1) * EPOCH_PUTS - SLOTS;
        data.len() == (SLOTS as usize) * MSG
            && data
                .chunks_exact(MSG)
                .enumerate()
                .all(|(s, got)| stamped_eq(got, &self.payload, base + s as u64))
    }

    /// The sender just crossed into a new epoch. The one *before* the
    /// epoch it finished completed long ago (the ring holds at most 4096
    /// puts), so its wait returns at once: check it byte-exact and post a
    /// replacement. Returns failed puts.
    fn rotate(&mut self) -> u64 {
        let mut failed = 0;
        if self.k / EPOCH_PUTS >= 2 {
            let buf = self.notes.pop_front().expect("posted epoch").wait();
            if !self.check(self.verified, buf.data()) {
                failed += EPOCH_PUTS;
            }
            self.verified += 1;
        }
        self.post();
        failed
    }
}

pub struct StreamSmall {
    fabric: Threaded,
    epochs: Epochs,
}

impl Workload for StreamSmall {
    const NAME: &'static str = "stream_small";
    const LANES: &'static [&'static str] = &["put", "batch"];
    const THREADS: usize = 2;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let config = EndpointConfig {
            telemetry,
            ..EndpointConfig::default()
        };
        let fabric = Threaded::new(&config);
        let win = fabric
            .server
            .init_window(MAILBOX, Threshold::ops(EPOCH_PUTS))
            .map_err(|e| e.to_string())?;
        let mut epochs = Epochs {
            progress: win.progress(),
            win,
            notes: VecDeque::new(),
            payload: Rng(cfg.seed).bytes(MSG),
            k: 0,
            verified: 0,
        };
        epochs.post();
        epochs.post();
        Ok(StreamSmall { fabric, epochs })
    }

    fn block(&mut self, lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        let ep = &mut self.epochs;
        let mut batch = self.fabric.client.batch();
        let deadline = Instant::now() + dur;
        let mut busy = Duration::ZERO;
        loop {
            let first = ep.k;
            let t0 = Instant::now();
            let t1;
            if lane == 0 {
                for _ in 0..STEP {
                    let off = ep.next_put();
                    self.fabric
                        .client
                        .put_at(SERVER, MAILBOX, off, &ep.payload)
                        .expect("put");
                }
                t1 = Instant::now();
                if let Some(s) = spans.as_deref_mut() {
                    s.record_amortized("transport_threaded.put_at_ns", first, t0, t1, STEP);
                }
            } else {
                for _ in 0..STEP {
                    let off = ep.next_put();
                    batch
                        .put_at(SERVER, MAILBOX, off, &ep.payload)
                        .expect("put");
                }
                let t_put = Instant::now();
                batch.flush().expect("flush");
                t1 = Instant::now();
                if let Some(s) = spans.as_deref_mut() {
                    s.record_amortized("transport_threaded.batch_put_ns", first, t0, t_put, STEP);
                    s.record("transport_threaded.batch_flush_ns", None, first, t_put, t1);
                }
            }
            busy += t1 - t0;
            b.samples_ns.push((t1 - t0).as_nanos() as f64 / STEP as f64);
            b.ops += STEP;
            if ep.k / EPOCH_PUTS > first / EPOCH_PUTS {
                b.failed += ep.rotate();
            }
            if t1 >= deadline {
                break;
            }
        }
        b.busy_s = busy.as_secs_f64();
        b
    }

    fn finish(self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let mut ep = self.epochs;
        let mut failed = self.fabric.quiesce();
        // Every fully issued epoch must now be complete and byte-exact;
        // the partial one must hold exactly the puts issued into it.
        while ep.verified < ep.k / EPOCH_PUTS {
            match ep
                .notes
                .pop_front()
                .and_then(|mut n| n.wait_timeout(Duration::from_secs(5)))
            {
                Some(buf) if ep.check(ep.verified, buf.data()) => {}
                _ => failed += EPOCH_PUTS,
            }
            ep.verified += 1;
        }
        failed += ep.progress.ops().abs_diff(ep.k % EPOCH_PUTS);
        let st = self.fabric.export(layers, tel);
        failed += st.fragments_accepted.abs_diff(ep.k);
        layers.set("pool.buffer_hit_rate", ep.win.pool_stats().hit_rate());
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("msg_rate_put_mps", lanes[0].mops());
        layers.set("msg_rate_batch_mps", lanes[1].mops());
    }
}
