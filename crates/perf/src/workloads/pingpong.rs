//! `pingpong`: threaded backend, one client at depth 1, one wire worker,
//! zero wire latency, in order. Three lanes share the fabric:
//!
//! * `wait64`  — `post_pooled(64)` → `put_at` → `Notification::wait`;
//! * `async64` — `post_pooled_async` → `put_at` → `block_on`, the same
//!   `NotificationSlot` through the waker path;
//! * `wait4k`  — 4096 B = two fragments at `DEFAULT_MTU`, byte threshold:
//!   the multi-fragment eager path.
//!
//! The clock runs from just before `put_at` until the completion is
//! returned; the receiver's pre-post is outside it.

use super::{stamp, stamped_eq, Block, Cfg, Rng, Threaded, Workload, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::telemetry::Span;
use rvma_core::{EndpointConfig, TelemetrySnapshot, Threshold, VirtAddr, Window};
use std::time::{Duration, Instant};

const SMALL: usize = 64;
const FRAG: usize = 4096;

pub struct PingPong {
    fabric: Threaded,
    win_small: Window,
    win_frag: Window,
    small: Vec<u8>,
    frag: Vec<u8>,
    op: u64,
    puts: u64,
}

impl Workload for PingPong {
    const NAME: &'static str = "pingpong";
    const LANES: &'static [&'static str] = &["wait64", "async64", "wait4k"];
    // The load thread and the wire worker.
    const THREADS: usize = 2;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let config = EndpointConfig {
            telemetry,
            ..EndpointConfig::default()
        };
        let fabric = Threaded::new(&config);
        let win_small = fabric
            .server
            .init_window(VirtAddr::new(1), Threshold::bytes(SMALL as u64))
            .map_err(|e| e.to_string())?;
        let win_frag = fabric
            .server
            .init_window(VirtAddr::new(2), Threshold::bytes(FRAG as u64))
            .map_err(|e| e.to_string())?;
        let mut rng = Rng(cfg.seed);
        Ok(PingPong {
            fabric,
            win_small,
            win_frag,
            small: rng.bytes(SMALL),
            frag: rng.bytes(FRAG),
            op: 0,
            puts: 0,
        })
    }

    fn block(&mut self, lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        let (win, payload, vaddr) = if lane == 2 {
            (&self.win_frag, &mut self.frag, VirtAddr::new(2))
        } else {
            (&self.win_small, &mut self.small, VirtAddr::new(1))
        };
        let len = payload.len();
        let (post_name, wait_name) = if lane == 1 {
            ("window.post_pooled_async_ns", "notify.block_on_ns")
        } else {
            ("window.post_pooled_ns", "notify.wait_ns")
        };
        let op_name = Self::LANES[lane];
        let began = Instant::now();
        let deadline = began + dur;
        loop {
            self.op += 1;
            stamp(payload, self.op);
            let t0 = Instant::now();
            // The two completion idioms differ only in what the post
            // returns and how it is waited on.
            let (t1, t2, t3, buf) = if lane == 1 {
                let fut = win.post_pooled_async(len).expect("post");
                let t1 = Instant::now();
                self.fabric
                    .client
                    .put_at(SERVER, vaddr, 0, payload)
                    .expect("put");
                let t2 = if spans.is_some() { Instant::now() } else { t1 };
                let buf = pollster::block_on(fut);
                (t1, t2, Instant::now(), buf)
            } else {
                let mut note = win.post_pooled(len).expect("post");
                let t1 = Instant::now();
                self.fabric
                    .client
                    .put_at(SERVER, vaddr, 0, payload)
                    .expect("put");
                let t2 = if spans.is_some() { Instant::now() } else { t1 };
                let buf = note.wait();
                (t1, t2, Instant::now(), buf)
            };
            b.samples_ns.push((t3 - t1).as_nanos() as f64);
            b.ops += 1;
            if !stamped_eq(buf.data(), payload, self.op) {
                b.failed += 1;
            }
            if let Some(s) = spans.as_deref_mut() {
                s.record(op_name, None, self.op, t0, t3);
                s.record(post_name, Some(op_name), self.op, t0, t1);
                s.record(
                    "transport_threaded.put_at_ns",
                    Some(op_name),
                    self.op,
                    t1,
                    t2,
                );
                s.record(wait_name, Some(op_name), self.op, t2, t3);
            }
            if t3 >= deadline {
                b.busy_s = (t3 - began).as_secs_f64();
                break;
            }
        }
        self.puts += b.ops;
        b
    }

    fn finish(self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let nacks = self.fabric.quiesce();
        let st = self.fabric.export(layers, tel);
        layers.set(
            "pool.buffer_hit_rate",
            self.win_small.pool_stats().hit_rate(),
        );
        // Every put completed exactly one epoch, and nothing else did.
        let miscounted = st.epochs_completed.abs_diff(self.puts);
        nacks + miscounted
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("put_rtt_p50_us", lanes[0].p50_us());
        layers.set("put_rtt_p99_us", lanes[0].p99_us());
        layers.set("notify.rtt_p999_us", lanes[0].p999_us());
        layers.set("put_rtt_async_p50_us", lanes[1].p50_us());
        layers.set("put_rtt_frag_p50_us", lanes[2].p50_us());
    }

    /// Submit → first delivery and completing write → waiter take are the
    /// two in-program spans inside the round trip that do not overlap;
    /// delivery → completing write and take → `wait` return have no span
    /// yet and make up the residual.
    fn ledger_spans() -> &'static [Span] {
        &[Span::SubmitToDeliver, Span::CompleteToHandoff]
    }
}
