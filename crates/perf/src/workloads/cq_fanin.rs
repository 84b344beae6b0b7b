//! `cq_fanin`: threaded backend, one [`CompletionQueue`] over 4096
//! outstanding 16 B `Threshold::ops(1)` epochs. The main thread both
//! issues the puts and drains/re-posts through `wait_batch` (two threads
//! in all), so what it measures is completion *discovery* at a high
//! in-flight count: the queue, `post_pooled_cq`, the buffer pool and the
//! slot → queue routing carry the load; the blocking wait path is unused.

use super::{stamp, Block, Cfg, Rng, Threaded, Workload, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::{
    CompletionQueue, CqCompletion, EndpointConfig, TelemetrySnapshot, Threshold, VirtAddr, Window,
};
use std::time::{Duration, Instant};

const MSG: usize = 16;
const IN_FLIGHT: u64 = 4096;
const BATCH: usize = 1024;
const MAILBOX: VirtAddr = VirtAddr(1);

pub struct CqFanin {
    fabric: Threaded,
    win: Window,
    cq: CompletionQueue,
    out: Vec<CqCompletion>,
    payload: Vec<u8>,
    /// Tag of the next post and stamp of the next put: the mailbox is
    /// FIFO, so put `n` lands in the buffer posted with tag `n`.
    next: u64,
    consumed: u64,
    stalled: bool,
}

impl CqFanin {
    fn post(&self, tag: u64) {
        self.win.post_pooled_cq(MSG, &self.cq, tag).expect("post");
    }

    fn put(&mut self, tag: u64) {
        stamp(&mut self.payload, tag);
        self.fabric
            .client
            .put_at(SERVER, MAILBOX, 0, &self.payload)
            .expect("put");
    }
}

impl Workload for CqFanin {
    const NAME: &'static str = "cq_fanin";
    const LANES: &'static [&'static str] = &["wait_batch"];
    const THREADS: usize = 2;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let config = EndpointConfig {
            telemetry,
            ..EndpointConfig::default()
        };
        let fabric = Threaded::new(&config);
        let win = fabric
            .server
            .init_window(MAILBOX, Threshold::ops(1))
            .map_err(|e| e.to_string())?;
        let mut w = CqFanin {
            fabric,
            win,
            cq: CompletionQueue::new(IN_FLIGHT as usize),
            out: Vec::with_capacity(BATCH),
            payload: Rng(cfg.seed).bytes(MSG),
            next: 0,
            consumed: 0,
            stalled: false,
        };
        for tag in 0..IN_FLIGHT {
            w.post(tag);
        }
        for tag in 0..IN_FLIGHT {
            w.put(tag);
        }
        w.next = IN_FLIGHT;
        Ok(w)
    }

    fn block(&mut self, _lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        if self.stalled {
            b.failed = 1;
            return b;
        }
        let began = Instant::now();
        let deadline = began + dur;
        let mut t0 = began;
        loop {
            let n = self
                .cq
                .wait_batch(BATCH, &mut self.out, Duration::from_secs(5));
            if n == 0 {
                // Nothing for five seconds with 4096 puts in flight.
                self.stalled = true;
                b.failed += IN_FLIGHT;
                break;
            }
            let t_drained = Instant::now();
            let first = self.next;
            for c in &self.out {
                // Byte-exact: the completion's tag is the put's stamp.
                if c.buffer.len() != MSG
                    || c.buffer.data()[..8] != c.user.to_le_bytes()
                    || c.buffer.data()[8..] != self.payload[8..]
                {
                    b.failed += 1;
                }
            }
            self.out.clear();
            let t_checked = Instant::now();
            // Re-post the whole batch, then re-issue its puts: the worker
            // is not delivering into the mailbox while the posts take its
            // lock. (Interleaving post and put per completion makes the
            // two threads convoy on that lock, and the run settles into
            // one of two regimes 50 % apart.)
            for i in 0..n as u64 {
                self.post(first + i);
            }
            let t_posted = Instant::now();
            for i in 0..n as u64 {
                self.put(first + i);
            }
            self.next += n as u64;
            self.consumed += n as u64;
            let t1 = Instant::now();
            b.ops += n as u64;
            b.samples_ns.push((t1 - t0).as_nanos() as f64 / n as f64);
            if let Some(s) = spans.as_deref_mut() {
                s.record("cq.wait_batch_ns", None, first, t0, t_drained);
                s.record_amortized(
                    "window.post_pooled_cq_ns",
                    first,
                    t_checked,
                    t_posted,
                    n as u64,
                );
                s.record_amortized(
                    "transport_threaded.put_at_ns",
                    first,
                    t_posted,
                    t1,
                    n as u64,
                );
            }
            t0 = t1;
            if t1 >= deadline {
                break;
            }
        }
        b.busy_s = began.elapsed().as_secs_f64();
        b
    }

    fn finish(mut self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let mut failed = self.fabric.quiesce();
        // Every put still in flight must surface exactly once.
        let mut left = 0;
        loop {
            let n = self
                .cq
                .wait_batch(BATCH, &mut self.out, Duration::from_millis(200));
            if n == 0 {
                break;
            }
            left += n as u64;
            self.out.clear();
        }
        if !self.stalled {
            failed += left.abs_diff(IN_FLIGHT);
        }
        let st = self.fabric.export(layers, tel);
        failed += st.epochs_completed.abs_diff(self.consumed + left);
        let cq = self.cq.stats();
        layers.set("cq.batch_p50", cq.batch_p50 as f64);
        layers.set("cq.overflowed", cq.overflowed as f64);
        layers.set("cq.wakes", cq.wakes as f64);
        layers.set("cq.empty_polls", cq.empty_polls as f64);
        layers.set("pool.buffer_hit_rate", self.win.pool_stats().hit_rate());
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("completions_mps", lanes[0].mops());
    }
}
