//! `bulk_large`: threaded backend, one sender, 1 MiB `put_bytes_at` from
//! a shared `Bytes` (the zero-copy lane: the receiver's gather is the
//! only copy), at most 8 MiB in flight, into 64 MiB byte-threshold
//! epochs over pre-faulted buffers. 64 MiB is 16x this host's 4 MiB L2;
//! its 260 MiB L3 is shared with other tenants, so the usual "4x the
//! last-level cache" rule cannot be met here — both sizes are recorded
//! in the README.
//!
//! The receiver gather (the `mailbox` memcpy) and the eager/rendezvous
//! lane choice do all the work; per-message overhead is under 1 %, so a
//! small-message optimisation must not move this workload.

use super::{prefaulted, Block, Cfg, Rng, Threaded, Workload, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::{
    Bytes, EndpointConfig, EpochProgress, Notification, TelemetrySnapshot, Threshold, VirtAddr,
    Window,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MSG: usize = 1 << 20;
pub const EPOCH_BYTES: usize = 64 << 20;
pub const PUTS_PER_EPOCH: usize = EPOCH_BYTES / MSG;
/// Bytes the sender may run ahead of the receiver's progress counter.
pub const WINDOW_BYTES: u64 = 8 << 20;
/// Every epoch's length is checked; every this-many-th epoch (and the
/// last) is compared byte for byte, outside the timed region. Comparing
/// all of them would spend a third of the run not measuring.
pub const FULL_CHECK_EVERY: u64 = 4;
const MAILBOX: VirtAddr = VirtAddr(1);

pub struct BulkLarge {
    fabric: Threaded,
    win: Window,
    progress: Arc<EpochProgress>,
    /// Two patterns alternate by epoch parity, so an epoch that kept the
    /// previous epoch's bytes fails the comparison.
    payloads: [Bytes; 2],
    /// The epoch being filled; the one after it is already posted.
    active: Notification,
    queued: Notification,
    epoch: u64,
}

/// `data` must be `PUTS_PER_EPOCH` copies of `pattern`.
pub fn epoch_matches(data: &[u8], pattern: &[u8]) -> bool {
    data.len() == EPOCH_BYTES && data.chunks_exact(MSG).all(|c| c == pattern)
}

impl Workload for BulkLarge {
    const NAME: &'static str = "bulk_large";
    const LANES: &'static [&'static str] = &["put_bytes"];
    const THREADS: usize = 2;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let config = EndpointConfig {
            telemetry,
            // The two 64 MiB buffers are handed back and re-posted; a
            // rewind history would pin them.
            retain_epochs: 0,
            ..EndpointConfig::default()
        };
        let fabric = Threaded::new(&config);
        let win = fabric
            .server
            .init_window(MAILBOX, Threshold::bytes(EPOCH_BYTES as u64))
            .map_err(|e| e.to_string())?;
        let mut rng = Rng(cfg.seed);
        let payloads = [Bytes::from(rng.bytes(MSG)), Bytes::from(rng.bytes(MSG))];
        let active = win
            .post_buffer(prefaulted(EPOCH_BYTES))
            .map_err(|e| e.to_string())?;
        let queued = win
            .post_buffer(prefaulted(EPOCH_BYTES))
            .map_err(|e| e.to_string())?;
        Ok(BulkLarge {
            fabric,
            progress: win.progress(),
            win,
            payloads,
            active,
            queued,
            epoch: 0,
        })
    }

    fn block(&mut self, _lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        let deadline = Instant::now() + dur;
        let mut busy = Duration::ZERO;
        loop {
            let payload = &self.payloads[(self.epoch % 2) as usize];
            let t_epoch = Instant::now();
            let mut t0 = t_epoch;
            for k in 0..PUTS_PER_EPOCH {
                let issued = (k * MSG) as u64;
                while issued.saturating_sub(self.progress.bytes()) > WINDOW_BYTES {
                    std::thread::yield_now();
                }
                let t_put = if spans.is_some() { Instant::now() } else { t0 };
                self.fabric
                    .client
                    .put_bytes_at(SERVER, MAILBOX, k * MSG, payload.clone())
                    .expect("put");
                let t1 = Instant::now();
                b.samples_ns.push((t1 - t0).as_nanos() as f64);
                if let Some(s) = spans.as_deref_mut() {
                    let op = self.epoch * PUTS_PER_EPOCH as u64 + k as u64;
                    s.record("transport_threaded.put_bytes_at_ns", None, op, t_put, t1);
                }
                t0 = t1;
            }
            let t_sent = Instant::now();
            let buf = self.active.wait();
            let t_done = Instant::now();
            busy += t_done - t_epoch;
            b.ops += PUTS_PER_EPOCH as u64;
            if let Some(s) = spans.as_deref_mut() {
                s.record("notify.wait_ns", None, self.epoch, t_sent, t_done);
            }

            // Untimed: check, hand the buffer back, post it for the epoch
            // after next.
            let last = t_done >= deadline;
            let ok = buf.len() == EPOCH_BYTES
                && ((!self.epoch.is_multiple_of(FULL_CHECK_EVERY) && !last)
                    || epoch_matches(buf.data(), payload));
            if !ok {
                b.failed += PUTS_PER_EPOCH as u64;
            }
            let recycled = buf
                .try_into_vec()
                .unwrap_or_else(|_| prefaulted(EPOCH_BYTES));
            let next = self.win.post_buffer(recycled).expect("post");
            self.active = std::mem::replace(&mut self.queued, next);
            self.epoch += 1;
            if last {
                break;
            }
        }
        b.busy_s = busy.as_secs_f64();
        b
    }

    fn finish(self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let mut failed = self.fabric.quiesce();
        let st = self.fabric.export(layers, tel);
        failed += st
            .bytes_accepted
            .abs_diff(self.epoch * EPOCH_BYTES as u64)
            .div_ceil(MSG as u64);
        // The zero-copy claim: nothing staged, exactly one copy per byte.
        if self.fabric.client.staged_bytes() != 0 || st.bytes_copied != st.bytes_accepted {
            failed += 1;
        }
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("goodput_mibps", lanes[0].mops() * 1e6 * (MSG >> 20) as f64);
    }
}
