//! Mailboxes: buckets of receiver-posted buffers with threshold completion.
//!
//! An RVMA virtual address names a mailbox; the mailbox owns a FIFO queue of
//! posted buffers. Incoming operations land in the *head* (active) buffer
//! only. The NIC counts bytes or operations against the active buffer's
//! threshold; on reaching it the buffer is completed — notification written,
//! epoch advanced, queue rotated to the next posted buffer — and retired
//! into a bounded ring that backs the paper's hardware rewind (Sec. IV-F).
//!
//! Two placement modes exist (paper Sec. IV-B):
//!
//! * **Receiver-Steered** (the paper's HPC focus): every operation carries an
//!   offset into the active buffer, so packets may land in any order —
//!   this is what frees RVMA from byte-level network ordering.
//! * **Receiver-Managed** (the sockets-like mode): the receiver assigns
//!   placement, appending arrivals at a cursor like a stream socket.
//!
//! # One delivery path
//!
//! The paper's NIC is the only agent that writes a mailbox's active
//! buffer: translate → place → count → at threshold, the completing
//! write. Here that agent is whoever holds the mailbox lock, and every
//! byte arrives through one call, `Mailbox::deliver_run`, which places a
//! run of fragments under that one hold and completes the epoch in place
//! when a fragment reaches the threshold. A buffer is therefore never
//! published while bytes are still landing in it, and concurrent callers
//! are serialised by the lock they already take.
//! Epoch progress is mirrored into an [`EpochProgress`] that can be read
//! lock-free while a run is being placed.

#![forbid(unsafe_code)]

use crate::addr::VirtAddr;
use crate::buffer::{CompletedBuffer, CompletionSink, EpochType, PostedBuffer};
use crate::endpoint::EndpointStats;
use crate::error::{NackReason, Result, RvmaError};
use crate::notify::AsyncNotifyStats;
use crate::retry::DedupWindow;
use crate::telemetry::{self, EventKind, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Placement mode of a mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxMode {
    /// Operations carry explicit offsets into the active buffer
    /// (out-of-order safe; the paper's primary mode).
    Steered,
    /// The receiver appends arrivals contiguously at a cursor
    /// (sockets-like; requires per-flow ordered delivery).
    Managed,
}

/// Default number of retired (completed) buffers retained per mailbox for
/// rewind. The paper leaves this a design parameter of the NIC's hardware
/// list; 4 epochs of history is enough for "rollback to the last completed
/// timestep" and keeps memory bounded.
pub const DEFAULT_RETAIN_EPOCHS: usize = 4;

/// Key identifying an in-flight multi-fragment operation at the target, so
/// op-counted thresholds count *operations* (not packets) even when a put
/// was fragmented and its packets arrive out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// Initiator-unique operation id.
    pub op_id: u64,
    /// Initiator node id (op ids are only unique per initiator).
    pub initiator: u64,
}

/// Outcome of delivering one fragment to a mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Fragment written; epoch still in progress.
    Accepted,
    /// Fragment written and it completed the active epoch.
    Completed,
    /// Fragment already accepted earlier (per the mailbox's dedup window);
    /// dropped without touching the buffer or the threshold counters.
    Duplicate,
    /// Fragment discarded; carries the reason a NACK would report.
    Discarded(NackReason),
}

/// Lock-free observable progress of a mailbox's current epoch.
///
/// Updated by the delivery path while it holds the mailbox lock; readable
/// (e.g. from a polling application thread) without taking any lock. This
/// is the software analogue of the NIC's memory-mapped counter pair.
///
/// The counters publish after the copy they count, so they never lead
/// the bytes placed in the buffer. `Mailbox::deliver_run` publishes them
/// once per run (one chunk of at most `DELIVER_CHUNK` fragments), so they
/// lag the buffer by at most one chunk of puts. They are a pacing signal.
/// Only the threshold completion (the notification) certifies placement.
#[derive(Debug, Default)]
pub struct EpochProgress {
    bytes: AtomicU64,
    ops: AtomicU64,
    epoch: AtomicU64,
}

impl EpochProgress {
    /// Bytes counted against the active buffer's threshold so far this
    /// epoch — placed, not yet certified complete (see the type docs).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// Operations counted against the active buffer so far this epoch
    /// (same caveat as [`bytes`](Self::bytes)).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Number of completed epochs (== index of the current epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A mailbox: the target-side state behind one RVMA virtual address.
#[derive(Debug)]
pub struct Mailbox {
    vaddr: VirtAddr,
    mode: MailboxMode,
    /// Head is the active buffer; the rest are queued for future epochs.
    queue: VecDeque<PostedBuffer>,
    /// Epoch counters, shared with lock-free readers via [`EpochProgress`].
    progress: Arc<EpochProgress>,
    /// Per-op received-byte progress for multi-fragment ops (op counting).
    op_progress: HashMap<OpKey, u64>,
    /// Retired buffers, oldest first, bounded by `retain`.
    retired: VecDeque<CompletedBuffer>,
    retain: usize,
    closed: bool,
    /// Stream cursor for `Managed` mode.
    cursor: usize,
    /// Receiver-side duplicate suppression (the reliability layer's dedup
    /// window), `None` when disabled. Deliberately *not* cleared on epoch
    /// rotation: a replayed final fragment of epoch N must be recognized
    /// after the rotation it triggered, not counted into epoch N + 1.
    dedup: Option<DedupWindow>,
    /// The owning endpoint's `epochs_completed` counter, bumped *before*
    /// the completing write so a waiter woken by the completion pointer
    /// always observes the epoch already counted. `None` for standalone
    /// mailboxes (tests).
    completions: Option<Arc<AtomicU64>>,
    /// The owning endpoint's async counters: a CQ push counts into
    /// `cq_completions` and `notify_wakes` (a slot counts its own wakes).
    async_stats: Option<Arc<AsyncNotifyStats>>,
    /// Op-level event recorder: `complete_active` stamps
    /// `EpochComplete` just before the completing write. `None` unless
    /// the owning endpoint enabled telemetry.
    telemetry: Option<Arc<Telemetry>>,
}

impl Mailbox {
    /// A new, open mailbox with no buffers posted and dedup disabled.
    pub fn new(vaddr: VirtAddr, mode: MailboxMode, retain: usize) -> Self {
        Self::with_dedup(vaddr, mode, retain, 0)
    }

    /// A new, open mailbox with a duplicate-suppression window remembering
    /// up to `dedup_window` operations (0 disables dedup, preserving the
    /// unprotected lossy-boundary semantics).
    pub fn with_dedup(
        vaddr: VirtAddr,
        mode: MailboxMode,
        retain: usize,
        dedup_window: usize,
    ) -> Self {
        Mailbox {
            vaddr,
            mode,
            queue: VecDeque::new(),
            progress: Arc::new(EpochProgress::default()),
            op_progress: HashMap::new(),
            retired: VecDeque::new(),
            retain,
            closed: false,
            cursor: 0,
            dedup: (dedup_window > 0).then(|| DedupWindow::new(dedup_window)),
            completions: None,
            async_stats: None,
            telemetry: None,
        }
    }

    /// Count every epoch completion into the endpoint's `epochs_completed`
    /// and every CQ push into its async counters. The increments are
    /// sequenced *before* the completing write, so they are visible to any
    /// thread the completion wakes — `wait()` returning implies the counter
    /// includes this epoch.
    pub(crate) fn count_completions_in(&mut self, stats: &EndpointStats) {
        self.completions = Some(stats.epochs_completed.clone());
        self.async_stats = Some(stats.async_notify.clone());
    }

    /// Stamp this mailbox's epoch completions into `telemetry` (the
    /// endpoint's shared recorder).
    pub(crate) fn trace_into(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The mailbox's virtual address.
    pub fn vaddr(&self) -> VirtAddr {
        self.vaddr
    }

    /// The mailbox's placement mode.
    pub fn mode(&self) -> MailboxMode {
        self.mode
    }

    /// Current epoch (number of completed epochs so far).
    pub fn epoch(&self) -> u64 {
        self.progress.epoch()
    }

    /// Number of buffers posted and not yet completed (including active).
    pub fn posted_buffers(&self) -> usize {
        self.queue.len()
    }

    /// True once the mailbox has been closed (`RVMA_Close_Win`).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Bytes counted so far this epoch ([`EpochProgress::bytes`]).
    pub fn bytes_this_epoch(&self) -> u64 {
        self.progress.bytes()
    }

    /// Operations counted so far this epoch ([`EpochProgress::ops`]).
    pub fn ops_this_epoch(&self) -> u64 {
        self.progress.ops()
    }

    /// A handle to the epoch counters, readable without the mailbox lock.
    pub fn progress_handle(&self) -> Arc<EpochProgress> {
        self.progress.clone()
    }

    /// Post a buffer (paper: `RVMA_Post_buffer`). Appends to the bucket;
    /// becomes active when all earlier buffers have completed.
    pub(crate) fn post(&mut self, buf: PostedBuffer) -> Result<()> {
        if self.closed {
            return Err(RvmaError::WindowClosed(self.vaddr));
        }
        if buf.data.is_empty() {
            return Err(RvmaError::EmptyBuffer);
        }
        buf.threshold.validate(buf.data.len())?;
        self.queue.push_back(buf);
        Ok(())
    }

    /// Place a run of fragments (paper Fig. 3 steps 2–5). For each one:
    /// check the dedup window, translate the placement, validate bounds,
    /// copy the payload into the active buffer, count it, and if it reaches
    /// the threshold complete the epoch there, so the next fragment lands
    /// in the next posted buffer. The caller's exclusive borrow (the
    /// mailbox lock) makes it the buffer's only writer for the whole run.
    ///
    /// `frags` yields `(op_key, op_total_len, offset, data)`. `op_key`
    /// identifies the whole operation and `op_total_len` is its full byte
    /// count (fragments of one op share both). `offset` is the byte offset
    /// into the active buffer, ignored (receiver-assigned) in `Managed`
    /// mode.
    ///
    /// Being the only writer makes the shared progress counters
    /// single-writer for the run too. The run sums byte/op counts in locals
    /// and publishes them as one atomic add per counter per run, plus once
    /// before each completion (`complete_active` computes the buffer's
    /// valid length from the shared counters).
    ///
    /// Each fragment's outcome is reported through `on_outcome` together
    /// with its payload length.
    pub(crate) fn deliver_run<'f>(
        &mut self,
        frags: impl Iterator<Item = (OpKey, u64, usize, &'f [u8])>,
        on_outcome: &mut dyn FnMut(DeliveryOutcome, usize),
    ) {
        let mut bytes_local = self.progress.bytes();
        let mut ops_local = self.progress.ops();
        let (mut bytes_delta, mut ops_delta) = (0u64, 0u64);
        // Taken out of `self` for the loop so recording can happen while
        // the active buffer is mutably borrowed; restored on every exit.
        let mut dedup = self.dedup.take();
        for (op_key, op_total_len, offset, data) in frags {
            if self.closed {
                on_outcome(
                    DeliveryOutcome::Discarded(NackReason::WindowClosed),
                    data.len(),
                );
                continue;
            }
            if let Some(d) = &dedup {
                if d.is_duplicate(op_key, offset) {
                    on_outcome(DeliveryOutcome::Duplicate, data.len());
                    continue;
                }
            }
            // One front_mut lookup per fragment; `cursor` is a disjoint
            // field, so updating it while the active borrow lives is fine.
            let Some(active) = self.queue.front_mut() else {
                on_outcome(
                    DeliveryOutcome::Discarded(NackReason::NoBufferPosted),
                    data.len(),
                );
                continue;
            };
            let threshold = active.threshold;
            let place_at = match self.mode {
                MailboxMode::Steered => offset,
                MailboxMode::Managed => self.cursor,
            };
            let end = match place_at.checked_add(data.len()) {
                Some(e) if e <= active.data.len() => e,
                _ => {
                    on_outcome(
                        DeliveryOutcome::Discarded(NackReason::OutOfBounds),
                        data.len(),
                    );
                    continue;
                }
            };
            if self.mode == MailboxMode::Managed {
                self.cursor = end;
            }
            if let Some(d) = &mut dedup {
                d.record(op_key, offset);
            }
            if !data.is_empty() {
                active.data[place_at..end].copy_from_slice(data);
            }
            bytes_local += data.len() as u64;
            bytes_delta += data.len() as u64;
            if data.len() as u64 >= op_total_len {
                ops_local += 1;
                ops_delta += 1;
            } else {
                // A fragment of a multi-MTU eager put — every such put
                // takes this branch once per fragment. Publish pending
                // deltas so the shared per-op bookkeeping stays exact.
                self.flush_progress(&mut bytes_delta, &mut ops_delta);
                let got = self.op_progress.entry(op_key).or_insert(0);
                *got += data.len() as u64;
                if *got >= op_total_len {
                    self.op_progress.remove(&op_key);
                    self.progress.ops.fetch_add(1, Ordering::AcqRel);
                    ops_local += 1;
                }
            }
            let reached = match threshold.ty {
                EpochType::Bytes => bytes_local >= threshold.count,
                EpochType::Ops => ops_local >= threshold.count,
            };
            if reached {
                self.flush_progress(&mut bytes_delta, &mut ops_delta);
                self.complete_active();
                on_outcome(DeliveryOutcome::Completed, data.len());
                // Completion reset the counters for the next epoch.
                (bytes_local, ops_local) = (0, 0);
                continue;
            }
            on_outcome(DeliveryOutcome::Accepted, data.len());
        }
        self.dedup = dedup;
        self.flush_progress(&mut bytes_delta, &mut ops_delta);
    }

    /// Publish locally accumulated progress deltas (see
    /// [`deliver_run`](Self::deliver_run)).
    fn flush_progress(&self, bytes_delta: &mut u64, ops_delta: &mut u64) {
        if *bytes_delta > 0 {
            self.progress
                .bytes
                .fetch_add(std::mem::take(bytes_delta), Ordering::AcqRel);
        }
        if *ops_delta > 0 {
            self.progress
                .ops
                .fetch_add(std::mem::take(ops_delta), Ordering::AcqRel);
        }
    }

    /// Deliver one fragment: a run of one through
    /// [`deliver_run`](Self::deliver_run), so unit tests and the checker's
    /// models drive the production placement code.
    #[cfg(test)]
    pub(crate) fn deliver(
        &mut self,
        op_key: OpKey,
        op_total_len: u64,
        offset: usize,
        data: &[u8],
    ) -> DeliveryOutcome {
        let mut outcome = None;
        self.deliver_run(
            std::iter::once((op_key, op_total_len, offset, data)),
            &mut |o, _| outcome = Some(o),
        );
        outcome.expect("one outcome per fragment")
    }

    /// Complete the active buffer *now*, regardless of threshold (paper:
    /// `RVMA_Win_inc_epoch` — hand a partial buffer to software, for
    /// streams, unknown-size messages, or error recovery).
    pub(crate) fn inc_epoch(&mut self) -> Result<()> {
        if self.closed {
            return Err(RvmaError::WindowClosed(self.vaddr));
        }
        if self.queue.is_empty() {
            return Err(RvmaError::Nacked(NackReason::NoBufferPosted));
        }
        self.complete_active();
        Ok(())
    }

    fn complete_active(&mut self) {
        let buf = self.queue.pop_front().expect("active buffer present");
        // Valid length: in steered mode the highest byte written is unknown
        // without per-byte tracking; the hardware writes the *count* of bytes
        // received, which equals the extent for the recommended
        // non-overlapping usage. We mirror that: valid_len = bytes counted,
        // clamped to the buffer.
        let valid = (self.progress.bytes() as usize).min(buf.data.len());
        let epoch = self.progress.epoch();
        let completed = CompletedBuffer::with_pool(buf.data, valid, epoch, self.vaddr, buf.pool);

        // Retire for rewind, evicting the oldest beyond capacity.
        self.retired.push_back(completed.clone());
        while self.retired.len() > self.retain {
            self.retired.pop_front();
        }

        // Publish the epoch into the endpoint's counter first: the
        // completing write below releases the payload to waiters (who may
        // be spinning on the completion pointer and read stats the very
        // next instruction), so the count must already be in place.
        if let Some(counter) = &self.completions {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        telemetry::record(
            &self.telemetry,
            EventKind::EpochComplete,
            self.vaddr.raw(),
            epoch,
            valid as u64,
        );

        // The completing write: to the buffer's completion pointer, or one
        // push onto its completion queue (counted first, like `completions`).
        // `NotifyWake` is stamped here, under the mailbox lock, so the
        // event's seq order is stable for deterministic replay.
        let async_wake = match buf.sink {
            CompletionSink::Slot(slot) => {
                slot.complete(completed);
                slot.is_async_armed()
            }
            CompletionSink::Cq(att) => {
                if let Some(stats) = &self.async_stats {
                    stats.cq_completions.fetch_add(1, Ordering::Relaxed);
                    stats.notify_wakes.fetch_add(1, Ordering::Relaxed);
                }
                att.push(completed);
                true
            }
        };
        if async_wake {
            telemetry::record(
                &self.telemetry,
                EventKind::NotifyWake,
                self.vaddr.raw(),
                epoch,
                valid as u64,
            );
        }

        self.progress.epoch.fetch_add(1, Ordering::AcqRel);
        self.progress.bytes.store(0, Ordering::Release);
        self.progress.ops.store(0, Ordering::Release);
        self.op_progress.clear();
        self.cursor = 0;
    }

    /// Close the mailbox (paper: `RVMA_Close_Win`). Subsequent operations
    /// are discarded (optionally NACKed by the endpoint). Every buffer that
    /// has not completed, the active one included, is returned to the
    /// caller in posting order; none of their notifications ever completes.
    pub(crate) fn close(&mut self) -> Vec<Vec<u8>> {
        self.closed = true;
        self.op_progress.clear();
        self.queue.drain(..).map(|b| b.data).collect()
    }

    /// The retired buffer completed exactly `back` epochs before the current
    /// epoch: `back = 1` is the most recently completed buffer. This is the
    /// hardware rewind command of paper Sec. IV-F.
    pub fn rewind(&self, back: u64) -> Result<CompletedBuffer> {
        if back == 0 || back > self.retired.len() as u64 {
            return Err(RvmaError::EpochNotRetained {
                requested: self.epoch().saturating_sub(back),
                oldest_retained: self.retired.front().map(CompletedBuffer::epoch),
            });
        }
        let idx = self.retired.len() - back as usize;
        Ok(self.retired[idx].clone())
    }

    /// The retired buffer for an absolute epoch number, if still retained.
    pub fn retired_epoch(&self, epoch: u64) -> Result<CompletedBuffer> {
        self.retired
            .iter()
            .find(|b| b.epoch() == epoch)
            .cloned()
            .ok_or(RvmaError::EpochNotRetained {
                requested: epoch,
                oldest_retained: self.retired.front().map(CompletedBuffer::epoch),
            })
    }

    /// Number of retired buffers currently retained.
    pub fn retained_count(&self) -> usize {
        self.retired.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;
    use crate::notify::{Notification, NotificationSlot};

    fn mb(mode: MailboxMode) -> Mailbox {
        Mailbox::new(VirtAddr::new(0xAB), mode, DEFAULT_RETAIN_EPOCHS)
    }

    fn post(m: &mut Mailbox, len: usize, t: Threshold) -> Notification {
        let slot = NotificationSlot::new();
        m.post(PostedBuffer::new(vec![0; len], t, slot.clone()))
            .expect("post ok");
        Notification::new(slot)
    }

    fn key(op: u64) -> OpKey {
        OpKey {
            op_id: op,
            initiator: 1,
        }
    }

    #[test]
    fn byte_threshold_completes_exactly() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        assert_eq!(m.deliver(key(1), 4, 0, &[1; 4]), DeliveryOutcome::Accepted);
        assert!(n.poll().is_none());
        assert_eq!(m.deliver(key(2), 4, 4, &[2; 4]), DeliveryOutcome::Completed);
        let buf = n.poll().expect("completed");
        assert_eq!(buf.data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(buf.epoch(), 0);
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn out_of_order_fragments_complete_identically() {
        // The core adaptive-routing claim: any arrival order, same result.
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        assert_eq!(m.deliver(key(1), 8, 4, &[2; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.deliver(key(1), 8, 0, &[1; 4]), DeliveryOutcome::Completed);
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn op_threshold_counts_ops_not_fragments() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 64, Threshold::ops(2));
        // Op 1 in three fragments of a 12-byte op.
        assert_eq!(m.deliver(key(1), 12, 0, &[1; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.deliver(key(1), 12, 4, &[1; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.deliver(key(1), 12, 8, &[1; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.ops_this_epoch(), 1);
        assert!(n.poll().is_none());
        // Op 2 single-fragment completes the epoch.
        assert_eq!(
            m.deliver(key(2), 4, 12, &[2; 4]),
            DeliveryOutcome::Completed
        );
        assert!(n.poll().is_some());
    }

    #[test]
    fn multi_fragment_ops_interleaved_from_two_initiators() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 64, Threshold::ops(2));
        let a = OpKey {
            op_id: 7,
            initiator: 1,
        };
        let b = OpKey {
            op_id: 7, // same op id, different initiator: must not collide
            initiator: 2,
        };
        assert_eq!(m.deliver(a, 8, 0, &[1; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.deliver(b, 8, 8, &[2; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.ops_this_epoch(), 0);
        assert_eq!(m.deliver(a, 8, 4, &[1; 4]), DeliveryOutcome::Accepted);
        assert_eq!(m.ops_this_epoch(), 1);
        assert_eq!(m.deliver(b, 8, 12, &[2; 4]), DeliveryOutcome::Completed);
        assert_eq!(
            n.poll().unwrap().data()[..16],
            [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2][..]
        );
    }

    #[test]
    fn epoch_rotation_is_fifo() {
        let mut m = mb(MailboxMode::Steered);
        let mut n1 = post(&mut m, 4, Threshold::bytes(4));
        let mut n2 = post(&mut m, 4, Threshold::bytes(4));
        assert_eq!(m.posted_buffers(), 2);
        m.deliver(key(1), 4, 0, &[1; 4]);
        m.deliver(key(2), 4, 0, &[2; 4]);
        assert_eq!(n1.poll().unwrap().data(), &[1; 4]);
        assert_eq!(n2.poll().unwrap().data(), &[2; 4]);
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.posted_buffers(), 0);
    }

    #[test]
    fn no_buffer_posted_discards() {
        let mut m = mb(MailboxMode::Steered);
        assert_eq!(
            m.deliver(key(1), 4, 0, &[0; 4]),
            DeliveryOutcome::Discarded(NackReason::NoBufferPosted)
        );
    }

    #[test]
    fn out_of_bounds_discards_without_counting() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        assert_eq!(
            m.deliver(key(1), 16, 4, &[0; 16]),
            DeliveryOutcome::Discarded(NackReason::OutOfBounds)
        );
        assert_eq!(m.bytes_this_epoch(), 0);
        // Offset overflow must not panic.
        assert_eq!(
            m.deliver(key(2), 4, usize::MAX, &[0; 4]),
            DeliveryOutcome::Discarded(NackReason::OutOfBounds)
        );
        assert!(n.poll().is_none());
    }

    #[test]
    fn closed_mailbox_discards_and_returns_queued() {
        let mut m = mb(MailboxMode::Steered);
        let _n1 = post(&mut m, 4, Threshold::bytes(4));
        let _n2 = post(&mut m, 6, Threshold::bytes(6));
        let returned = m.close();
        assert_eq!(returned.len(), 2);
        assert_eq!(returned[1].len(), 6);
        assert!(m.is_closed());
        assert_eq!(
            m.deliver(key(1), 4, 0, &[0; 4]),
            DeliveryOutcome::Discarded(NackReason::WindowClosed)
        );
        // Posting after close fails.
        let slot = NotificationSlot::new();
        assert_eq!(
            m.post(PostedBuffer::new(vec![0; 4], Threshold::bytes(4), slot)),
            Err(RvmaError::WindowClosed(VirtAddr::new(0xAB)))
        );
    }

    #[test]
    fn inc_epoch_hands_over_partial_buffer() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 16, Threshold::bytes(16));
        m.deliver(key(1), 4, 0, &[9; 4]);
        m.inc_epoch().expect("active buffer exists");
        let buf = n.poll().expect("partial completion delivered");
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.data(), &[9; 4]);
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn inc_epoch_without_buffer_errors() {
        let mut m = mb(MailboxMode::Steered);
        assert!(m.inc_epoch().is_err());
    }

    #[test]
    fn rewind_returns_previous_epochs() {
        let mut m = mb(MailboxMode::Steered);
        for _ in 0..3 {
            let _ = post(&mut m, 4, Threshold::bytes(4));
        }
        m.deliver(key(1), 4, 0, &[1; 4]);
        m.deliver(key(2), 4, 0, &[2; 4]);
        m.deliver(key(3), 4, 0, &[3; 4]);
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.rewind(1).unwrap().data(), &[3; 4]);
        assert_eq!(m.rewind(2).unwrap().data(), &[2; 4]);
        assert_eq!(m.rewind(3).unwrap().data(), &[1; 4]);
        assert!(m.rewind(4).is_err());
        assert!(m.rewind(0).is_err());
        assert_eq!(m.retired_epoch(1).unwrap().data(), &[2; 4]);
        assert!(m.retired_epoch(99).is_err());
    }

    #[test]
    fn retired_ring_is_bounded() {
        let mut m = Mailbox::new(VirtAddr::new(1), MailboxMode::Steered, 2);
        for i in 0..5u8 {
            let _n = post(&mut m, 4, Threshold::bytes(4));
            m.deliver(key(i as u64), 4, 0, &[i; 4]);
        }
        assert_eq!(m.retained_count(), 2);
        assert_eq!(m.rewind(1).unwrap().data(), &[4; 4]);
        assert_eq!(m.rewind(2).unwrap().data(), &[3; 4]);
        let err = m.rewind(3).unwrap_err();
        assert_eq!(
            err,
            RvmaError::EpochNotRetained {
                requested: 2,
                oldest_retained: Some(3),
            }
        );
    }

    #[test]
    fn managed_mode_appends_at_cursor() {
        let mut m = mb(MailboxMode::Managed);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        // Offsets are ignored; placement is receiver-assigned.
        m.deliver(key(1), 4, 999, &[1; 4]);
        m.deliver(key(2), 4, 0, &[2; 4]);
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn managed_cursor_resets_per_epoch() {
        let mut m = mb(MailboxMode::Managed);
        let mut n1 = post(&mut m, 4, Threshold::bytes(4));
        let mut n2 = post(&mut m, 4, Threshold::bytes(4));
        m.deliver(key(1), 4, 0, &[1; 4]);
        m.deliver(key(2), 4, 0, &[2; 4]);
        assert_eq!(n1.poll().unwrap().data(), &[1; 4]);
        assert_eq!(n2.poll().unwrap().data(), &[2; 4]);
    }

    #[test]
    fn managed_overrun_discards() {
        let mut m = mb(MailboxMode::Managed);
        let _n = post(&mut m, 4, Threshold::bytes(4));
        assert_eq!(
            m.deliver(key(1), 8, 0, &[1; 8]),
            DeliveryOutcome::Discarded(NackReason::OutOfBounds)
        );
    }

    #[test]
    fn valid_len_clamped_on_overlapping_writes() {
        // Overlapping writes are allowed (not recommended); the byte counter
        // can exceed the buffer extent, but valid_len must clamp.
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 4, Threshold::ops(2));
        m.deliver(key(1), 4, 0, &[1; 4]);
        m.deliver(key(2), 4, 0, &[2; 4]); // overwrite; bytes counter now 8 > 4
        let buf = n.poll().unwrap();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.data(), &[2; 4]);
    }

    #[test]
    fn dedup_suppresses_replayed_fragments() {
        let mut m = Mailbox::with_dedup(VirtAddr::new(0xAB), MailboxMode::Steered, 4, 8);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        assert_eq!(m.deliver(key(1), 8, 0, &[1; 4]), DeliveryOutcome::Accepted);
        // Replay of an accepted fragment: no counting, no completion.
        assert_eq!(m.deliver(key(1), 8, 0, &[1; 4]), DeliveryOutcome::Duplicate);
        assert_eq!(m.bytes_this_epoch(), 4);
        assert!(n.poll().is_none());
        assert_eq!(m.deliver(key(1), 8, 4, &[2; 4]), DeliveryOutcome::Completed);
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn dedup_survives_epoch_rotation() {
        // A duplicated *final* fragment must not complete the next epoch
        // early — the exact failure mode the lossy boundary documents.
        let mut m = Mailbox::with_dedup(VirtAddr::new(0xAB), MailboxMode::Steered, 4, 8);
        let _n1 = post(&mut m, 4, Threshold::bytes(4));
        let mut n2 = post(&mut m, 4, Threshold::bytes(4));
        assert_eq!(m.deliver(key(1), 4, 0, &[1; 4]), DeliveryOutcome::Completed);
        // The replayed completer arrives after rotation: suppressed, and
        // epoch 1's buffer is untouched.
        assert_eq!(m.deliver(key(1), 4, 0, &[1; 4]), DeliveryOutcome::Duplicate);
        assert_eq!(m.bytes_this_epoch(), 0);
        assert!(n2.poll().is_none());
        assert_eq!(m.deliver(key(2), 4, 0, &[2; 4]), DeliveryOutcome::Completed);
        assert_eq!(n2.poll().unwrap().data(), &[2; 4]);
    }

    #[test]
    fn dedup_does_not_shield_nacked_fragments() {
        // A fragment discarded for lack of a buffer is NOT recorded: when
        // the receiver finally posts, a retransmit must be deliverable.
        let mut m = Mailbox::with_dedup(VirtAddr::new(0xAB), MailboxMode::Steered, 4, 8);
        assert_eq!(
            m.deliver(key(1), 4, 0, &[7; 4]),
            DeliveryOutcome::Discarded(NackReason::NoBufferPosted)
        );
        let mut n = post(&mut m, 4, Threshold::bytes(4));
        assert_eq!(m.deliver(key(1), 4, 0, &[7; 4]), DeliveryOutcome::Completed);
        assert_eq!(n.poll().unwrap().data(), &[7; 4]);
    }

    #[test]
    fn dedup_applies_within_one_run() {
        let mut m = Mailbox::with_dedup(VirtAddr::new(0xAB), MailboxMode::Steered, 4, 8);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        let frags: Vec<(OpKey, u64, usize, &[u8])> = vec![
            (key(1), 8, 0, &[1; 4]),
            (key(1), 8, 0, &[1; 4]), // duplicated in the same run
            (key(1), 8, 4, &[2; 4]),
        ];
        let mut outcomes = Vec::new();
        m.deliver_run(frags.into_iter(), &mut |o, _| outcomes.push(o));
        assert_eq!(
            outcomes,
            vec![
                DeliveryOutcome::Accepted,
                DeliveryOutcome::Duplicate,
                DeliveryOutcome::Completed,
            ]
        );
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn posting_invalid_buffers_fails() {
        let mut m = mb(MailboxMode::Steered);
        let slot = NotificationSlot::new();
        assert_eq!(
            m.post(PostedBuffer::new(vec![], Threshold::bytes(1), slot.clone())),
            Err(RvmaError::EmptyBuffer)
        );
        assert_eq!(
            m.post(PostedBuffer::new(vec![0; 4], Threshold::bytes(8), slot)),
            Err(RvmaError::BufferTooSmall {
                buffer: 4,
                threshold: 8
            })
        );
    }

    #[test]
    fn close_returns_the_partially_filled_active_buffer() {
        let mut m = mb(MailboxMode::Steered);
        let mut n1 = post(&mut m, 8, Threshold::bytes(8));
        let _n2 = post(&mut m, 6, Threshold::bytes(6));
        assert_eq!(m.deliver(key(1), 4, 0, &[9; 4]), DeliveryOutcome::Accepted);
        let returned = m.close();
        assert_eq!(returned, vec![vec![9, 9, 9, 9, 0, 0, 0, 0], vec![0; 6]]);
        assert!(n1.poll().is_none(), "a closed buffer never completes");
        assert_eq!(m.posted_buffers(), 0);
    }

    #[test]
    fn progress_handle_tracks_epochs_lock_free() {
        let mut m = mb(MailboxMode::Steered);
        let progress = m.progress_handle();
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        m.deliver(key(1), 4, 0, &[1; 4]);
        assert_eq!(progress.bytes(), 4);
        assert_eq!(progress.epoch(), 0);
        m.deliver(key(2), 4, 4, &[2; 4]);
        assert_eq!(progress.bytes(), 0, "counters reset at completion");
        assert_eq!(progress.epoch(), 1);
        assert!(n.poll().is_some());
    }
}
