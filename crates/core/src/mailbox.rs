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
//! # Two-phase delivery
//!
//! Delivery is split so the payload copy — the expensive part of the
//! datapath — happens **outside** the mailbox's lock:
//!
//! 1. `Mailbox::deliver_begin` (under the lock): validate, reserve the
//!    destination range `[place_at, end)`, bump the byte/op counters, and
//!    record an in-flight writer.
//! 2. The caller drops the lock and copies the payload through the returned
//!    `WriteReservation` — concurrent fragments to *disjoint* ranges of
//!    the same mailbox copy fully in parallel.
//! 3. `Mailbox::deliver_finish` (under the lock): retire the reservation;
//!    if the threshold was reached, the **last** in-flight writer completes
//!    the epoch, so a completed buffer is never published while bytes are
//!    still landing in it.
//!
//! A fragment whose range overlaps an in-flight reservation reports
//! `BeginOutcome::Contended`; the caller drops the lock, yields, and
//! retries (overlapping concurrent writes are already "not recommended"
//! usage — the retry only serializes them instead of racing).
//! A caller that is the mailbox's only writer — a threaded wire worker,
//! through `RvmaEndpoint::deliver_batch` — skips the two phases:
//! `Mailbox::deliver_run_exclusive` places a chunk of fragments under one
//! lock hold.
//! Epoch progress is mirrored into an [`EpochProgress`] that can be read
//! lock-free while deliveries are in flight.

use crate::addr::VirtAddr;
use crate::buffer::{CompletedBuffer, EpochType, PostedBuffer};
use crate::error::{NackReason, Result, RvmaError};
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

/// Result of `Mailbox::deliver_begin`.
pub(crate) enum BeginOutcome {
    /// A destination range was reserved: copy the payload through the
    /// reservation *without* holding the mailbox lock, then call
    /// `Mailbox::deliver_finish` under the lock.
    Reserved(WriteReservation),
    /// Delivery resolved entirely under the lock (discard, or a zero-length
    /// fragment that needed no copy).
    Done(DeliveryOutcome),
    /// The fragment's range overlaps an in-flight reservation. Drop the
    /// lock, yield, and retry `deliver_begin`.
    Contended,
}

/// A reserved destination range in a mailbox's active buffer.
///
/// The pointed-to range stays valid until `Mailbox::deliver_finish` is
/// called with this reservation: while any writer is in flight the mailbox
/// neither completes nor frees its active buffer (close parks it in a
/// draining slot instead).
pub(crate) struct WriteReservation {
    ptr: *mut u8,
    len: usize,
    start: usize,
}

impl WriteReservation {
    /// Copy `data` into the reserved range.
    ///
    /// # Safety
    ///
    /// Call at most once, with `data.len()` equal to the reserved length,
    /// between the `deliver_begin` that produced this reservation and the
    /// matching `deliver_finish`. The mailbox guarantees no other writer
    /// holds an overlapping reservation and no reader observes the range
    /// until `deliver_finish` retires it.
    pub(crate) unsafe fn fill(&self, data: &[u8]) {
        debug_assert_eq!(data.len(), self.len);
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr, self.len) };
    }
}

// The reservation is only ever used by the thread that called
// `deliver_begin`, but endpoints are free to hand it across threads; the
// range it points into is pinned by the mailbox's writer accounting.
unsafe impl Send for WriteReservation {}

/// Lock-free observable progress of a mailbox's current epoch.
///
/// Updated by the delivery path while it holds the mailbox lock; readable
/// (e.g. from a polling application thread) without taking any lock. This
/// is the software analogue of the NIC's memory-mapped counter pair.
///
/// The counters say what has been **counted** against the threshold, not
/// what has been placed: the two-phase path bumps them when it reserves
/// the range (`deliver_begin`), before the copy runs outside the lock, so
/// they can lead the bytes actually in the buffer by every in-flight
/// put — a whole rendezvous put each. The batched path
/// (`Mailbox::deliver_run_exclusive`, which the threaded wire workers
/// use for every eager put) publishes them once per chunk, so they can
/// also lag the buffer by at most one chunk of puts. They are a pacing
/// signal. Only the threshold completion (the notification) certifies
/// placement.
#[derive(Debug, Default)]
pub struct EpochProgress {
    bytes: AtomicU64,
    ops: AtomicU64,
    epoch: AtomicU64,
}

impl EpochProgress {
    /// Bytes counted against the active buffer's threshold so far this
    /// epoch — reserved, not yet certified placed (see the type docs).
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
    /// Writers that called `deliver_begin` but not yet `deliver_finish`.
    writers: usize,
    /// Reserved `[start, end)` ranges of those writers.
    inflight: Vec<(usize, usize)>,
    /// Threshold was reached (or `inc_epoch` requested) while writers were
    /// still copying; the last `deliver_finish` performs the completion.
    pending_completion: bool,
    /// Active buffer parked by `close()` while writers were still copying
    /// into it; dropped when the last writer finishes.
    draining: Option<PostedBuffer>,
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
            writers: 0,
            inflight: Vec::new(),
            pending_completion: false,
            draining: None,
            dedup: (dedup_window > 0).then(|| DedupWindow::new(dedup_window)),
            completions: None,
            telemetry: None,
        }
    }

    /// Count every epoch completion into `counter` (the endpoint's
    /// `epochs_completed`). The increment is sequenced *before* the
    /// completing write, so it is visible to any thread the completion
    /// wakes — `wait()` returning implies the counter includes this epoch.
    pub(crate) fn count_completions_in(&mut self, counter: Arc<AtomicU64>) {
        self.completions = Some(counter);
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

    /// Phase 1 of delivery (paper Fig. 3 steps 2–4 minus the payload
    /// write): translate the placement, validate bounds, reserve the
    /// destination range, and bump the threshold counters — all under the
    /// caller's mailbox lock. The payload copy itself is the caller's,
    /// performed lock-free through the returned reservation.
    pub(crate) fn deliver_begin(
        &mut self,
        op_key: OpKey,
        op_total_len: u64,
        offset: usize,
        data_len: usize,
    ) -> BeginOutcome {
        if self.closed {
            return BeginOutcome::Done(DeliveryOutcome::Discarded(NackReason::WindowClosed));
        }
        // Dedup before any buffer-state check: a retransmitted copy of a
        // fragment whose epoch already completed (and left no buffer
        // posted) must report Duplicate, not a spurious NACK.
        if let Some(d) = &self.dedup {
            if d.is_duplicate(op_key, offset) {
                return BeginOutcome::Done(DeliveryOutcome::Duplicate);
            }
        }
        let (buf_len, threshold) = match self.queue.front() {
            Some(active) => (active.data.len(), active.threshold),
            None => {
                return BeginOutcome::Done(DeliveryOutcome::Discarded(NackReason::NoBufferPosted))
            }
        };

        // Placement.
        let place_at = match self.mode {
            MailboxMode::Steered => offset,
            MailboxMode::Managed => self.cursor,
        };
        let end = match place_at.checked_add(data_len) {
            Some(e) if e <= buf_len => e,
            _ => return BeginOutcome::Done(DeliveryOutcome::Discarded(NackReason::OutOfBounds)),
        };
        if data_len > 0 && self.inflight.iter().any(|&(s, e)| place_at < e && s < end) {
            return BeginOutcome::Contended;
        }
        if self.mode == MailboxMode::Managed {
            self.cursor = end;
        }
        // Accepted: remember the fragment so a retransmitted copy is
        // suppressed (recorded only now, after validation — a NACKed
        // fragment must stay retryable).
        if let Some(d) = &mut self.dedup {
            d.record(op_key, offset);
        }

        // Counting. (In Managed mode the cursor reservation above already
        // made concurrent ranges disjoint, so counting here is exact.)
        self.progress
            .bytes
            .fetch_add(data_len as u64, Ordering::AcqRel);
        if data_len as u64 >= op_total_len {
            // Single-fragment op: count immediately, no tracking entry.
            self.progress.ops.fetch_add(1, Ordering::AcqRel);
        } else {
            let got = self.op_progress.entry(op_key).or_insert(0);
            *got += data_len as u64;
            if *got >= op_total_len {
                self.op_progress.remove(&op_key);
                self.progress.ops.fetch_add(1, Ordering::AcqRel);
            }
        }

        // Threshold check. Completion is deferred to the last in-flight
        // writer so the buffer is never published mid-copy.
        let reached = match threshold.ty {
            EpochType::Bytes => self.progress.bytes() >= threshold.count,
            EpochType::Ops => self.progress.ops() >= threshold.count,
        };
        if reached {
            self.pending_completion = true;
        }

        if data_len == 0 {
            // Nothing to copy; resolve in place.
            return BeginOutcome::Done(if self.try_complete() {
                DeliveryOutcome::Completed
            } else {
                DeliveryOutcome::Accepted
            });
        }

        self.writers += 1;
        self.inflight.push((place_at, end));
        let active = self.queue.front_mut().expect("active checked above");
        // Pointer into the active buffer's heap allocation; stable while
        // writers > 0 (see WriteReservation docs).
        let ptr = unsafe { active.data.as_mut_ptr().add(place_at) };
        BeginOutcome::Reserved(WriteReservation {
            ptr,
            len: data_len,
            start: place_at,
        })
    }

    /// Deliver a run of fragments begin-to-finish in one call, bypassing
    /// the two-phase reservation machinery. Only valid when no reservation
    /// is outstanding (`writers == 0`): under that condition the caller's
    /// exclusive borrow is the only writer, so every copy goes straight
    /// into the active buffer through safe code — no writer count, no
    /// in-flight range tracking, no raw-pointer reservations, and no
    /// overlap scans (the in-flight list is necessarily empty). This is
    /// the batched datapath's fast path: the wire-worker pool shards by
    /// mailbox, so a worker delivering a batch under the mailbox lock
    /// meets this condition on every fragment.
    ///
    /// Being the sole writer also makes the shared progress counters
    /// single-writer for the duration, so the run accumulates byte/op
    /// counts in locals and publishes them as **one atomic add per counter
    /// per run** instead of per fragment — except at an epoch boundary,
    /// where the pending deltas are published first (`complete_active`
    /// computes the buffer's valid length from the shared counters).
    /// Readers of the counters ([`EpochProgress`] pacing) see bounded
    /// staleness: at most one run (≤ one batch chunk) of puts.
    ///
    /// Each fragment's outcome is reported through `on_outcome` together
    /// with its payload length. Returns `false` without consuming anything
    /// when a reservation *is* outstanding; the caller must fall back to
    /// `deliver_begin`/`deliver_finish` (which also handles contention
    /// against that reservation's range).
    pub(crate) fn deliver_run_exclusive<'f>(
        &mut self,
        frags: impl Iterator<Item = (OpKey, u64, usize, &'f [u8])>,
        on_outcome: &mut dyn FnMut(DeliveryOutcome, usize),
    ) -> bool {
        if self.writers != 0 {
            return false;
        }
        debug_assert!(self.inflight.is_empty(), "inflight range without writer");
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
                self.pending_completion = true;
                if self.try_complete() {
                    on_outcome(DeliveryOutcome::Completed, data.len());
                    // Completion reset the counters for the next epoch.
                    bytes_local = self.progress.bytes();
                    ops_local = self.progress.ops();
                    continue;
                }
            }
            on_outcome(DeliveryOutcome::Accepted, data.len());
        }
        self.dedup = dedup;
        self.flush_progress(&mut bytes_delta, &mut ops_delta);
        true
    }

    /// Publish locally accumulated progress deltas (see
    /// [`deliver_run_exclusive`](Self::deliver_run_exclusive)).
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

    /// Phase 2 of delivery: retire the reservation and, if this was the last
    /// in-flight writer of an epoch whose threshold has been reached,
    /// complete the epoch (paper Fig. 3 step 5).
    pub(crate) fn deliver_finish(&mut self, reservation: WriteReservation) -> DeliveryOutcome {
        debug_assert!(self.writers > 0, "finish without begin");
        self.writers -= 1;
        if let Some(pos) = self
            .inflight
            .iter()
            .position(|&(s, _)| s == reservation.start)
        {
            self.inflight.swap_remove(pos);
        }
        if self.closed {
            // Raced with close(): the copy landed in a buffer nobody will
            // see. Drop the parked allocation once the last writer is out.
            if self.writers == 0 {
                self.draining = None;
            }
            return DeliveryOutcome::Accepted;
        }
        if self.try_complete() {
            DeliveryOutcome::Completed
        } else {
            DeliveryOutcome::Accepted
        }
    }

    /// Deliver one fragment of an operation, begin-to-finish, under the
    /// caller's exclusive borrow. This is the single-threaded reference
    /// semantics for the two-phase pair; the production datapath
    /// (`RvmaEndpoint::deliver`) always goes through begin/finish so the
    /// copy can run outside the mailbox lock.
    ///
    /// `op_key` identifies the whole operation, `op_total_len` its full byte
    /// count (fragments of one op share both), `offset` is the byte offset
    /// into the active buffer (ignored — receiver-assigned — in `Managed`
    /// mode), and `data` the fragment payload.
    #[cfg(test)]
    pub(crate) fn deliver(
        &mut self,
        op_key: OpKey,
        op_total_len: u64,
        offset: usize,
        data: &[u8],
    ) -> DeliveryOutcome {
        match self.deliver_begin(op_key, op_total_len, offset, data.len()) {
            BeginOutcome::Done(outcome) => outcome,
            BeginOutcome::Reserved(reservation) => {
                // Exclusive borrow: no other writer can exist, so the copy
                // is race-free even without dropping any lock.
                unsafe { reservation.fill(data) };
                self.deliver_finish(reservation)
            }
            BeginOutcome::Contended => {
                unreachable!("overlap with in-flight writer under exclusive borrow")
            }
        }
    }

    /// Complete the active buffer *now*, regardless of threshold (paper:
    /// `RVMA_Win_inc_epoch` — hand a partial buffer to software, for
    /// streams, unknown-size messages, or error recovery). If fragment
    /// copies are in flight, completion happens when the last one finishes.
    pub(crate) fn inc_epoch(&mut self) -> Result<()> {
        if self.closed {
            return Err(RvmaError::WindowClosed(self.vaddr));
        }
        if self.queue.is_empty() {
            return Err(RvmaError::Nacked(NackReason::NoBufferPosted));
        }
        self.pending_completion = true;
        self.try_complete();
        Ok(())
    }

    /// Complete the active epoch iff completion is pending and no writer is
    /// mid-copy. Returns true when the completion happened here.
    fn try_complete(&mut self) -> bool {
        if !self.pending_completion || self.writers > 0 || self.closed {
            return false;
        }
        self.pending_completion = false;
        self.complete_active();
        true
    }

    fn complete_active(&mut self) {
        debug_assert!(
            self.inflight.is_empty(),
            "completing with writers in flight"
        );
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

        // The completing write to the completion pointer.
        buf.notify.complete(completed);
        // Async-armed slots (async posts, CQ attachments) stamp the wake
        // here rather than inside `complete`: the armed flag is fixed at
        // post time and this runs under the mailbox lock, so the event's
        // seq order is stable for deterministic replay.
        if buf.notify.is_async_armed() {
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
    /// are discarded (optionally NACKed by the endpoint). Queued, never-
    /// activated buffers are returned to the caller — as is the active
    /// buffer, unless fragment copies are still in flight into it, in which
    /// case it is parked and dropped when the last copy finishes.
    pub(crate) fn close(&mut self) -> Vec<Vec<u8>> {
        self.closed = true;
        self.op_progress.clear();
        self.pending_completion = false;
        if self.writers > 0 {
            self.draining = self.queue.pop_front();
        }
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
    fn dedup_applies_on_exclusive_run_path() {
        let mut m = Mailbox::with_dedup(VirtAddr::new(0xAB), MailboxMode::Steered, 4, 8);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        let frags: Vec<(OpKey, u64, usize, &[u8])> = vec![
            (key(1), 8, 0, &[1; 4]),
            (key(1), 8, 0, &[1; 4]), // duplicated in the same run
            (key(1), 8, 4, &[2; 4]),
        ];
        let mut outcomes = Vec::new();
        assert!(m.deliver_run_exclusive(frags.into_iter(), &mut |o, _| outcomes.push(o)));
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
    fn two_phase_defers_completion_to_last_writer() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 8, Threshold::bytes(8));
        let r1 = match m.deliver_begin(key(1), 8, 0, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("expected reservation"),
        };
        let r2 = match m.deliver_begin(key(1), 8, 4, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("expected reservation for disjoint range"),
        };
        // Threshold already reached by the counters, but nothing may
        // complete while copies are in flight.
        assert_eq!(m.bytes_this_epoch(), 8);
        assert!(n.poll().is_none());
        unsafe { r1.fill(&[1; 4]) };
        assert_eq!(m.deliver_finish(r1), DeliveryOutcome::Accepted);
        assert!(n.poll().is_none(), "one writer still in flight");
        unsafe { r2.fill(&[2; 4]) };
        assert_eq!(m.deliver_finish(r2), DeliveryOutcome::Completed);
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn overlapping_reservation_reports_contended() {
        let mut m = mb(MailboxMode::Steered);
        let _n = post(&mut m, 16, Threshold::bytes(16));
        let r1 = match m.deliver_begin(key(1), 16, 4, 8) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("expected reservation"),
        };
        assert!(matches!(
            m.deliver_begin(key(2), 16, 8, 4),
            BeginOutcome::Contended
        ));
        // Disjoint ranges on either side are fine.
        let r3 = match m.deliver_begin(key(3), 16, 0, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("disjoint range must not contend"),
        };
        unsafe { r1.fill(&[1; 8]) };
        m.deliver_finish(r1);
        // The overlapping range is free now.
        let r2 = match m.deliver_begin(key(2), 16, 8, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("range free after finish"),
        };
        unsafe { r2.fill(&[2; 4]) };
        m.deliver_finish(r2);
        unsafe { r3.fill(&[3; 4]) };
        m.deliver_finish(r3);
    }

    #[test]
    fn close_with_writer_in_flight_parks_active_buffer() {
        let mut m = mb(MailboxMode::Steered);
        let mut n1 = post(&mut m, 8, Threshold::bytes(8));
        let _n2 = post(&mut m, 6, Threshold::bytes(6));
        let r = match m.deliver_begin(key(1), 4, 0, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("expected reservation"),
        };
        let returned = m.close();
        // Only the queued (never-activated) buffer can be returned; the
        // active one still has a copy in flight.
        assert_eq!(returned.len(), 1);
        assert_eq!(returned[0].len(), 6);
        assert!(m.is_closed());
        // The in-flight copy may still land (into the parked buffer)...
        unsafe { r.fill(&[9; 4]) };
        assert_eq!(m.deliver_finish(r), DeliveryOutcome::Accepted);
        // ...but no completion is ever published for it.
        assert!(n1.poll().is_none());
        assert_eq!(m.posted_buffers(), 0);
    }

    #[test]
    fn inc_epoch_waits_for_inflight_writer() {
        let mut m = mb(MailboxMode::Steered);
        let mut n = post(&mut m, 16, Threshold::bytes(16));
        let r = match m.deliver_begin(key(1), 4, 0, 4) {
            BeginOutcome::Reserved(r) => r,
            _ => panic!("expected reservation"),
        };
        m.inc_epoch().expect("active buffer exists");
        assert!(
            n.poll().is_none(),
            "completion deferred past in-flight copy"
        );
        unsafe { r.fill(&[7; 4]) };
        assert_eq!(m.deliver_finish(r), DeliveryOutcome::Completed);
        assert_eq!(n.poll().unwrap().data(), &[7; 4]);
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
