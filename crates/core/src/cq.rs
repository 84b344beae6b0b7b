//! Completion queues: epoll-style aggregation of many completion pointers.
//!
//! The paper's per-buffer notification slot (Sec. IV-C) is the fine-grained
//! story — a thread waits on exactly the completions it cares about. At
//! service scale the opposite shape appears: one runtime thread multiplexing
//! tens of thousands of in-flight epochs. Scanning a slot list
//! ([`wait_any`](crate::notify::wait_any)) is O(slots) per completion;
//! a [`CompletionQueue`] makes it O(1): the **completing write itself**
//! pushes the finished buffer onto a multi-producer ready-list, and one
//! consumer drains up to K completions per wake with
//! [`poll_batch`](CompletionQueue::poll_batch).
//!
//! Design:
//!
//! * The ready-list is the existing Vyukov bounded MPSC [`RingQueue`] — the
//!   completer's push is lock-free (one CAS claim + release store). If the
//!   ring is full the entry spills to a mutex-guarded overflow list and
//!   opens a *spill episode*: every later completion follows it to the list
//!   (even after the ring regains room) until the consumer has drained the
//!   list, so delivery order stays enqueue order across the spill. The
//!   spill is counted and only ever taken on the exceptional path, so the
//!   completion hot path stays lock-free when the queue is sized sanely.
//! * A CQ post (`Window::post_*_cq`) carries its [`CqAttachment`], not a
//!   notification slot: the completing write is one push, and a completion
//!   allocates only its `CompletedBuffer` record.
//! * Exactly-once: each completion pushes exactly one entry, and the ring's
//!   single-consumer pop delivers it exactly once. CQ posts return
//!   no [`Notification`](crate::notify::Notification) handle — the queue is
//!   the sole consumer of those completions (no stolen events).
//! * Waiting is layered like the slot itself: non-blocking `poll_batch`,
//!   blocking `wait_batch` (bounded spin, then a sleep on the ready ring's
//!   doorbell, which a spill rings too), and an async
//!   [`ready`](CompletionQueue::ready) future whose waker the producing
//!   completer wakes directly.

use crate::buffer::CompletedBuffer;
use crate::csync::{self, AtomicBool, Idle, Mutation, Mutex};
use crate::notify::AtomicWaker;
use crate::ring::{PushError, Ring, RingQueue, DOORBELL_WAIT};
use crate::telemetry::{self, EventKind, Histogram, Telemetry};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// One drained completion: the attachment's user tag plus the completed
/// epoch buffer.
#[derive(Debug)]
pub struct CqCompletion {
    /// Caller-chosen tag passed at attach time (an epoll `user_data`).
    pub user: u64,
    /// The completed epoch's buffer.
    pub buffer: CompletedBuffer,
}

struct CqEntry {
    user: u64,
    buffer: CompletedBuffer,
}

/// Counter snapshot of a [`CompletionQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CqStats {
    /// Completions pushed by completing writes.
    pub enqueued: u64,
    /// Completions handed to the consumer.
    pub delivered: u64,
    /// Pushes that found the ring full and spilled to the overflow list.
    pub overflowed: u64,
    /// Wakes delivered: a registered waker a push woke, or a
    /// `wait_batch` sleep that ended with completions queued.
    pub wakes: u64,
    /// `poll_batch` calls that drained nothing.
    pub empty_polls: u64,
    /// Entries currently queued.
    pub depth: u64,
    /// Median drained-batch size (non-empty polls only).
    pub batch_p50: u64,
    /// p99 drained-batch size (non-empty polls only).
    pub batch_p99: u64,
}

struct CqInner {
    ready: RingQueue<CqEntry>,
    /// Spillover when the ring is momentarily full — counted, never lost.
    overflow: Mutex<VecDeque<CqEntry>>,
    /// True while spilled entries are queued (set and cleared under the
    /// `overflow` lock). While set, pushes bypass the ring so an entry
    /// enqueued *after* a spilled one can never be delivered before it.
    spilling: AtomicBool,
    /// Async consumer parking cell.
    waker: AtomicWaker,
    /// Serialises `poll_batch` callers: the Vyukov ring is single-consumer.
    /// Consumer-side only — the completion hot path never touches it.
    consumer: Mutex<ConsumerState>,
    // Monitoring counters stay plain `std` atomics: they carry no
    // ordering obligations, and keeping them out of the checker's
    // instrumented op stream keeps model schedule spaces small.
    enqueued: AtomicU64,
    delivered: AtomicU64,
    overflowed: AtomicU64,
    wakes: AtomicU64,
    empty_polls: AtomicU64,
    /// Event recorder, armed lazily by the first attached traced window.
    telemetry: OnceLock<Arc<Telemetry>>,
}

/// Consumer-side state, protected by the single-consumer lock.
struct ConsumerState {
    batch_hist: Histogram,
    /// Dense per-CQ sequence number for `CqPoll` events.
    poll_seq: u64,
}

impl CqInner {
    /// The completing write's half: push the entry and wake the consumer.
    /// Lock-free unless the ring is full (bounded queue, counted spill).
    fn push(&self, entry: CqEntry) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let mut entry = Some(entry);
        // Open spill episode: join the back of the overflow list rather
        // than jumping a spilled predecessor via the ring (the episode may
        // have ended while we took the lock — re-check under it).
        if !csync::mutation(Mutation::CqSpillBypass) && self.spilling.load(Ordering::Acquire) {
            let mut overflow = self.overflow.lock();
            if self.spilling.load(Ordering::Relaxed) {
                overflow.push_back(entry.take().expect("unspilled entry"));
                self.overflowed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let spilled = match entry.map(|e| self.ready.try_push(e)) {
            Some(Ok(())) => false,
            Some(Err(PushError::Full(e) | PushError::Closed(e))) => {
                let mut overflow = self.overflow.lock();
                self.spilling.store(true, Ordering::Release);
                overflow.push_back(e);
                self.overflowed.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => true,
        };
        // A spill bypasses the ring push's doorbell ring: ring it here.
        if spilled {
            self.ready.doorbell().ring();
        }
        if self.waker.wake() {
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// What a push publishes before it rings the doorbell and wakes the
    /// waker: a published ring slot, or an open spill episode.
    fn queued(&self) -> bool {
        self.ready.ready() || self.spilling.load(Ordering::Acquire)
    }

    fn pop(&self) -> Option<CqEntry> {
        // Ring first: during a spill episode it holds only entries from
        // *before* the first spill (later pushes divert to the list), so
        // ring-then-list is exact enqueue order, not approximate.
        if let Some(e) = self.ready.try_pop() {
            return Some(e);
        }
        if !self.spilling.load(Ordering::Acquire) {
            return None;
        }
        // `try_pop() == None` does not mean the ring is drained: a producer
        // preempted between claiming a slot and publishing its sequence
        // leaves the ring non-empty but momentarily unpoppable — and a
        // *published* entry behind that claim would then be overtaken by
        // anything we take from the spill list (per-producer FIFO breaks:
        // found by the rvma-check enumeration, see DESIGN.md §14). Report
        // empty and let the caller retry until the claim publishes.
        if self.ready.depth() > 0 {
            return None;
        }
        let mut overflow = self.overflow.lock();
        let e = overflow.pop_front();
        if overflow.is_empty() {
            // Episode over — the list is drained and, since every push
            // during the episode landed here, the ring is empty too.
            // Producers racing this store re-check under the lock we hold.
            self.spilling.store(false, Ordering::Release);
        }
        e
    }
}

/// A multi-producer completion ready-list; see the module docs.
///
/// Cloning the handle shares the queue (producers hold internal `Arc`s via
/// their attachments). Consumption is single-threaded at a time — concurrent
/// `poll_batch` callers serialise on an internal consumer lock.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("depth", &self.depth())
            .finish()
    }
}

impl CompletionQueue {
    /// A queue whose lock-free ready-list holds `capacity` entries (rounded
    /// up to a power of two, minimum 2). Size it to the expected number of
    /// completions between polls; overflow spills safely but takes a lock.
    pub fn new(capacity: usize) -> Self {
        CompletionQueue {
            inner: Arc::new(CqInner {
                ready: RingQueue::new(capacity),
                overflow: Mutex::new(VecDeque::new()),
                spilling: AtomicBool::new(false),
                waker: AtomicWaker::new(),
                consumer: Mutex::new(ConsumerState {
                    batch_hist: Histogram::new(),
                    poll_seq: 0,
                }),
                enqueued: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                overflowed: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
                empty_polls: AtomicU64::new(0),
                telemetry: OnceLock::new(),
            }),
        }
    }

    /// A producer handle tagged with `user`, carried by a posted buffer
    /// (`Window::post_*_cq` does this).
    pub(crate) fn attachment(&self, user: u64) -> CqAttachment {
        CqAttachment {
            inner: self.inner.clone(),
            user,
        }
    }

    /// Stamp non-empty `poll_batch` drains into `telemetry` as `CqPoll`
    /// events. The first recorder arms the queue; later calls are one load.
    pub(crate) fn trace_into(&self, telemetry: &Arc<Telemetry>) {
        self.inner.telemetry.get_or_init(|| telemetry.clone());
    }

    /// Entries currently queued.
    pub fn depth(&self) -> u64 {
        (self.inner.ready.depth() + self.inner.overflow.lock().len()) as u64
    }

    /// Drain up to `max` completions into `out` without blocking; returns
    /// the number drained. Exactly-once: an entry returned here is gone
    /// from the queue.
    pub fn poll_batch(&self, max: usize, out: &mut Vec<CqCompletion>) -> usize {
        let mut consumer = self.inner.consumer.lock();
        let mut n = 0usize;
        while n < max {
            let entry = match self.inner.pop() {
                Some(e) => e,
                None => break,
            };
            out.push(CqCompletion {
                user: entry.user,
                buffer: entry.buffer,
            });
            n += 1;
        }
        if n == 0 {
            self.inner.empty_polls.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.delivered.fetch_add(n as u64, Ordering::Relaxed);
            consumer.batch_hist.observe(n as u64);
            let seq = consumer.poll_seq;
            consumer.poll_seq += 1;
            telemetry::record(
                &self.inner.telemetry.get().cloned(),
                EventKind::CqPoll,
                0,
                seq,
                n as u64,
            );
        }
        n
    }

    /// Like [`poll_batch`](Self::poll_batch) but blocks — a spin under the
    /// thread's `Idle` budget, then sleeps on the ready ring's doorbell —
    /// until at least one completion arrives or `timeout` expires. Returns
    /// the number drained (0 on timeout).
    pub fn wait_batch(&self, max: usize, out: &mut Vec<CqCompletion>, timeout: Duration) -> usize {
        let n = self.poll_batch(max, out);
        if n > 0 {
            return n;
        }
        let inner = &*self.inner;
        let deadline = Instant::now() + timeout;
        let mut idle = Idle::new();
        loop {
            if inner.queued() {
                let n = self.poll_batch(max, out);
                if n > 0 {
                    idle.done();
                    return n;
                }
            }
            if idle.spin() {
                if idle.past(deadline) {
                    return 0;
                }
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return 0;
            }
            let bell = inner.ready.doorbell();
            if !bell.sleep_unless(|| inner.queued(), left.min(DOORBELL_WAIT)) {
                // A spill waits on a ring claim still being written (`pop`).
                csync::thread::yield_now();
            } else if inner.queued() {
                inner.wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A future that resolves once at least one completion is queued. The
    /// completing write wakes the registered task directly; follow up with
    /// [`poll_batch`](Self::poll_batch) to drain. Single async consumer at
    /// a time (one waker cell).
    pub fn ready(&self) -> CqReady<'_> {
        CqReady { cq: self }
    }

    /// Counter snapshot (batch-size quantiles cover non-empty polls only).
    pub fn stats(&self) -> CqStats {
        let consumer = self.inner.consumer.lock();
        CqStats {
            enqueued: self.inner.enqueued.load(Ordering::Relaxed),
            delivered: self.inner.delivered.load(Ordering::Relaxed),
            overflowed: self.inner.overflowed.load(Ordering::Relaxed),
            wakes: self.inner.wakes.load(Ordering::Relaxed),
            empty_polls: self.inner.empty_polls.load(Ordering::Relaxed),
            depth: self.depth(),
            batch_p50: consumer.batch_hist.quantile(0.50),
            batch_p99: consumer.batch_hist.quantile(0.99),
        }
    }
}

/// Resolves when the [`CompletionQueue`] is non-empty; see
/// [`CompletionQueue::ready`].
#[derive(Debug)]
pub struct CqReady<'a> {
    cq: &'a CompletionQueue,
}

impl Future for CqReady<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let inner = &self.cq.inner;
        if !inner.queued() {
            inner.waker.register(cx.waker());
            // Re-check after registering: a push either published before its
            // wake saw the waker (the register's RMW acquires it), or wakes it.
            if !inner.queued() {
                return Poll::Pending;
            }
        }
        Poll::Ready(())
    }
}

/// A producer handle: routes one posted buffer's completing write into the
/// queue, tagged with `user`. Carried by the posted buffer; a buffer that
/// `close()` returns drops it without pushing.
pub struct CqAttachment {
    inner: Arc<CqInner>,
    user: u64,
}

impl CqAttachment {
    /// The completing write of a CQ post (the mailbox's `complete_active`):
    /// enqueue the finished buffer and wake the consumer.
    pub(crate) fn push(&self, buffer: CompletedBuffer) {
        self.inner.push(CqEntry {
            user: self.user,
            buffer,
        });
    }
}

impl std::fmt::Debug for CqAttachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqAttachment")
            .field("user", &self.user)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;

    fn completed(tag: u8) -> CompletedBuffer {
        CompletedBuffer::new(vec![tag; 8], 8, 0, VirtAddr::new(tag as u64))
    }

    fn complete_attached(cq: &CompletionQueue, user: u64, tag: u8) {
        cq.attachment(user).push(completed(tag));
    }

    #[test]
    fn poll_empty_is_zero() {
        let cq = CompletionQueue::new(8);
        let mut out = Vec::new();
        assert_eq!(cq.poll_batch(16, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(cq.stats().empty_polls, 1);
    }

    #[test]
    fn completions_drain_with_user_tags() {
        let cq = CompletionQueue::new(8);
        complete_attached(&cq, 7, 1);
        complete_attached(&cq, 9, 2);
        assert_eq!(cq.depth(), 2);
        let mut out = Vec::new();
        assert_eq!(cq.poll_batch(16, &mut out), 2);
        assert_eq!(out[0].user, 7);
        assert_eq!(out[0].buffer.data(), &[1; 8]);
        assert_eq!(out[1].user, 9);
        assert_eq!(cq.depth(), 0);
    }

    #[test]
    fn poll_batch_respects_max() {
        let cq = CompletionQueue::new(8);
        for i in 0..5 {
            complete_attached(&cq, i, i as u8);
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll_batch(2, &mut out), 2);
        assert_eq!(cq.poll_batch(16, &mut out), 3);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn overflow_spills_without_losing_entries() {
        // Ring capacity 2, 10 completions: 8 spill, all 10 delivered.
        let cq = CompletionQueue::new(2);
        for i in 0..10 {
            complete_attached(&cq, i, i as u8);
        }
        let stats = cq.stats();
        assert_eq!(stats.enqueued, 10);
        assert!(stats.overflowed >= 8);
        let mut out = Vec::new();
        assert_eq!(cq.poll_batch(64, &mut out), 10);
        let mut users: Vec<u64> = out.iter().map(|c| c.user).collect();
        users.sort_unstable();
        assert_eq!(users, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn fifo_preserved_across_overflow_spill() {
        // Regression: pop() used to drain the ring before the overflow
        // list unconditionally, so an entry enqueued *after* a spilled one
        // could overtake it once the ring regained room.
        let cq = CompletionQueue::new(2);
        // Fill the ring (A, B), then spill C — episode opens.
        complete_attached(&cq, 1, 1);
        complete_attached(&cq, 2, 2);
        complete_attached(&cq, 3, 3);
        assert_eq!(cq.stats().overflowed, 1);
        // Drain the pre-spill entries; the ring now has room again.
        let mut out = Vec::new();
        assert_eq!(cq.poll_batch(2, &mut out), 2);
        assert_eq!(out[0].user, 1);
        assert_eq!(out[1].user, 2);
        // D is enqueued after C. The old push put D in the ring and the
        // old pop preferred the ring, delivering D before C.
        complete_attached(&cq, 4, 4);
        out.clear();
        assert_eq!(cq.poll_batch(8, &mut out), 2);
        let users: Vec<u64> = out.iter().map(|c| c.user).collect();
        assert_eq!(users, vec![3, 4], "delivery order must be enqueue order");
        // Episode closed: the next completion takes the lock-free ring.
        complete_attached(&cq, 5, 5);
        out.clear();
        assert_eq!(cq.poll_batch(8, &mut out), 1);
        assert_eq!(out[0].user, 5);
        assert_eq!(cq.stats().overflowed, 2, "D spilled during the episode");
    }

    #[test]
    fn wait_batch_times_out_empty() {
        let cq = CompletionQueue::new(8);
        let mut out = Vec::new();
        assert_eq!(cq.wait_batch(4, &mut out, Duration::from_millis(10)), 0);
    }

    #[test]
    fn wait_batch_wakes_from_park() {
        let cq = CompletionQueue::new(8);
        let producer = cq.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            complete_attached(&producer, 42, 5);
        });
        let mut out = Vec::new();
        let n = cq.wait_batch(4, &mut out, Duration::from_secs(10));
        assert_eq!(n, 1);
        assert_eq!(out[0].user, 42);
        t.join().unwrap();
    }
}
