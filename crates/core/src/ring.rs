//! Bounded MPSC ring queues for the wire datapath.
//!
//! The threaded transport used to route every fragment through an
//! *unbounded* channel: a slow receiver under incast grew the wire queue
//! without bound (a memory leak wearing a latency costume), and every
//! `recv` on an idle worker went through a futex. [`RingQueue`] replaces
//! it with the queue a multi-queue NIC actually has:
//!
//! * **Bounded.** A power-of-two ring of slots ([Vyukov's bounded MPMC
//!   design](https://www.1024cores.net), restricted to one consumer). A
//!   full ring exerts **backpressure**: [`RingQueue::push`] spins under
//!   the thread's idle budget, then yields, until a slot frees — it never
//!   drops and never allocates. The resident fragment count is therefore
//!   structurally ≤ the capacity.
//! * **Doorbell wake.** The single consumer may park when idle
//!   ([`RingQueue::park_consumer`]); a producer that observes the parked
//!   flag after publishing rings the doorbell (`Thread::unpark`). The
//!   flag is checked with one `SeqCst` fence pair (the Dekker pattern:
//!   either the producer sees the flag, or the consumer's post-flag
//!   emptiness re-check sees the element — a wakeup can never be lost).
//!   A *hot* consumer never parks, so the fragment path takes no futex.
//! * **Close is the linearisation point.** The closed flag lives in the
//!   tail word, so [`RingQueue::close`] and a producer's claim CAS are
//!   ordered against each other: a push either claimed its slot before
//!   the close — and the consumer, which learns the exact final index
//!   from the close, pops it — or fails with [`PushError::Closed`].
//!   A separate read-mostly copy of the flag lets an idle consumer poll
//!   for the close without reading the producers' tail line.
//! * **Observable.** [`RingStats`] (shared by every ring of one network)
//!   counts the high-water depth, full-ring producer stalls, and consumer
//!   park wakeups, surfaced through `AsyncNetwork::queue_stats()` and the
//!   endpoint's `StatsSnapshot`.
//!
//! Safety model: slot payloads live in `UnsafeCell<MaybeUninit<T>>`,
//! guarded by the per-slot sequence number — a producer writes the value
//! *before* releasing the sequence, a consumer reads it *after* acquiring
//! it, and the head/tail counters give each side exclusive ownership of
//! the slot between those points.

use crate::csync::{self, AtomicBool, AtomicUsize, CheckCell, Idle, Mutation, Mutex};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default wire-queue capacity (fragments) — generous enough that a
/// well-provisioned run never stalls, small enough that a wedged receiver
/// caps resident queue memory.
pub const DEFAULT_WIRE_QUEUE_CAP: usize = 4096;

/// Backpressure / depth counters, shared by all rings of one transport.
#[derive(Debug, Default)]
pub struct RingStats {
    /// High-water mark of any ring's occupancy (elements resident at the
    /// moment a push completed). Never exceeds the configured capacity.
    pub max_depth: AtomicU64,
    /// Pushes that found the ring full and had to stall (counted once per
    /// stalled push, not once per retry).
    pub full_stalls: AtomicU64,
    /// Times a parked consumer was woken (doorbell rings plus the rare
    /// spurious unpark).
    pub park_wakeups: AtomicU64,
}

impl RingStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> RingStatsSnapshot {
        RingStatsSnapshot {
            max_depth: self.max_depth.load(Ordering::Relaxed),
            full_stalls: self.full_stalls.load(Ordering::Relaxed),
            park_wakeups: self.park_wakeups.load(Ordering::Relaxed),
        }
    }

    fn observe_depth(&self, depth: u64) {
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`RingStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStatsSnapshot {
    /// High-water ring occupancy.
    pub max_depth: u64,
    /// Pushes that stalled on a full ring.
    pub full_stalls: u64,
    /// Parked-consumer wakeups.
    pub park_wakeups: u64,
}

struct Slot<T> {
    /// Vyukov sequence: `index` when free for the producer of turn
    /// `index`, `index + 1` once its value is published, `index + cap`
    /// after the consumer recycles it.
    seq: AtomicUsize,
    val: CheckCell<MaybeUninit<T>>,
}

/// Head/tail counters live on their own cache lines so producers hammering
/// the tail never false-share with the consumer's head.
#[repr(align(64))]
struct Padded<T>(T);

/// The tail word's top bit: set by [`RingQueue::close`]. The rest of the
/// word is the claim index.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// A bounded multi-producer / **single-consumer** ring queue.
///
/// The consumer side (`try_pop`, `park_consumer`, `register_consumer`) must
/// only ever be driven by one thread at a time — the wire worker that owns
/// the ring.
pub struct RingQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// The next claim index, with [`CLOSED`] folded in.
    tail: Padded<AtomicUsize>,
    head: Padded<AtomicUsize>,
    /// True while the consumer is parked (or committing to park).
    parked: AtomicBool,
    /// The consumer thread's handle, registered once at worker start.
    consumer: Mutex<Option<csync::thread::Thread>>,
    /// Set after [`CLOSED`] is folded into `tail`: what the consumer polls.
    closed: AtomicBool,
    stats: Arc<RingStats>,
}

// SAFETY: slot payloads are handed between threads through the sequence
// protocol documented on `Slot::seq`; all other state is atomics/locks.
unsafe impl<T: Send> Send for RingQueue<T> {}
unsafe impl<T: Send> Sync for RingQueue<T> {}

/// Why a push did not enqueue. Both variants return the value.
pub enum PushError<T> {
    /// Every slot is occupied (backpressure; retry after the consumer
    /// makes progress).
    Full(T),
    /// The ring was closed — the consumer is gone for good.
    Closed(T),
}

impl<T> RingQueue<T> {
    /// A ring with `capacity` slots (rounded up to a power of two, min 2),
    /// publishing its counters into `stats`.
    pub fn with_stats(capacity: usize, stats: Arc<RingStats>) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: CheckCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingQueue {
            slots,
            mask: cap - 1,
            tail: Padded(AtomicUsize::new(0)),
            head: Padded(AtomicUsize::new(0)),
            parked: AtomicBool::new(false),
            consumer: Mutex::new(None),
            closed: AtomicBool::new(false),
            stats,
        }
    }

    /// A ring with private counters (tests, standalone use).
    pub fn new(capacity: usize) -> Self {
        Self::with_stats(capacity, Arc::new(RingStats::default()))
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Elements currently resident (approximate under concurrency).
    pub fn depth(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed) & !CLOSED;
        let head = self.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// The shared counters this ring publishes into.
    pub fn stats(&self) -> &Arc<RingStats> {
        &self.stats
    }

    /// Non-blocking push. On success the doorbell is rung if the consumer
    /// is parked.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let mut word = self.tail.0.load(Ordering::Relaxed);
        // Seeded mutation (checker builds only): test the closed flag once,
        // apart from the claim — a push that passes the test and then
        // claims a slot after the close lands behind the consumer's final
        // index. `check::mutations` proves the model flags this.
        let apart = csync::mutation(Mutation::RingClosedApartFromClaim);
        if apart && word & CLOSED != 0 {
            return Err(PushError::Closed(value));
        }
        loop {
            if word & CLOSED != 0 && !apart {
                return Err(PushError::Closed(value));
            }
            let tail = word & !CLOSED;
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - tail as isize;
            if diff == 0 {
                // The CAS expects the whole word, so it fails once a close
                // has set the flag: the claim and the close are ordered.
                match self.tail.0.compare_exchange_weak(
                    word,
                    word.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the tail CAS for `tail` grants
                        // exclusive write access to this slot until the
                        // sequence release below.
                        slot.val.with_mut(|v| unsafe { (*v).write(value) });
                        let publish = if csync::mutation(Mutation::RingPublishRelaxed) {
                            Ordering::Relaxed
                        } else {
                            Ordering::Release
                        };
                        slot.seq.store(tail.wrapping_add(1), publish);
                        let depth = tail
                            .wrapping_add(1)
                            .wrapping_sub(self.head.0.load(Ordering::Relaxed));
                        self.stats.observe_depth(depth as u64);
                        self.ring_doorbell();
                        return Ok(());
                    }
                    Err(w) => word = w,
                }
            } else if diff < 0 {
                return Err(PushError::Full(value));
            } else {
                word = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking push: backpressure, never drop. Spins under the thread's
    /// `Idle` budget, then yields, until a slot frees. Fails only when
    /// the ring is closed, returning the value.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut value = match self.try_push(value) {
            Ok(()) => return Ok(()),
            Err(PushError::Closed(v)) => return Err(v),
            Err(PushError::Full(v)) => v,
        };
        self.stats.full_stalls.fetch_add(1, Ordering::Relaxed);
        let mut idle = Idle::new();
        loop {
            idle.snooze();
            value = match self.try_push(value) {
                Ok(()) => {
                    idle.done();
                    return Ok(());
                }
                Err(PushError::Closed(v)) => return Err(v),
                Err(PushError::Full(v)) => v,
            };
        }
    }

    /// Single-consumer pop.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq as isize - head.wrapping_add(1) as isize == 0 {
            self.head.0.store(head.wrapping_add(1), Ordering::Relaxed);
            // SAFETY: the acquired sequence proves the producer's write
            // completed, and advancing head makes this consumer the sole
            // owner of the slot until the recycle release below.
            let value = slot.val.with(|v| unsafe { (*v).assume_init_read() });
            slot.seq
                .store(head.wrapping_add(self.mask + 1), Ordering::Release);
            Some(value)
        } else {
            None
        }
    }

    /// Record the calling thread as the ring's consumer (for doorbell
    /// wakes). Call once from the worker before the first `park_consumer`.
    pub fn register_consumer(&self) {
        *self.consumer.lock() = Some(csync::thread::current());
    }

    /// Park the consumer until a producer rings the doorbell. Must only be
    /// called by the registered consumer thread, with the ring observed
    /// empty. Re-checks emptiness after raising the parked flag, so a
    /// publish racing the park is never slept through. May return
    /// spuriously; callers loop.
    pub fn park_consumer(&self) {
        self.parked.store(true, Ordering::SeqCst);
        csync::fence(Ordering::SeqCst);
        // Dekker re-check: a producer either sees `parked == true` after
        // its publish (and unparks us), or its publish is visible to this
        // emptiness check (and we bail out). A closed ring never parks.
        if self.tail.0.load(Ordering::SeqCst) != self.head.0.load(Ordering::SeqCst) {
            self.parked.store(false, Ordering::SeqCst);
            return;
        }
        csync::thread::park();
        self.parked.store(false, Ordering::SeqCst);
        self.stats.park_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// No slots claimed: `tail` advances at claim time (before the value is
    /// published), so `false` here can mean "an entry is still being
    /// written", not just "an entry is poppable".
    pub(crate) fn is_empty(&self) -> bool {
        let head = self.head.0.load(Ordering::SeqCst);
        let tail = self.tail.0.load(Ordering::SeqCst) & !CLOSED;
        tail == head
    }

    /// Closed, and every value claimed before the close popped (one still
    /// being written keeps this false): the consumer's exit test. Until
    /// the close it reads only the read-mostly `closed` flag.
    pub(crate) fn is_drained(&self) -> bool {
        self.closed.load(Ordering::Acquire)
            && self.tail.0.load(Ordering::Acquire) == CLOSED | self.head.0.load(Ordering::Relaxed)
    }

    fn ring_doorbell(&self) {
        csync::fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.consumer.lock().as_ref() {
                t.unpark();
            }
        }
    }

    /// Mark the ring closed: subsequent pushes fail. Every push that
    /// succeeded claimed its slot before this call, so a consumer that
    /// keeps popping until every claimed slot is popped misses none.
    /// Wakes a parked consumer.
    pub fn close(&self) {
        self.tail.0.fetch_or(CLOSED, Ordering::SeqCst);
        self.closed.store(true, Ordering::Release);
        self.ring_doorbell();
    }
}

impl<T> Drop for RingQueue<T> {
    fn drop(&mut self) {
        // Drop any values still resident (puts submitted after shutdown).
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for RingQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingQueue")
            .field("capacity", &self.capacity())
            .field("depth", &self.depth())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(RingQueue::<u32>::new(0).capacity(), 2);
        assert_eq!(RingQueue::<u32>::new(5).capacity(), 8);
        assert_eq!(RingQueue::<u32>::new(8).capacity(), 8);
    }

    #[test]
    fn fifo_within_single_producer() {
        let q = RingQueue::new(8);
        for i in 0..8u32 {
            q.try_push(i).map_err(|_| ()).unwrap();
        }
        assert!(matches!(q.try_push(99), Err(PushError::Full(99))));
        for i in 0..8u32 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let q = RingQueue::new(4);
        for round in 0..64u32 {
            q.try_push(round).map_err(|_| ()).unwrap();
            assert_eq!(q.try_pop(), Some(round));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn blocking_push_exerts_backpressure_and_counts_stalls() {
        let q = Arc::new(RingQueue::new(4));
        for i in 0..4u32 {
            q.push(i).map_err(|_| ()).unwrap();
        }
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push(42).map_err(|_| ()).unwrap())
        };
        // The producer is stalled on the full ring; free one slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_pop(), Some(0));
        producer.join().unwrap();
        assert!(q.stats().snapshot().full_stalls >= 1);
        assert!(q.stats().snapshot().max_depth <= 4);
    }

    #[test]
    fn mpsc_under_contention_delivers_everything() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 10_000;
        let q = Arc::new(RingQueue::new(8));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = q.clone();
                s.spawn(move || {
                    for k in 0..PER {
                        q.push(p * PER + k).map_err(|_| ()).unwrap();
                    }
                });
            }
            let q = q.clone();
            let sum = sum.clone();
            s.spawn(move || {
                let mut got = 0u64;
                while got < PRODUCERS * PER {
                    match q.try_pop() {
                        Some(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
        });
        let n = PRODUCERS * PER;
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert!(q.stats().snapshot().max_depth <= 8);
    }

    #[test]
    fn doorbell_wakes_parked_consumer() {
        let q = Arc::new(RingQueue::new(8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                q.register_consumer();
                loop {
                    if let Some(v) = q.try_pop() {
                        return v;
                    }
                    q.park_consumer();
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        q.push(7u32).map_err(|_| ()).unwrap();
        assert_eq!(consumer.join().unwrap(), 7);
        assert!(q.stats().snapshot().park_wakeups >= 1);
    }

    #[test]
    fn publish_racing_park_is_not_slept_through() {
        // Hammer the park/publish race: the consumer must never hang.
        let q = Arc::new(RingQueue::new(2));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                q.register_consumer();
                let mut got = 0u32;
                while got < 10_000 {
                    if q.try_pop().is_some() {
                        got += 1;
                    } else {
                        q.park_consumer();
                    }
                }
            })
        };
        for _ in 0..10_000u32 {
            q.push(1u8).map_err(|_| ()).unwrap();
        }
        consumer.join().unwrap();
    }

    #[test]
    fn closed_ring_fails_pushes() {
        let q = RingQueue::new(4);
        q.push(1u32).map_err(|_| ()).unwrap();
        q.close();
        assert!(q.push(2).is_err());
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        // Resident values are still poppable (the Drop drain relies on it).
        assert_eq!(q.try_pop(), Some(1));
    }

    #[test]
    fn drop_releases_resident_values() {
        let q = RingQueue::new(8);
        let tracked = Arc::new(());
        for _ in 0..5 {
            q.push(tracked.clone()).map_err(|_| ()).unwrap();
        }
        assert_eq!(Arc::strong_count(&tracked), 6);
        drop(q);
        assert_eq!(Arc::strong_count(&tracked), 1);
    }
}
