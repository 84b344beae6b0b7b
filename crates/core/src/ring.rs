//! Bounded MPSC rings: one queue protocol under both wires.
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
//! * **Doorbell wake.** Each ring's cursor block carries a futex
//!   eventcount (`seq`, `waiters`). An idle consumer advertises in
//!   `waiters`, re-checks, and sleeps on `seq` for at most 20 ms
//!   ([`RingQueue::park_consumer`]); a producer pays one `SeqCst` fence and
//!   one load of `waiters` per push, and bumps `seq` and wakes only for a
//!   sleeper. The fences pair as a Dekker, so no wake is lost (enumerated
//!   on both storages, DESIGN.md §14), and a *hot* consumer never sleeps.
//!   Without a futex (non-Linux) the sleep degrades to `shm`'s bounded one.
//! * **Close is the linearisation point.** The closed flag lives in the
//!   tail word, so [`RingQueue::close`] and a producer's claim CAS are
//!   ordered against each other: a push either claimed its slot before
//!   the close — and the consumer, which learns the exact final index
//!   from the close, pops it — or fails with [`PushError::Closed`].
//!   A read-mostly copy of the flag on the consumer's cache line lets an
//!   idle consumer poll for the close without reading the producers'.
//! * **Observable.** [`RingStats`] (shared by every ring of one network)
//!   counts the high-water depth, full-ring producer stalls, and consumer
//!   park wakeups, surfaced through `AsyncNetwork::queue_stats()` and the
//!   endpoint's `StatsSnapshot`.
//!
//! One protocol, two storages: the crate-private `Ring` trait's provided
//! methods (claim, publish, pop, recycle, close, doorbell) are the protocol;
//! its implementors say where the words live — on the heap ([`RingQueue`]) or
//! in a [`ShmSegment`] (`SegmentRing`, both shm rings). One model checks
//! both (DESIGN.md §14), and the close that ends a threaded wire worker
//! ends the shm server's (`ShmServer::stop`).
//!
//! Safety model: a slot's payload is guarded by its sequence number — a
//! producer writes it *before* releasing the sequence, the consumer reads
//! it *after* acquiring it, and the head/tail counters give each side
//! exclusive ownership of the slot between those points.

use crate::csync::{self, AtomicBool, AtomicU32, AtomicUsize, CheckCell, Idle, Mutation};
use crate::shm::ShmSegment;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// Doorbell sleeps of a consumer that ended with work to do (a sleep
    /// that timed out idle is not counted).
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
    /// Consumer sleeps that ended with work to do.
    pub park_wakeups: u64,
}

/// The tail word's top bit: set by `Ring::close`. The rest of the word is
/// the claim index.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// A cache line of its own: producers never false-share with the consumer.
#[derive(Default)]
#[repr(C, align(64))]
struct Padded<T>(T);

/// The consumer's line: the pop index, and the closed copy it polls.
#[derive(Default)]
#[repr(C, align(64))]
struct ConsumerLine {
    head: AtomicUsize,
    closed: AtomicBool,
}

/// A consumer's longest doorbell sleep: a lost wake (or a peer dying
/// between publish and ring) costs at most this, never a hang.
pub(crate) const DOORBELL_WAIT: Duration = Duration::from_millis(20);

/// A futex eventcount: `waiters` counts consumers advertised as about to
/// sleep on `seq`. Valid all-zero; a segment peer may write any value into
/// either word, which costs a sleeper at most its bounded wait.
#[derive(Default)]
#[repr(C)]
pub(crate) struct Doorbell {
    seq: AtomicU32,
    waiters: AtomicU32,
}

impl Doorbell {
    /// After a publish (or a close): wake the consumer if one sleeps.
    #[inline(always)]
    pub(crate) fn ring(&self) {
        // Dekker with `sleep_unless`: either this load sees the sleeper's
        // advertisement, or the sleeper's re-check sees the publish.
        csync::fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.wake();
        }
    }

    #[cold]
    #[inline(never)]
    fn wake(&self) {
        // A sleeper between its re-check and its wait finds the word changed;
        // Release, so one whose snapshot read the bump sees the publish.
        if !csync::mutation(Mutation::DoorbellWithoutBump) {
            self.seq.fetch_add(1, Ordering::Release);
        }
        csync::futex_wake(&self.seq, u32::MAX);
    }

    /// Advertise, re-check `ready`, and unless it holds sleep on `seq` for
    /// at most `wait`; returns whether it slept. Callers re-check in a loop.
    pub(crate) fn sleep_unless(&self, ready: impl Fn() -> bool, wait: Duration) -> bool {
        let seen = self.seq.load(Ordering::Acquire);
        let early = csync::mutation(Mutation::DoorbellRecheckFirst).then(&ready);
        self.waiters.fetch_add(1, Ordering::Relaxed);
        csync::fence(Ordering::SeqCst);
        let sleep = !early.unwrap_or_else(&ready);
        if sleep {
            csync::futex_wait(&self.seq, seen, wait);
        }
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        sleep
    }
}

/// A ring's cursor block, valid all-zero: the claim index ([`CLOSED`]
/// folded in) on the producers' line, the consumer's line, and the
/// doorbell's, which only a sleeper writes, so producers' loads of it hit.
#[derive(Default)]
#[repr(C)]
pub(crate) struct Cursors {
    tail: Padded<AtomicUsize>,
    consumer: ConsumerLine,
    bell: Padded<Doorbell>,
}

/// The bounded MPSC protocol, in provided (statically dispatched) methods
/// over a storage: where the cursor block and sequence words live.
pub(crate) trait Ring {
    fn cursors(&self) -> &Cursors;
    /// Capacity − 1 (the capacity is a power of two).
    fn mask(&self) -> usize;
    /// The sequence word of slot `idx` (≤ mask): `pos` when free for the
    /// producer of turn `pos`, `pos + 1` once its payload is published,
    /// `pos + capacity` after the consumer recycles it.
    fn seq(&self, idx: usize) -> &AtomicUsize;

    /// Claim the next slot: `Ok(pos)` grants the caller exclusive write
    /// access to slot `pos & mask` until `publish(pos)`.
    #[inline]
    fn claim(&self) -> Result<usize, PushError<()>> {
        let tail_word = &self.cursors().tail.0;
        let mut word = tail_word.load(Ordering::Relaxed);
        // Seeded mutation (checker builds only): test the closed flag once,
        // apart from the claim — a push that passes the test and then
        // claims a slot after the close lands behind the consumer's final
        // index. `check::mutations` proves the model flags this.
        let apart = csync::mutation(Mutation::RingClosedApartFromClaim);
        if apart && word & CLOSED != 0 {
            return Err(PushError::Closed(()));
        }
        loop {
            if word & CLOSED != 0 && !apart {
                return Err(PushError::Closed(()));
            }
            let tail = word & !CLOSED;
            let seq = self.seq(tail & self.mask()).load(Ordering::Acquire);
            let diff = seq as isize - tail as isize;
            if diff == 0 {
                // The CAS expects the whole word, so it fails once a close
                // has set the flag: the claim and the close are ordered.
                match tail_word.compare_exchange_weak(
                    word,
                    word.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Ok(tail),
                    Err(w) => word = w,
                }
            } else if diff < 0 {
                return Err(PushError::Full(()));
            } else {
                word = tail_word.load(Ordering::Relaxed);
            }
        }
    }

    /// Publish the claimed slot `pos`, its payload written.
    #[inline]
    fn publish(&self, pos: usize) {
        let order = if csync::mutation(Mutation::RingPublishRelaxed) {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.seq(pos & self.mask())
            .store(pos.wrapping_add(1), order);
    }

    /// Single consumer: pop the next published slot, handing its index to
    /// `read` while the consumer owns it, then recycle it.
    #[inline]
    fn pop_with<R>(&self, read: impl FnOnce(usize) -> R) -> Option<R> {
        let head_word = &self.cursors().consumer.head;
        let head = head_word.load(Ordering::Relaxed);
        let seq = self.seq(head & self.mask());
        if seq.load(Ordering::Acquire) != head.wrapping_add(1) {
            return None;
        }
        head_word.store(head.wrapping_add(1), Ordering::Relaxed);
        let value = read(head & self.mask());
        seq.store(head.wrapping_add(self.mask() + 1), Ordering::Release);
        Some(value)
    }

    /// Whether `pop_with` would find a slot.
    fn ready(&self) -> bool {
        let head = self.cursors().consumer.head.load(Ordering::Relaxed);
        self.seq(head & self.mask()).load(Ordering::Acquire) == head.wrapping_add(1)
    }

    /// The consumer's doorbell: producers ring it after each publish.
    #[inline(always)]
    fn doorbell(&self) -> &Doorbell {
        &self.cursors().bell.0
    }

    /// Fail every later claim and wake the consumer. Every claim that
    /// succeeded came before this RMW on the one tail word, so a consumer
    /// that pops until `is_drained` misses none.
    fn close(&self) {
        self.cursors().tail.0.fetch_or(CLOSED, Ordering::Relaxed);
        self.cursors()
            .consumer
            .closed
            .store(true, Ordering::Release);
        self.doorbell().ring();
    }

    /// Whether the ring was closed; reads only the consumer's line.
    fn is_closed(&self) -> bool {
        self.cursors().consumer.closed.load(Ordering::Acquire)
    }

    /// Closed, and every slot claimed before it popped (one still being
    /// written keeps this false); until the close, reads one line.
    fn is_drained(&self) -> bool {
        let c = self.cursors();
        self.is_closed()
            && c.tail.0.load(Ordering::Acquire) == CLOSED | c.consumer.head.load(Ordering::Relaxed)
    }
}

struct Slot<T> {
    seq: AtomicUsize,
    val: CheckCell<MaybeUninit<T>>,
}

/// A bounded multi-producer / **single-consumer** ring queue.
///
/// The consumer side (`try_pop`, `park_consumer`) must only ever be
/// driven by one thread at a time — the wire worker that owns the ring.
pub struct RingQueue<T> {
    cursors: Cursors,
    slots: Box<[Slot<T>]>,
    mask: usize,
    stats: Arc<RingStats>,
}

// SAFETY: slot payloads are handed between threads through the sequence
// protocol documented on `Ring::seq`; all other state is atomics/locks.
unsafe impl<T: Send> Send for RingQueue<T> {}
unsafe impl<T: Send> Sync for RingQueue<T> {}

impl<T> Ring for RingQueue<T> {
    #[inline]
    fn cursors(&self) -> &Cursors {
        &self.cursors
    }

    #[inline]
    fn mask(&self) -> usize {
        self.mask
    }

    #[inline]
    fn seq(&self, idx: usize) -> &AtomicUsize {
        &self.slots[idx].seq
    }
}

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
            cursors: Cursors::default(),
            slots,
            mask: cap - 1,
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

    /// Elements currently resident, a slot still being written included
    /// (approximate under concurrency).
    pub fn depth(&self) -> usize {
        let tail = self.cursors.tail.0.load(Ordering::Relaxed) & !CLOSED;
        let head = self.cursors.consumer.head.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// The shared counters this ring publishes into.
    pub fn stats(&self) -> &Arc<RingStats> {
        &self.stats
    }

    /// Non-blocking push. On success the doorbell is rung: the consumer
    /// wakes if it sleeps.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let pos = match self.claim() {
            Ok(pos) => pos,
            Err(PushError::Full(())) => return Err(PushError::Full(value)),
            Err(PushError::Closed(())) => return Err(PushError::Closed(value)),
        };
        // SAFETY: the claim grants exclusive write access to this slot
        // until the publish below.
        let slot = &self.slots[pos & self.mask];
        slot.val.with_mut(|v| unsafe { (*v).write(value) });
        self.publish(pos);
        let head = self.cursors.consumer.head.load(Ordering::Relaxed);
        let depth = pos.wrapping_add(1).saturating_sub(head); // the consumer may be past `pos`
        self.stats.observe_depth(depth as u64);
        self.doorbell().ring();
        Ok(())
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
        // SAFETY: the acquired sequence proves the producer's write
        // completed, and the consumer owns the slot until its recycle.
        self.pop_with(|idx| {
            self.slots[idx]
                .val
                .with(|v| unsafe { (*v).assume_init_read() })
        })
    }

    /// Consumer only: sleep on the doorbell until a publish or the close
    /// (at most 20 ms; callers loop). A sleep that ends with work to do
    /// counts in `park_wakeups`.
    pub fn park_consumer(&self) {
        let woken = || self.ready() || self.is_closed();
        if self.doorbell().sleep_unless(woken, DOORBELL_WAIT) && woken() {
            self.stats.park_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Mark the ring closed: subsequent pushes fail, every push that
    /// succeeded will be popped, and a sleeping consumer wakes.
    pub fn close(&self) {
        Ring::close(self);
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
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// A ring at process-independent offsets in a shared segment: the cursor
/// block at byte `ctrl`, then from `base` slots of `stride` bytes, each
/// its sequence word and then its payload.
pub(crate) struct SegmentRing {
    seg: Arc<ShmSegment>,
    ctrl: usize,
    base: usize,
    stride: usize,
    mask: usize,
}

impl Ring for SegmentRing {
    #[inline]
    fn cursors(&self) -> &Cursors {
        // SAFETY: `new` checked the 64-aligned block lies in the mapping,
        // and the transparent `csync` atomics are valid for any bytes.
        unsafe { self.seg.at(self.ctrl) }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.mask
    }

    #[inline]
    fn seq(&self, idx: usize) -> &AtomicUsize {
        // SAFETY: as above, for every slot below the checked capacity.
        unsafe { self.seg.at(self.base + idx * self.stride) }
    }
}

impl SegmentRing {
    /// The ring at byte `ctrl` of `seg`, or `None` unless `capacity` (from
    /// a header the peer wrote) is a power of two ≥ 2 whose slots fit the
    /// mapping.
    pub(crate) fn new(
        seg: &Arc<ShmSegment>,
        ctrl: usize,
        stride: usize,
        capacity: usize,
    ) -> Option<SegmentRing> {
        let base = ctrl + std::mem::size_of::<Cursors>();
        let end = capacity.checked_mul(stride)?.checked_add(base)?;
        (capacity >= 2 && capacity.is_power_of_two() && end <= seg.len()).then(|| SegmentRing {
            seg: seg.clone(),
            ctrl,
            base,
            stride,
            mask: capacity - 1,
        })
    }

    /// Reset the cursors and number each slot for its first turn, before
    /// any peer can see the ring.
    pub(crate) fn init(&self) {
        let c = self.cursors();
        c.tail.0.store(0, Ordering::Relaxed);
        c.consumer.head.store(0, Ordering::Relaxed);
        c.consumer.closed.store(false, Ordering::Relaxed);
        c.bell.0.seq.store(0, Ordering::Relaxed);
        c.bell.0.waiters.store(0, Ordering::Relaxed);
        for idx in 0..=self.mask {
            self.seq(idx).store(idx, Ordering::Relaxed);
        }
    }

    /// Byte offset in the segment of the payload of the slot at `pos`.
    pub(crate) fn payload(&self, pos: usize) -> usize {
        self.base + (pos & self.mask) * self.stride + std::mem::size_of::<usize>()
    }

    /// Claim a slot, `fill` its payload (given its offset), publish it, and
    /// ring the doorbell. A full ring is backpressure: each retry calls
    /// `stall(probe)` — `probe` on every 1024th once the spin budget is
    /// spent, then a 100 µs sleep — and `stall` returning false gives up
    /// with `Full`. A closed ring fails at once with `Closed`.
    pub(crate) fn push(
        &self,
        fill: impl FnOnce(usize),
        mut stall: impl FnMut(bool) -> bool,
    ) -> Result<(), PushError<()>> {
        let (mut idle, mut tries) = (Idle::new(), 0u32);
        loop {
            match self.claim() {
                Ok(pos) => {
                    fill(self.payload(pos));
                    self.publish(pos);
                    self.doorbell().ring();
                    idle.done();
                    return Ok(());
                }
                Err(closed @ PushError::Closed(())) => return Err(closed),
                Err(PushError::Full(())) => {}
            }
            let spinning = idle.spin();
            let probe = !spinning && {
                tries += 1;
                tries.is_multiple_of(1024)
            };
            if !stall(probe) {
                return Err(PushError::Full(()));
            }
            if probe {
                std::thread::sleep(Duration::from_micros(100));
            } else if !spinning {
                csync::thread::yield_now();
            }
        }
    }

    /// Consumer only, after the close: give up the claimed slots not yet
    /// popped, whose producers are known gone, so the ring reads drained.
    pub(crate) fn abandon(&self) {
        let tail = self.cursors().tail.0.load(Ordering::Acquire) & !CLOSED;
        self.cursors().consumer.head.store(tail, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl Doorbell {
    /// Overwrite both words, as a peer sharing the segment may.
    pub(crate) fn scribble(&self, seq: u32, waiters: u32) {
        self.seq.store(seq, Ordering::Relaxed);
        self.waiters.store(waiters, Ordering::Relaxed);
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

    /// A `u64` ring the doorbell tests drive, on either storage.
    trait BellRing: Send + Sync {
        fn put(&self, v: u64);
        fn take(&self) -> Option<u64>;
        /// One consumer sleep on the doorbell.
        fn park(&self);
    }

    impl BellRing for RingQueue<u64> {
        fn put(&self, v: u64) {
            self.push(v).map_err(|_| ()).unwrap();
        }
        fn take(&self) -> Option<u64> {
            self.try_pop()
        }
        fn park(&self) {
            self.park_consumer();
        }
    }

    impl BellRing for SegmentRing {
        fn put(&self, v: u64) {
            // SAFETY: the claimed slot's payload is ours until the publish.
            let write = |off| unsafe { (self.seg.as_ptr().add(off) as *mut u64).write(v) };
            assert!(self.push(write, |_| true).is_ok());
        }
        fn take(&self) -> Option<u64> {
            // SAFETY: the popped slot is the consumer's until its recycle.
            let read =
                |idx| unsafe { (self.seg.as_ptr().add(self.payload(idx)) as *const u64).read() };
            self.pop_with(read)
        }
        fn park(&self) {
            let woken = || self.ready() || self.is_closed();
            self.doorbell().sleep_unless(woken, DOORBELL_WAIT);
        }
    }

    /// A ring of `cap` slots on each storage: the heap, a segment, and
    /// (with `scribbled`) a segment whose doorbell words a peer wrote —
    /// `waiters = u32::MAX`, so a sleeper's own advertisement wraps it to
    /// 0 and every wake is lost, and a garbage `seq`.
    fn storages(cap: usize, scribbled: bool) -> Vec<(&'static str, Arc<dyn BellRing>)> {
        let mut rows: Vec<(&'static str, Arc<dyn BellRing>)> =
            vec![("heap", Arc::new(RingQueue::<u64>::new(cap)))];
        if crate::shm::shm_supported() {
            for (name, scribble) in [("segment", false), ("segment, scribbled", true)] {
                if scribble && !scribbled {
                    continue;
                }
                let path = crate::shm::default_segment_path("bell");
                let len = std::mem::size_of::<Cursors>() + cap * 64;
                let seg = Arc::new(ShmSegment::create(&path, len).unwrap());
                let ring = SegmentRing::new(&seg, 0, 64, cap).unwrap();
                ring.init();
                if scribble {
                    ring.doorbell().scribble(0x5eed_f00d, u32::MAX);
                }
                rows.push((name, Arc::new(ring)));
            }
        }
        rows
    }

    #[test]
    fn doorbell_wakes_parked_consumer() {
        for (name, q) in storages(8, true) {
            let consumer = {
                let q = q.clone();
                std::thread::spawn(move || loop {
                    if let Some(v) = q.take() {
                        return v;
                    }
                    q.park();
                })
            };
            std::thread::sleep(Duration::from_millis(30));
            q.put(7);
            assert_eq!(consumer.join().unwrap(), 7, "{name}");
        }
        // The heap ring counts the sleep the push ended.
        let q = Arc::new(RingQueue::<u64>::new(8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                while q.try_pop().is_none() {
                    q.park_consumer();
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        q.put(7);
        consumer.join().unwrap();
        assert!(q.stats().snapshot().park_wakeups >= 1);
    }

    #[test]
    fn publish_racing_park_is_not_slept_through() {
        // Hammer the park/publish race: the consumer must never hang.
        for (_, q) in storages(2, false) {
            let consumer = {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while got < 10_000 {
                        if q.take().is_some() {
                            got += 1;
                        } else {
                            q.park();
                        }
                    }
                })
            };
            for _ in 0..10_000u64 {
                q.put(1);
            }
            consumer.join().unwrap();
        }
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
