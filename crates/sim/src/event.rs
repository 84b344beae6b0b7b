//! The time-ordered event queue.
//!
//! Events are ordered by `(time, sequence number)`: the sequence number is a
//! monotonically increasing tiebreaker so that events scheduled for the same
//! instant fire in the order they were scheduled. This makes the whole
//! simulation deterministic — a property DESIGN.md lists as an invariant and
//! the integration tests check by comparing full event traces across runs.
//!
//! Internally the queue is a bucketed *calendar queue* (Brown 1988): pending
//! events hash into `nbuckets` day-slots by `time >> width_shift`, the pop
//! cursor walks days forward, and each bucket keeps its residents in a small
//! binary heap so same-day events still pop in exact `(time, seq)` order.
//! At simulator event densities push and pop are O(1) amortized versus the
//! O(log n) of one global heap, and the extracted order is identical — the
//! differential tests below drive both against each other.
//!
//! The heaps hold only 24-byte `(time, seq, slot)` keys; each event's target
//! and payload wait in a per-queue [`Slab`] under `slot` until the pop. A
//! heap sift therefore moves keys, never whole events (a fabric event is
//! ~120 bytes), and a resize rehashes keys only.
//!
//! For the parallel engine each shard owns a queue constructed with
//! [`EventQueue::with_seq_stream`]: shard `s` of `S` draws sequence numbers
//! `first + s`, `first + s + S`, … so shards allocate from disjoint seq
//! classes and the global `(time, seq)` order is independent of how many
//! worker threads drive them.

use crate::engine::ComponentId;
use crate::slab::Slab;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event entering or leaving the queue: fire `payload` at `time` on
/// `target`.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// Absolute simulated instant at which the event fires.
    pub time: SimTime,
    /// Insertion sequence number; tiebreaker for same-instant events.
    pub seq: u64,
    /// Component the event is delivered to.
    pub target: ComponentId,
    /// The event payload.
    pub payload: E,
}

/// A bucket resident: the event's order key and the slab slot holding its
/// target and payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Initial number of day-buckets (power of two).
const INITIAL_BUCKETS: usize = 4;
/// Hard cap on bucket count; past this, buckets just get deeper (still a
/// heap per bucket, so correctness is unaffected).
const MAX_BUCKETS: usize = 1 << 14;
/// Initial bucket width: 2^13 ps ≈ 8 ns, on the order of one packet
/// serialization at 100 Gbps.
const INITIAL_WIDTH_SHIFT: u32 = 13;

/// A deterministic min-queue of scheduled events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Day-buckets of keys; `buckets.len()` is a power of two.
    buckets: Vec<BinaryHeap<Key>>,
    /// Target and payload of every resident event, by key slot.
    slab: Slab<(ComponentId, E)>,
    /// Bucket width is `1 << width_shift` picoseconds.
    width_shift: u32,
    /// The day (`time >> width_shift`) the pop cursor is currently on. Never
    /// exceeds the day of any resident event.
    current_day: u64,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// Distance between consecutive handed-out sequence numbers.
    seq_stride: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the dense seq stream `0, 1, 2, …`.
    pub fn new() -> Self {
        Self::with_seq_stream(0, 1)
    }

    /// An empty queue handing out sequence numbers `first, first + stride,
    /// first + 2·stride, …` — used by the parallel engine to give each shard
    /// a disjoint seq class.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn with_seq_stream(first: u64, stride: u64) -> Self {
        assert!(stride > 0, "seq stride must be positive");
        EventQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            slab: Slab::new(),
            width_shift: INITIAL_WIDTH_SHIFT,
            current_day: 0,
            next_seq: first,
            seq_stride: stride,
            scheduled_total: 0,
        }
    }

    /// Hand out the next sequence number from this queue's stream without
    /// enqueueing anything (the parallel engine uses this to stamp events
    /// that travel to another shard's queue).
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += self.seq_stride;
        seq
    }

    /// Schedule `payload` to fire on `target` at absolute instant `time`.
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: E) {
        let seq = self.alloc_seq();
        self.push_sequenced(ScheduledEvent {
            time,
            seq,
            target,
            payload,
        });
    }

    /// Enqueue an event whose sequence number was assigned elsewhere (setup
    /// events and cross-shard arrivals in the parallel engine).
    pub fn push_sequenced(&mut self, ev: ScheduledEvent<E>) {
        self.scheduled_total += 1;
        if self.slab.len() + 1 > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
        // A peek may have parked the cursor on a far-future day; a later
        // push below it (legal after a deadline-bounded run) pulls it back
        // so the day walk never skips an earlier event.
        self.current_day = self.current_day.min(ev.time.as_ps() >> self.width_shift);
        let idx = self.bucket_of(ev.time);
        let slot = self.slab.insert((ev.target, ev.payload));
        self.buckets[idx].push(Key {
            time: ev.time,
            seq: ev.seq,
            slot,
        });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let idx = self.min_bucket()?;
        let key = self.buckets[idx].pop().expect("min_bucket found an event");
        let (target, payload) = self.slab.take(key.slot);
        Some(ScheduledEvent {
            time: key.time,
            seq: key.seq,
            target,
            payload,
        })
    }

    /// Instant of the earliest pending event.
    ///
    /// Takes `&mut self` because locating the minimum may advance the
    /// calendar's day cursor (the answer itself is not modified).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let idx = self.min_bucket()?;
        Some(self.buckets[idx].peek().expect("non-empty bucket").time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Total number of events ever scheduled (fired or pending).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        ((time.as_ps() >> self.width_shift) & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Find the bucket holding the earliest event and park `current_day` on
    /// that event's day. Walks day-by-day from the cursor; after a full lap
    /// without a hit (a gap wider than one calendar year) falls back to a
    /// direct scan of all buckets.
    fn min_bucket(&mut self) -> Option<usize> {
        if self.slab.is_empty() {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        for _ in 0..nbuckets {
            let idx = (self.current_day & (nbuckets - 1)) as usize;
            if let Some(key) = self.buckets[idx].peek() {
                if key.time.as_ps() >> self.width_shift == self.current_day {
                    return Some(idx);
                }
            }
            self.current_day += 1;
        }
        // Sparse region: scan every bucket head for the global minimum.
        let (idx, key) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.peek().map(|k| (i, k)))
            .min_by_key(|(_, k)| (k.time, k.seq))
            .expect("len > 0 but all buckets empty");
        self.current_day = key.time.as_ps() >> self.width_shift;
        Some(idx)
    }

    /// Double the bucket count and re-fit the bucket width to the observed
    /// event density, then rehash all resident keys (payloads stay in the
    /// slab). Deterministic: depends only on the resident set.
    fn resize(&mut self) {
        let new_n = (self.buckets.len() * 2).min(MAX_BUCKETS);
        let mut all: Vec<Key> = Vec::with_capacity(self.slab.len());
        for b in &mut self.buckets {
            all.extend(b.drain());
        }
        if let (Some(min), Some(max)) = (
            all.iter().map(|e| e.time.as_ps()).min(),
            all.iter().map(|e| e.time.as_ps()).max(),
        ) {
            if max > min && all.len() > 1 {
                // Brown's rule of thumb: width ≈ a few times the mean gap,
                // so a same-density stream keeps ~O(1) events per day.
                let mean_gap = (max - min) / all.len() as u64;
                let target = mean_gap.saturating_mul(4).max(1);
                self.width_shift = (64 - target.leading_zeros()).clamp(1, 40);
            }
        }
        self.buckets = (0..new_n).map(|_| BinaryHeap::new()).collect();
        // Re-anchor the cursor on the earliest resident's day (the width may
        // have changed, so recompute rather than shift the old cursor).
        self.current_day = all
            .iter()
            .map(|e| e.time.as_ps() >> self.width_shift)
            .min()
            .unwrap_or(0);
        for key in all {
            let idx = self.bucket_of(key.time);
            self.buckets[idx].push(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn cid(i: usize) -> ComponentId {
        ComponentId::from_raw(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), cid(0), "c");
        q.push(SimTime::from_ns(10), cid(0), "a");
        q.push(SimTime::from_ns(20), cid(0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, cid(0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_tracks_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(50), cid(1), ());
        q.push(SimTime::from_ns(7), cid(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(50)));
    }

    #[test]
    fn counts() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, cid(0), ());
        q.push(SimTime::ZERO, cid(0), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn strided_seq_stream() {
        let mut q = EventQueue::<()>::with_seq_stream(7, 16);
        assert_eq!(q.alloc_seq(), 7);
        assert_eq!(q.alloc_seq(), 23);
        q.push(SimTime::ZERO, cid(0), ());
        let ev = q.pop().unwrap();
        assert_eq!(ev.seq, 39);
    }

    #[test]
    fn sequenced_pushes_interleave_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(1);
        for seq in [5u64, 1, 3] {
            q.push_sequenced(ScheduledEvent {
                time: t,
                seq,
                target: cid(0),
                payload: seq,
            });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn sparse_far_future_events() {
        // Gaps far wider than a calendar year exercise the direct-scan path.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(40), cid(0), "later");
        q.push(SimTime::from_ps(3), cid(0), "soon");
        q.push(SimTime::from_secs(90), cid(0), "latest");
        assert_eq!(q.pop().unwrap().payload, "soon");
        assert_eq!(q.pop().unwrap().payload, "later");
        assert_eq!(q.pop().unwrap().payload, "latest");
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Simulation-shaped usage: pops interleaved with pushes at
        // monotonically increasing times, across several resizes.
        let mut q = EventQueue::new();
        let mut reference = Vec::new();
        let mut t = 0u64;
        for i in 0..2000u64 {
            t += (i * 2654435761) % 5000;
            q.push(SimTime::from_ps(t), cid(0), i);
            reference.push((SimTime::from_ps(t), i));
            if i % 3 == 0 {
                let ev = q.pop().unwrap();
                reference.sort();
                let (rt, ri) = reference.remove(0);
                assert_eq!((ev.time, ev.payload), (rt, ri));
            }
        }
        reference.sort();
        for (rt, ri) in reference {
            let ev = q.pop().unwrap();
            assert_eq!((ev.time, ev.payload), (rt, ri));
        }
        assert!(q.is_empty());
    }

    /// Differential check against one global binary heap: identical pop
    /// sequence for an adversarial mix of clustered and sparse times.
    #[test]
    fn matches_reference_heap() {
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
        let mut seq = 0u64;
        for round in 0..50 {
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Cluster most events near "now", some far out.
                let far = if x.is_multiple_of(7) {
                    10_000_000
                } else {
                    3_000
                };
                let t = (round * 10_000) + (x % far);
                q.push(SimTime::from_ps(t), cid(0), seq);
                heap.push(Reverse((SimTime::from_ps(t), seq)));
                seq += 1;
            }
            for _ in 0..20 {
                let a = q.pop().map(|e| (e.time, e.seq, e.payload));
                let b = heap.pop().map(|Reverse((t, s))| (t, s, s));
                assert_eq!(a, b);
            }
        }
        loop {
            let a = q.pop().map(|e| (e.time, e.seq, e.payload));
            let b = heap.pop().map(|Reverse((t, s))| (t, s, s));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
