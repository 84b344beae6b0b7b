//! The time-ordered event queue.
//!
//! Events are ordered by `(time, sequence number)`: the sequence number is a
//! monotonically increasing tiebreaker so that events scheduled for the same
//! instant fire in the order they were scheduled. This makes the whole
//! simulation deterministic — a property DESIGN.md lists as an invariant and
//! the integration tests check by comparing full event traces across runs.
//!
//! Internally the queue is one binary heap of 16-byte keys: a `u128` holding
//! the time in picoseconds in its high 64 bits, the seq in the next 40 and
//! the [`Slab`] slot of the event's target and payload in the low 24. One
//! integer compare therefore gives exactly the `(time, seq)` order (seqs are
//! unique, so the slot never decides), a sift moves keys rather than whole
//! events (a fabric event is ~120 bytes), and the earliest time is the
//! heap's top. A seq or slot past its field panics rather than reordering.
//! A plain heap suffices because a shard never holds many pending events: a
//! busy shard of the 2,048-node benchmark cell stays under 128.
//!
//! For the parallel engine each shard owns a queue constructed with
//! [`EventQueue::with_seq_stream`]: shard `s` of `S` draws sequence numbers
//! `first + s`, `first + s + S`, … so shards allocate from disjoint seq
//! classes and the global `(time, seq)` order is independent of how many
//! worker threads drive them.

use crate::engine::ComponentId;
use crate::slab::Slab;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a key holding the slab slot.
const SLOT_BITS: u32 = 24;
/// Bits of a key holding the seq, above the slot.
const SEQ_BITS: u32 = 40;

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

/// A deterministic min-queue of scheduled events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Packed `time | seq | slot` keys, earliest on top.
    heap: BinaryHeap<Reverse<u128>>,
    /// Target and payload of every resident event, by key slot.
    slab: Slab<(ComponentId, E)>,
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
            heap: BinaryHeap::new(),
            slab: Slab::new(),
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
    ///
    /// # Panics
    /// Panics if `ev.seq` is 2^40 or more, or if 2^24 events are pending.
    pub fn push_sequenced(&mut self, ev: ScheduledEvent<E>) {
        assert!(
            ev.seq < 1 << SEQ_BITS,
            "event seq {} exceeds the queue's 2^40 seq limit",
            ev.seq
        );
        self.scheduled_total += 1;
        let slot = self.slab.insert((ev.target, ev.payload));
        assert!(
            slot < 1 << SLOT_BITS,
            "event queue exceeds its 2^24 pending-event limit"
        );
        let key =
            ((ev.time.as_ps() as u128) << 64) | ((ev.seq as u128) << SLOT_BITS) | slot as u128;
        self.heap.push(Reverse(key));
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(key) = self.heap.pop()?;
        let (target, payload) = self.slab.take(key as u32 & ((1 << SLOT_BITS) - 1));
        Some(ScheduledEvent {
            time: SimTime::from_ps((key >> 64) as u64),
            seq: (key as u64) >> SLOT_BITS,
            target,
            payload,
        })
    }

    /// Instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse(key)| SimTime::from_ps((key >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (fired or pending).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
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

        // Three strided streams (as three shards of a parallel run would
        // stamp them) pushed into one queue, stream by stream: same-instant
        // events pop by seq, whichever stream and push order they came from.
        let mut streams: Vec<_> = (0..3)
            .map(|s| EventQueue::<()>::with_seq_stream(9 + s, 3))
            .collect();
        for s in [2, 0, 1] {
            for _ in 0..4 {
                let seq = streams[s].alloc_seq();
                q.push_sequenced(ScheduledEvent {
                    time: t,
                    seq,
                    target: cid(0),
                    payload: seq,
                });
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (9..21).collect::<Vec<_>>());
    }

    #[test]
    fn extreme_times_and_seqs_pop_in_order() {
        let top_seq = (1u64 << 40) - 1;
        let max = SimTime::MAX;
        let near = SimTime::from_ps(u64::MAX - 1);
        let mut q = EventQueue::new();
        for (time, seq) in [
            (max, 0),
            (near, top_seq),
            (max, top_seq),
            (SimTime::ZERO, top_seq),
            (near, 0),
            (max, top_seq - 1),
        ] {
            q.push_sequenced(ScheduledEvent {
                time,
                seq,
                target: cid(0),
                payload: (),
            });
        }
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, top_seq),
                (near, 0),
                (near, top_seq),
                (max, 0),
                (max, top_seq - 1),
                (max, top_seq),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "2^40 seq limit")]
    fn seq_past_key_field_panics() {
        let mut q = EventQueue::with_seq_stream(1 << 40, 1);
        q.push(SimTime::ZERO, cid(0), ());
    }

    #[test]
    fn sparse_far_future_events() {
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
        // monotonically increasing times.
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

    /// Differential check against a reference heap of `(time, seq)` pairs:
    /// identical pop sequence for a mix of clustered and sparse times.
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
