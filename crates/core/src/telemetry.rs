//! Op-level telemetry: lock-free tracing, latency histograms, and
//! deterministic event streams.
//!
//! The paper's central artifact is a *counter* — the target NIC counts
//! bytes/ops against a threshold and publishes completion through a
//! cache-line pointer — but counters alone cannot answer "where did this
//! put spend its time", nor prove that a seeded fault run is byte-for-byte
//! reproducible. This module adds the missing trace layer:
//!
//! * **Recorder.** [`Telemetry`] holds a small set of bounded
//!   [`RingQueue`] event buffers (the same Vyukov ring the wire datapath
//!   uses), one per producer-thread shard. Recording an event is an
//!   atomic sequence stamp plus one lock-free `try_push` — **zero mutexes
//!   on the hot path**. A full shard *drops* the event (telemetry must
//!   never exert backpressure on the datapath it observes) and counts the
//!   drop in [`TelemetrySnapshot::dropped`].
//! * **Lifecycle events.** Each put is stamped through its life:
//!   [`EventKind::Submit`] (op id allocated) → [`EventKind::RingEnqueue`]
//!   (fragment entered a wire ring) → [`EventKind::WireDeliver`] (fragment
//!   landed in the target mailbox) → [`EventKind::EpochComplete`] (the
//!   completing write) → [`EventKind::NotifyHandoff`] (the waiter took the
//!   completion pointer). [`EventKind::Retransmit`] marks every
//!   transmission of a fragment beyond its first.
//! * **Snapshot.** [`Telemetry::snapshot`] drains the shards (the only
//!   place a mutex appears — cold path), merges by sequence number, pairs
//!   events per op / per epoch into span latencies, and feeds fixed-bucket
//!   log-scale [`Histogram`]s with nearest-rank quantiles.
//! * **Export.** [`TelemetrySnapshot::to_json`] writes a self-describing
//!   JSON snapshot; [`TelemetrySnapshot::to_chrome_trace`] writes a Chrome
//!   `trace_event` file (`chrome://tracing` / Perfetto) for
//!   flamegraph-style inspection.
//! * **Determinism.** [`TelemetrySnapshot::canonical_sequence`] is the
//!   timestamp-free event stream. On the inline [`LossyNetwork`]
//!   transport every fault die is a pure function of the seed and the
//!   transmission sequence, so two runs with the same seed produce
//!   *identical* canonical sequences — the replay harness in
//!   `tests/telemetry_replay.rs` asserts exactly that.
//!
//! Telemetry is off by default ([`EndpointConfig::telemetry`]); the
//! disabled datapath carries only an `Option<Arc<Telemetry>>` that is
//! `None` — one predicted-not-taken branch per hook, no allocation, no
//! atomics.
//!
//! [`EndpointConfig::telemetry`]: crate::endpoint::EndpointConfig::telemetry
//! [`LossyNetwork`]: crate::transport_lossy::LossyNetwork
//! [`RingQueue`]: crate::ring::RingQueue

use crate::ring::RingQueue;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Event-buffer shards. Power of two; each producer thread hashes to one
/// shard, so with few threads every shard is effectively SPSC (the ring
/// itself is MPSC, so a hash collision is still safe).
const DEFAULT_SHARDS: usize = 4;

/// Events each shard buffers between snapshots. Beyond this, events drop
/// (counted) rather than stall the datapath.
pub const DEFAULT_EVENT_CAP: usize = 1 << 15;

/// Sub-buckets per power-of-two octave in a [`Histogram`] (2 bits of
/// mantissa). Bucket width at value `v` is roughly `v / 4`.
const SUB_BUCKETS: usize = 4;

/// Total histogram buckets: values 0..4 get exact buckets, then 62
/// octaves × 4 sub-buckets cover the rest of the `u64` range.
pub const NUM_BUCKETS: usize = 63 * SUB_BUCKETS;

/// A stage in a put's lifecycle (or a fault-driven extra transmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An initiator allocated an op id. `key`/`id` = initiator/op id,
    /// `arg` = payload length.
    Submit,
    /// A fragment of the op entered a wire ring (threaded transport
    /// only). `arg` = fragment offset.
    RingEnqueue,
    /// A fragment landed in the target mailbox. `arg` = fragment offset.
    WireDeliver,
    /// A transmission of a fragment beyond its first (retry round or
    /// worker re-enqueue). `arg` = attempt number.
    Retransmit,
    /// The completing write: an epoch crossed its threshold.
    /// `key`/`id` = mailbox vaddr/epoch, `arg` = valid bytes.
    EpochComplete,
    /// A waiter took the completion pointer. `key`/`id` = mailbox
    /// vaddr/epoch, `arg` = valid bytes.
    NotifyHandoff,
    /// An async-armed slot's completing write, or a CQ post's queue push,
    /// published to the async side. Recorded in the mailbox's
    /// completion funnel — under the mailbox lock, so seq order is stable
    /// for replay. `key`/`id` = mailbox vaddr/epoch, `arg` = valid bytes.
    NotifyWake,
    /// A completion-queue consumer drained a non-empty batch.
    /// `key` = 0, `id` = per-CQ poll sequence, `arg` = batch size.
    CqPoll,
    /// A rendezvous put reserved a bulk-region extent (initiator side).
    /// `key`/`id` = initiator/op id, `arg` = payload length.
    BulkReserve,
    /// The server gathered a bulk extent straight into the posted buffer
    /// (one copy). `key`/`id` = initiator/op id, `arg` = payload length.
    BulkDeliver,
    /// The extent returned to the free list after the delivery ack
    /// crossed the response ring. `key`/`id` = initiator/op id,
    /// `arg` = extent length.
    BulkRelease,
}

impl EventKind {
    /// Every kind, in lifecycle order (the order used by per-kind counts).
    pub const ALL: [EventKind; 11] = [
        EventKind::Submit,
        EventKind::RingEnqueue,
        EventKind::WireDeliver,
        EventKind::Retransmit,
        EventKind::EpochComplete,
        EventKind::NotifyHandoff,
        EventKind::NotifyWake,
        EventKind::CqPoll,
        EventKind::BulkReserve,
        EventKind::BulkDeliver,
        EventKind::BulkRelease,
    ];

    /// Stable snake_case name (JSON keys, trace event names).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::RingEnqueue => "ring_enqueue",
            EventKind::WireDeliver => "wire_deliver",
            EventKind::Retransmit => "retransmit",
            EventKind::EpochComplete => "epoch_complete",
            EventKind::NotifyHandoff => "notify_handoff",
            EventKind::NotifyWake => "notify_wake",
            EventKind::CqPoll => "cq_poll",
            EventKind::BulkReserve => "bulk_reserve",
            EventKind::BulkDeliver => "bulk_deliver",
            EventKind::BulkRelease => "bulk_release",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("in ALL")
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global record order (atomic stamp). Snapshots merge shards by this.
    pub seq: u64,
    /// Monotonic nanoseconds since the process telemetry epoch.
    pub ts_ns: u64,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Op-scoped kinds: the packed initiator (`nid << 32 | pid`).
    /// Epoch-scoped kinds ([`EventKind::EpochComplete`],
    /// [`EventKind::NotifyHandoff`]): the mailbox vaddr.
    pub key: u64,
    /// Op-scoped kinds: the op id. Epoch-scoped kinds: the epoch number.
    pub id: u64,
    /// Kind-specific detail — see [`EventKind`].
    pub arg: u64,
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first telemetry use in this process.
pub fn now_ns() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

/// Stable small integer per thread, used to pick an event shard.
fn thread_shard_hint() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v
    })
}

/// Pack an initiator address into an op event key (`nid << 32 | pid`) —
/// the same packing `OpKey` uses, so events and dedup keys line up.
pub fn initiator_key(nid: u32, pid: u32) -> u64 {
    ((nid as u64) << 32) | pid as u64
}

/// Record an event iff telemetry is enabled. The disabled path is a
/// single `None` check — this is the hook every datapath layer calls.
#[inline(always)]
pub fn record(t: &Option<Arc<Telemetry>>, kind: EventKind, key: u64, id: u64, arg: u64) {
    if let Some(t) = t {
        t.record(kind, key, id, arg);
    }
}

/// The per-network event recorder. Shared (`Arc`) by every endpoint,
/// initiator, mailbox, and wire worker of one fabric so a single
/// [`snapshot`](Telemetry::snapshot) sees the whole put lifecycle.
pub struct Telemetry {
    shards: Box<[RingQueue<Event>]>,
    shard_mask: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Events drained from the rings by previous snapshots. Snapshots are
    /// cumulative; this mutex is the recorder's only lock and is never
    /// touched by `record`.
    drained: Mutex<Vec<Event>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A recorder with the default shard count and per-shard capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SHARDS, DEFAULT_EVENT_CAP)
    }

    /// A recorder with `shards` event buffers (rounded up to a power of
    /// two) of `cap` events each.
    pub fn with_capacity(shards: usize, cap: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Box<[RingQueue<Event>]> = (0..n).map(|_| RingQueue::new(cap)).collect();
        Telemetry {
            shard_mask: n - 1,
            shards,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drained: Mutex::new(Vec::new()),
        }
    }

    /// Record one event: sequence stamp, timestamp, lock-free push.
    /// Drops (and counts) when the calling thread's shard is full.
    #[inline]
    pub fn record(&self, kind: EventKind, key: u64, id: u64, arg: u64) {
        let ev = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: now_ns(),
            kind,
            key,
            id,
            arg,
        };
        let shard = &self.shards[thread_shard_hint() & self.shard_mask];
        if shard.try_push(ev).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped so far because a shard was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain every shard and build a cumulative snapshot (all events
    /// recorded since the recorder was created, merged in record order).
    ///
    /// This is the cold path: it takes the drain mutex (guaranteeing the
    /// rings' single-consumer contract) while producers keep recording
    /// lock-free.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut drained = self.drained.lock();
        for shard in self.shards.iter() {
            while let Some(ev) = shard.try_pop() {
                drained.push(ev);
            }
        }
        drained.sort_unstable_by_key(|e| e.seq);
        TelemetrySnapshot::build(drained.clone(), self.dropped())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("shards", &self.shards.len())
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Fixed-bucket log-scale latency histogram.
///
/// Values 0–3 ns get exact buckets; above that each power-of-two octave
/// splits into four sub-buckets, so relative bucket width is a
/// constant ~25 % across the whole `u64` range. Quantiles are
/// nearest-rank: the reported value is the lower bound of the bucket
/// containing the rank-th smallest sample, hence always within one bucket
/// width of the exact sorted-sample quantile (property-tested).
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; NUM_BUCKETS]),
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Bucket index for `v` (monotone in `v`).
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (exp - 2)) & 0x3) as usize;
        (exp - 1) * SUB_BUCKETS + sub
    }

    /// Inclusive lower bound of bucket `idx`.
    pub fn bucket_lower(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let exp = idx / SUB_BUCKETS + 1;
        let sub = (idx % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + sub) << (exp - 2)
    }

    /// Width of bucket `idx` (upper bound − lower bound).
    pub fn bucket_width(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return 1;
        }
        1u64 << (idx / SUB_BUCKETS - 1)
    }

    /// Add one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Fold another histogram in; total count is the sum of both counts
    /// (property-tested).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Nearest-rank quantile, `q` in (0, 1]: the lower bound of the
    /// bucket holding the `ceil(q · count)`-th smallest sample. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower(idx);
            }
        }
        self.max
    }

    /// `(lower_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_lower(i), *c))
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

/// One paired span (a latency between two lifecycle events), feeding one
/// histogram in the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Submit` → first `RingEnqueue` of the op (threaded transport).
    SubmitToEnqueue,
    /// `Submit` → first `WireDeliver` of the op.
    SubmitToDeliver,
    /// `EpochComplete` → `NotifyHandoff` of the epoch (the completion
    /// pointer's publish-to-take latency).
    CompleteToHandoff,
}

impl Span {
    /// Every span, in lifecycle order.
    pub const ALL: [Span; 3] = [
        Span::SubmitToEnqueue,
        Span::SubmitToDeliver,
        Span::CompleteToHandoff,
    ];

    /// Stable snake_case name (JSON keys, trace rows, tables).
    pub fn as_str(self) -> &'static str {
        match self {
            Span::SubmitToEnqueue => "submit_to_enqueue",
            Span::SubmitToDeliver => "submit_to_deliver",
            Span::CompleteToHandoff => "complete_to_handoff",
        }
    }
}

/// A drained, merged, paired view of everything the recorder saw.
pub struct TelemetrySnapshot {
    /// Every event in record (sequence) order.
    pub events: Vec<Event>,
    /// Events lost to full shards (see drop-on-full policy, DESIGN.md §9).
    pub dropped: u64,
    /// Per-kind event counts, indexed like [`EventKind::ALL`].
    pub counts: [u64; EventKind::ALL.len()],
    /// Span latency histograms, indexed like [`Span::ALL`].
    pub spans: [Histogram; Span::ALL.len()],
}

impl TelemetrySnapshot {
    fn build(events: Vec<Event>, dropped: u64) -> Self {
        let mut counts = [0u64; EventKind::ALL.len()];
        let mut spans: [Histogram; Span::ALL.len()] =
            [Histogram::new(), Histogram::new(), Histogram::new()];
        // First-occurrence timestamps, keyed per op (Submit/Enqueue/
        // Deliver) or per epoch (Complete). Duplicates and retransmits
        // pair against the *first* stamp: the span measures when the
        // stage first happened, not when a replay re-ran it.
        let mut submit: HashMap<(u64, u64), u64> = HashMap::new();
        let mut enqueued: HashMap<(u64, u64), u64> = HashMap::new();
        let mut delivered: HashMap<(u64, u64), u64> = HashMap::new();
        let mut completed: HashMap<(u64, u64), u64> = HashMap::new();
        for ev in &events {
            counts[ev.kind.index()] += 1;
            let key = (ev.key, ev.id);
            match ev.kind {
                EventKind::Submit => {
                    submit.entry(key).or_insert(ev.ts_ns);
                }
                EventKind::RingEnqueue => {
                    if enqueued.insert(key, ev.ts_ns).is_none() {
                        if let Some(&t0) = submit.get(&key) {
                            spans[0].observe(ev.ts_ns.saturating_sub(t0));
                        }
                    }
                }
                EventKind::WireDeliver => {
                    if delivered.insert(key, ev.ts_ns).is_none() {
                        if let Some(&t0) = submit.get(&key) {
                            spans[1].observe(ev.ts_ns.saturating_sub(t0));
                        }
                    }
                }
                EventKind::Retransmit => {}
                EventKind::EpochComplete => {
                    completed.entry(key).or_insert(ev.ts_ns);
                }
                EventKind::NotifyHandoff => {
                    if let Some(&t0) = completed.get(&key) {
                        spans[2].observe(ev.ts_ns.saturating_sub(t0));
                    }
                }
                // Counted, no span pairing: wakes share the EpochComplete
                // timestamp (same funnel), CQ polls are consumer-side, and
                // the bulk lifecycle is already bracketed by Submit /
                // WireDeliver on the same (initiator, op) key.
                EventKind::NotifyWake
                | EventKind::CqPoll
                | EventKind::BulkReserve
                | EventKind::BulkDeliver
                | EventKind::BulkRelease => {}
            }
        }
        TelemetrySnapshot {
            events,
            dropped,
            counts,
            spans,
        }
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The histogram for one span.
    pub fn span(&self, span: Span) -> &Histogram {
        let idx = Span::ALL.iter().position(|s| *s == span).expect("in ALL");
        &self.spans[idx]
    }

    /// The timestamp-free event stream `(kind, key, id, arg)` in record
    /// order — the object the deterministic-replay harness compares.
    /// Timestamps (and nothing else) may differ between two runs with the
    /// same fault seed on the inline transport.
    pub fn canonical_sequence(&self) -> Vec<(EventKind, u64, u64, u64)> {
        self.events
            .iter()
            .map(|e| (e.kind, e.key, e.id, e.arg))
            .collect()
    }

    /// Self-describing JSON snapshot (schema `rvma-telemetry-v1`):
    /// per-kind counts, drop counter, and per-span histograms with
    /// nearest-rank quantiles and non-empty `[lower_ns, count]` buckets.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":\"rvma-telemetry-v1\"");
        push_field(&mut s, "events", self.events.len() as u64);
        push_field(&mut s, "dropped", self.dropped);
        s.push_str(",\"counts\":{");
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", kind.as_str(), self.counts[i]));
        }
        s.push_str("},\"spans\":{");
        for (i, span) in Span::ALL.iter().enumerate() {
            let h = &self.spans[i];
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{{", span.as_str()));
            s.push_str(&format!("\"count\":{}", h.count()));
            push_field(&mut s, "min_ns", h.min());
            push_field(&mut s, "max_ns", h.max());
            push_field(&mut s, "mean_ns", h.mean());
            push_field(&mut s, "p50_ns", h.quantile(0.50));
            push_field(&mut s, "p90_ns", h.quantile(0.90));
            push_field(&mut s, "p99_ns", h.quantile(0.99));
            s.push_str(",\"buckets\":[");
            for (j, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{lo},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Chrome `trace_event` JSON (open in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev)): one instant event per raw
    /// lifecycle event on the kind's own track, plus one duration (`ph:X`)
    /// slice per paired op span. Timestamps are microseconds with
    /// nanosecond fractions, relative to the process telemetry epoch.
    pub fn to_chrome_trace(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &mut String, item: String| {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&item);
        };
        for ev in &self.events {
            emit(
                &mut s,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"rvma\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"key\":{},\"id\":{},\"arg\":{}}}}}",
                    ev.kind.as_str(),
                    micros(ev.ts_ns),
                    ev.kind.index() + 1,
                    ev.key,
                    ev.id,
                    ev.arg
                ),
            );
        }
        // Duration slices: submit → first deliver per op, complete →
        // handoff per epoch. Rebuilt here from the event list so the
        // trace stays a pure function of `events`.
        let mut op_starts: HashMap<(u64, u64), u64> = HashMap::new();
        let mut ep_starts: HashMap<(u64, u64), u64> = HashMap::new();
        let mut seen_end: HashSet<(bool, u64, u64)> = HashSet::new();
        for ev in &self.events {
            let key = (ev.key, ev.id);
            match ev.kind {
                EventKind::Submit => {
                    op_starts.entry(key).or_insert(ev.ts_ns);
                }
                EventKind::EpochComplete => {
                    ep_starts.entry(key).or_insert(ev.ts_ns);
                }
                EventKind::WireDeliver | EventKind::NotifyHandoff => {
                    let is_op = ev.kind == EventKind::WireDeliver;
                    let starts = if is_op { &op_starts } else { &ep_starts };
                    if seen_end.insert((is_op, ev.key, ev.id)) {
                        if let Some(&t0) = starts.get(&key) {
                            let name = if is_op {
                                Span::SubmitToDeliver.as_str()
                            } else {
                                Span::CompleteToHandoff.as_str()
                            };
                            emit(
                                &mut s,
                                format!(
                                    "{{\"name\":\"{}\",\"cat\":\"rvma\",\"ph\":\"X\",\
                                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                                     \"args\":{{\"key\":{},\"id\":{}}}}}",
                                    name,
                                    micros(t0),
                                    micros(ev.ts_ns.saturating_sub(t0)),
                                    10 + (ev.id % 8),
                                    ev.key,
                                    ev.id
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        s.push_str("]}");
        s
    }
}

impl std::fmt::Debug for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySnapshot")
            .field("events", &self.events.len())
            .field("dropped", &self.dropped)
            .field("counts", &self.counts)
            .finish()
    }
}

fn push_field(s: &mut String, name: &str, v: u64) {
    s.push_str(&format!(",\"{name}\":{v}"));
}

/// Nanoseconds → trace microseconds with fractional digits.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(idx <= prev + 1, "index skipped at {v}");
            prev = idx;
            let lo = Histogram::bucket_lower(idx);
            let w = Histogram::bucket_width(idx);
            assert!(lo <= v && v < lo + w, "{v} outside [{lo}, {})", lo + w);
        }
        assert!(Histogram::bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // p50 sample is 50; bucket [48,56) has lower bound 48, width 8.
        let p50 = h.quantile(0.50);
        assert!(p50 <= 50 && 50 < p50 + 8, "p50 {p50}");
        let p100 = h.quantile(1.0);
        assert!(p100 <= 100);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50 {
            a.observe(v);
        }
        for v in 1000..1100 {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 150);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 1099);
    }

    #[test]
    fn record_pairs_spans_and_counts() {
        let t = Telemetry::new();
        t.record(EventKind::Submit, 7, 1, 64);
        t.record(EventKind::WireDeliver, 7, 1, 0);
        t.record(EventKind::EpochComplete, 9, 0, 64);
        t.record(EventKind::NotifyHandoff, 9, 0, 64);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.count(EventKind::Submit), 1);
        assert_eq!(snap.span(Span::SubmitToDeliver).count(), 1);
        assert_eq!(snap.span(Span::CompleteToHandoff).count(), 1);
        assert_eq!(snap.span(Span::SubmitToEnqueue).count(), 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn duplicate_delivers_pair_first_only() {
        let t = Telemetry::new();
        t.record(EventKind::Submit, 1, 1, 8);
        t.record(EventKind::WireDeliver, 1, 1, 0);
        t.record(EventKind::WireDeliver, 1, 1, 0); // replayed fragment
        let snap = t.snapshot();
        assert_eq!(snap.count(EventKind::WireDeliver), 2);
        assert_eq!(snap.span(Span::SubmitToDeliver).count(), 1);
    }

    #[test]
    fn snapshot_is_cumulative() {
        let t = Telemetry::new();
        t.record(EventKind::Submit, 1, 1, 8);
        assert_eq!(t.snapshot().events.len(), 1);
        t.record(EventKind::Submit, 1, 2, 8);
        assert_eq!(t.snapshot().events.len(), 2);
    }

    #[test]
    fn full_shard_drops_and_counts() {
        let t = Telemetry::with_capacity(1, 4);
        for i in 0..10 {
            t.record(EventKind::Submit, 0, i, 0);
        }
        assert_eq!(t.dropped(), 6);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Drained capacity frees the shard for new events.
        t.record(EventKind::Submit, 0, 99, 0);
        assert_eq!(t.snapshot().events.len(), 5);
    }

    #[test]
    fn canonical_sequence_strips_timestamps() {
        let t = Telemetry::new();
        t.record(EventKind::Submit, 3, 5, 16);
        let seq = t.snapshot().canonical_sequence();
        assert_eq!(seq, vec![(EventKind::Submit, 3, 5, 16)]);
    }

    #[test]
    fn json_and_trace_have_required_structure() {
        let t = Telemetry::new();
        t.record(EventKind::Submit, 1, 1, 8);
        t.record(EventKind::WireDeliver, 1, 1, 0);
        let snap = t.snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"rvma-telemetry-v1\""));
        assert!(json.contains("\"counts\""));
        assert!(json.contains("\"submit_to_deliver\""));
        let trace = snap.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.ends_with("]}"));
    }
}
