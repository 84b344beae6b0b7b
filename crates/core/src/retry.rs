//! The reliable-delivery layer: fault modelling, receiver-side dedup, and
//! initiator-side retransmission.
//!
//! RVMA (like RDMA) is specified over a **reliable** fabric: threshold
//! counting is only sound when fragments are neither dropped (the epoch
//! never completes) nor duplicated (the epoch completes *early*). Real HPC
//! NICs get that guarantee from a link-level reliability layer — per-packet
//! acks, retransmit timers, and receiver dedup windows. This module is that
//! layer, rendered in software, in three pieces:
//!
//! * [`FaultModel`] / [`FaultInjector`] — a seeded, per-fragment fault
//!   source (drop, duplicate, reorder, delay, endpoint crash) with common
//!   counters in [`FaultStats`], shared by [`LossyNetwork`] (which exposes
//!   the loss to its initiator) and by the link layer of the threaded and
//!   shared-memory wire workers (which hides it — see
//!   [the link discipline](#the-link-discipline)).
//! * [`DedupWindow`] — the receiver-side half: a bounded memory of
//!   `(initiator, op_id, offset)` triples already accepted by a mailbox.
//!   A fragment's offset within its operation *is* its sequence number
//!   (fragments of one put cover disjoint offsets), so replaying any
//!   fragment — including a duplicated *final* fragment that would
//!   otherwise complete an epoch early — is detected and dropped without
//!   touching the threshold counters. Enabled per endpoint via
//!   [`EndpointConfig::dedup_window`](crate::endpoint::EndpointConfig).
//! * [`ReliableInitiator`] / [`RetryConfig`] — the initiator-side half
//!   over a [`LossyNetwork`]: fragments that produce no delivery ack are
//!   retransmitted in rounds with configurable backoff until the retry
//!   budget is spent ([`RvmaError::RetryExhausted`]); a NACK aborts the
//!   operation immediately. Receiver dedup absorbs the duplicates that
//!   retransmission inevitably creates, which is why
//!   [`LossyNetwork::reliable_initiator`] requires it to be enabled.
//!
//! # The link discipline
//!
//! [`AsyncNetwork`](crate::transport_threaded::AsyncNetwork) and
//! [`ShmServer`](crate::transport_shm::ShmServer) built with a non-trivial
//! [`EndpointConfig::fault_model`](crate::endpoint::EndpointConfig) put one
//! crate-private gate (`LinkFaults`) between each wire worker's queue and
//! the endpoint. Both backends run the same wire worker (`crate::wire`),
//! which calls the gate once per wire unit; what the link does to a
//! frame is decided here, once:
//!
//! * **zero-length units bypass the dice** — no payload a fabric could
//!   corrupt;
//! * **the attempt that reaches
//!   [`retry_budget`](crate::endpoint::EndpointConfig) delivers
//!   fault-free** — bounded retransmission, so neither a flush nor the
//!   teardown drain can hang (a real NIC would declare the link dead; the
//!   crash fault models that path);
//! * **drop / defer = retransmit**: the unit is re-enqueued behind its
//!   queue's younger traffic at `attempt + 1` (which is also how reorder
//!   and delay manifest). It counts as pending — on its own worker, which
//!   holds flush markers behind it, and network-wide — from *before* the
//!   re-enqueue until the retried copy has been fully processed, so a
//!   flush never sees a transient zero;
//! * **duplicate = two deliveries, one disposition** — one `WireDeliver`
//!   event, one latency charge, one ack; the receiver's dedup window
//!   absorbs the copy;
//! * **crash = detach the destination**, so the crashing unit's retries
//!   and all later traffic NACK `NoSuchMailbox` instead of hanging.
//!
//! The unit is whatever crosses the wire as one message: an MTU fragment,
//! or a whole rendezvous descriptor. DESIGN.md §5 names the test that pins
//! each rule.
//!
//! The recovery half for the *application* — rotating a partially-filled
//! epoch after a timeout instead of wedging — lives in
//! [`Window::recover_timeout`](crate::window::Window::recover_timeout) and
//! [`MpixWindow::fence_recover`](crate::mpix::MpixWindow::fence_recover),
//! mapping the paper's Secs. IV-E/IV-F fault-tolerance story (`MPIX_Rewind`
//! over the retired-buffer ring) onto fabric faults.
//!
//! [`LossyNetwork`]: crate::transport_lossy::LossyNetwork
//! [`LossyNetwork::reliable_initiator`]: crate::transport_lossy::LossyNetwork::reliable_initiator
//! [`RvmaError::RetryExhausted`]: crate::error::RvmaError::RetryExhausted

use crate::addr::{NodeAddr, VirtAddr};
use crate::endpoint::{mtu_ranges, DeliverResult, EndpointConfig, Fragment};
use crate::error::{Result, RvmaError};
use crate::mailbox::OpKey;
use crate::telemetry::{self, EventKind, Telemetry};
use crate::transport_lossy::{LossyNetwork, TransmitOutcome};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default receiver-side dedup capacity (distinct operations remembered per
/// mailbox) used when a caller wants dedup "on" without tuning it.
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Default per-fragment transmit budget of the reliable paths (initiator
/// retransmit rounds on [`LossyNetwork`], link-level retransmissions on the
/// fault-injected `AsyncNetwork`). At a 5 % loss rate the chance a fragment
/// survives 8 attempts undelivered is 0.05⁸ ≈ 4 × 10⁻¹¹.
///
/// [`LossyNetwork`]: crate::transport_lossy::LossyNetwork
pub const DEFAULT_RETRY_BUDGET: u32 = 8;

/// Fault model applied independently to each transmitted fragment.
///
/// Extends the drop/duplicate model with the reorder, delay, and
/// endpoint-crash faults an adaptively-routed (or simply misbehaving)
/// fabric can produce. Construct with struct-update syntax so new fault
/// kinds never break call sites:
///
/// ```
/// use rvma_core::FaultModel;
/// let model = FaultModel { drop_p: 0.05, dup_p: 0.05, ..FaultModel::NONE };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a fragment is silently dropped.
    pub drop_p: f64,
    /// Probability a delivered fragment is delivered twice.
    pub dup_p: f64,
    /// Probability a fragment is reordered: held back and released after
    /// the next transmission, so it arrives behind younger traffic.
    pub reorder_p: f64,
    /// Probability a fragment is delayed: held back for
    /// [`delay_spans`](FaultModel::delay_spans) further transmissions.
    pub delay_p: f64,
    /// How many subsequent transmissions a delayed fragment is held for.
    pub delay_spans: u32,
    /// After this many total transmitted fragments, the destination of the
    /// next fragment crashes: that fragment and everything later sent to
    /// that endpoint is black-holed (`None` = never).
    pub crash_after_frags: Option<u64>,
}

impl FaultModel {
    /// No faults: the reliable fabric RVMA is specified over.
    pub const NONE: FaultModel = FaultModel {
        drop_p: 0.0,
        dup_p: 0.0,
        reorder_p: 0.0,
        delay_p: 0.0,
        delay_spans: 2,
        crash_after_frags: None,
    };

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.delay_p == 0.0
            && self.crash_after_frags.is_none()
    }

    /// Panics unless every probability is in `[0, 1]`.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_p), "drop_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.dup_p), "dup_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.reorder_p), "reorder_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.delay_p), "delay_p in [0,1]");
    }
}

/// Shared fault counters (relaxed atomics: observability, not
/// synchronization). One instance can be shared by several
/// [`FaultInjector`]s — e.g. every wire worker of a fault-injected
/// `AsyncNetwork` — so the counts are network-wide.
#[derive(Debug, Default)]
pub struct FaultStats {
    transmitted: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    deferred: AtomicU64,
}

impl FaultStats {
    /// Fragments pushed through the fault dice so far.
    pub fn transmitted(&self) -> u64 {
        self.transmitted.load(Ordering::Relaxed)
    }

    /// Fragments dropped (including black-holed by a crashed endpoint).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Fragments delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Fragments reordered or delayed.
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::Relaxed)
    }

    /// A transmission swallowed without rolling dice (crashed destination).
    pub(crate) fn note_blackhole(&self) {
        self.transmitted.fetch_add(1, Ordering::Relaxed);
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A previously deferred fragment lost before release (its destination
    /// crashed while it was held): counted as dropped, not re-transmitted.
    pub(crate) fn note_dropped_in_flight(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The outcome of one roll of the fault dice for one fragment.
#[derive(Debug, Clone, Copy)]
pub struct FaultDecision {
    /// Drop the fragment.
    pub drop: bool,
    /// Deliver the fragment twice.
    pub duplicate: bool,
    /// Hold the fragment for this many further transmissions
    /// (0 = deliver now).
    pub defer_spans: u32,
    /// The destination of this fragment crashes (fires at most once per
    /// injector, when the transmit counter crosses
    /// [`FaultModel::crash_after_frags`]).
    pub crash: bool,
}

impl FaultDecision {
    /// No fault: deliver exactly once, now.
    pub const CLEAN: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        defer_spans: 0,
        crash: false,
    };
}

/// A seeded per-fragment fault source. Every transmission rolls *all* the
/// dice (even for probabilities of zero), so fault counts are a pure
/// function of the seed and the transmission sequence — changing one
/// probability never perturbs the stream consumed by the others.
#[derive(Debug)]
pub struct FaultInjector {
    model: FaultModel,
    rng: StdRng,
    stats: Arc<FaultStats>,
}

impl FaultInjector {
    /// Build from a validated model, a seed, and a (possibly shared) stats
    /// block.
    ///
    /// # Panics
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(model: FaultModel, seed: u64, stats: Arc<FaultStats>) -> Self {
        model.validate();
        FaultInjector {
            model,
            rng: StdRng::seed_from_u64(seed),
            stats,
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Roll the dice for one fragment. Precedence: crash and drop swallow
    /// the fragment; otherwise a deferral postpones it; otherwise a
    /// duplicate delivers it twice.
    pub fn roll(&mut self) -> FaultDecision {
        let drop = self.rng.random_bool(self.model.drop_p);
        let duplicate = self.rng.random_bool(self.model.dup_p);
        let reorder = self.rng.random_bool(self.model.reorder_p);
        let delay = self.rng.random_bool(self.model.delay_p);
        let seq = self.stats.transmitted.fetch_add(1, Ordering::Relaxed) + 1;
        let crash = self.model.crash_after_frags == Some(seq);
        let defer_spans = if delay {
            self.model.delay_spans.max(1)
        } else if reorder {
            1
        } else {
            0
        };
        let decision = if crash || drop {
            FaultDecision {
                drop: true,
                duplicate: false,
                defer_spans: 0,
                crash,
            }
        } else if defer_spans > 0 {
            FaultDecision {
                drop: false,
                duplicate: false,
                defer_spans,
                crash: false,
            }
        } else {
            FaultDecision {
                duplicate,
                ..FaultDecision::CLEAN
            }
        };
        if decision.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        } else if decision.defer_spans > 0 {
            self.stats.deferred.fetch_add(1, Ordering::Relaxed);
        } else if decision.duplicate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }
}

/// What [`LinkFaults::admit`] decided for one wire unit.
pub(crate) enum Admit {
    /// Dropped or deferred on the link: the caller re-enqueues the unit at
    /// `attempt + 1` behind its queued traffic (which is also how reorder
    /// and delay manifest) and then [`retire`](LinkFaults::retire)s the
    /// attempt it just processed. Not a final disposition.
    Retransmit,
    /// Deliver now, `copies` times (2 = duplication fault). However many
    /// copies, this is one unit with one final disposition.
    Deliver { copies: u32 },
}

/// The link-level reliability layer under the threaded and shm wire
/// workers — the module docs' link discipline, as code. Present only when
/// the endpoint config carries a non-trivial [`FaultModel`].
pub(crate) struct LinkFaults {
    model: FaultModel,
    budget: u32,
    seed: u64,
    stats: Arc<FaultStats>,
    pending_retries: AtomicU64,
    telemetry: Option<Arc<Telemetry>>,
}

impl LinkFaults {
    pub(crate) fn from_config(
        config: &EndpointConfig,
        telemetry: &Option<Arc<Telemetry>>,
    ) -> Option<LinkFaults> {
        (!config.fault_model.is_none()).then(|| LinkFaults {
            model: config.fault_model,
            budget: config.retry_budget.max(1),
            seed: config.fault_seed,
            stats: Arc::new(FaultStats::default()),
            pending_retries: AtomicU64::new(0),
            telemetry: telemetry.clone(),
        })
    }

    /// The network-wide fault counters every worker's injector shares.
    pub(crate) fn stats(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// Retransmissions enqueued but not yet fully processed, network-wide.
    pub(crate) fn pending_retries(&self) -> u64 {
        self.pending_retries.load(Ordering::Acquire)
    }

    /// Worker `idx`'s own seeded dice. The counters are shared, so
    /// `crash_after_frags` keys off the network-wide transmit sequence.
    pub(crate) fn injector(&self, idx: usize) -> FaultInjector {
        let seed = self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultInjector::new(self.model, seed, self.stats.clone())
    }

    /// Decide the fate of one wire unit of `len` payload bytes on its
    /// `attempt`-th retransmission (`frag` names it for telemetry).
    #[inline]
    pub(crate) fn admit(
        &self,
        injector: &mut FaultInjector,
        frag: &Fragment,
        len: usize,
        attempt: u32,
        on_crash: impl FnOnce(),
    ) -> Admit {
        if len == 0 || attempt >= self.budget {
            return Admit::Deliver { copies: 1 };
        }
        let d = injector.roll();
        if d.crash {
            on_crash();
        }
        if d.drop || d.defer_spans > 0 {
            self.pending_retries.fetch_add(1, Ordering::AcqRel);
            telemetry::record(
                &self.telemetry,
                EventKind::Retransmit,
                telemetry::initiator_key(frag.initiator.nid, frag.initiator.pid),
                frag.op_id,
                (attempt + 1) as u64,
            );
            return Admit::Retransmit;
        }
        Admit::Deliver {
            copies: 1 + d.duplicate as u32,
        }
    }

    /// The unit's `attempt`-th transmission has been fully processed
    /// (delivered, NACKed, or re-enqueued at `attempt + 1`): a retried copy
    /// releases its slot in the pending-retry count.
    #[inline]
    pub(crate) fn retire(&self, attempt: u32) {
        if attempt > 0 {
            self.pending_retries.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Receiver-side duplicate suppression for one mailbox: a bounded memory
/// of fragments already accepted, keyed by `(initiator, op_id)` with the
/// fragment's byte offset as its sequence number within the operation.
///
/// Capacity bounds the number of distinct *operations* remembered (FIFO
/// eviction), which is how a NIC's finite dedup window behaves: a replay
/// arriving after its operation aged out of the window is accepted as
/// fresh. The reliable paths keep replays tight (an immediate duplicate,
/// or a retransmit racing a deferred copy), so a modest capacity
/// ([`DEFAULT_DEDUP_WINDOW`]) suppresses them all.
///
/// The window deliberately survives epoch rotation: a duplicated *final*
/// fragment of epoch N must not be counted into epoch N + 1.
#[derive(Debug)]
pub struct DedupWindow {
    /// Offsets already accepted, per live operation.
    seen: HashMap<OpKey, Vec<usize>>,
    /// Operations in arrival order, for FIFO eviction.
    order: VecDeque<OpKey>,
    capacity: usize,
}

impl DedupWindow {
    /// A window remembering up to `capacity` operations.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use
    /// [`EndpointConfig::dedup_window`](crate::endpoint::EndpointConfig) `= 0`
    /// to disable dedup instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup window capacity must be positive");
        DedupWindow {
            seen: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Has this exact fragment (operation + offset) been accepted before?
    pub fn is_duplicate(&self, key: OpKey, offset: usize) -> bool {
        self.seen
            .get(&key)
            .is_some_and(|offs| offs.contains(&offset))
    }

    /// Record an accepted fragment, evicting the oldest operation beyond
    /// capacity.
    pub fn record(&mut self, key: OpKey, offset: usize) {
        match self.seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let offs = e.get_mut();
                if !offs.contains(&offset) {
                    offs.push(offset);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vec![offset]);
                self.order.push_back(key);
                while self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.seen.remove(&old);
                    }
                }
            }
        }
    }

    /// Operations currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Retransmission policy of a [`ReliableInitiator`].
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Transmission rounds per operation before giving up with
    /// [`RvmaError::RetryExhausted`]. The first round is the original
    /// transmission, so `max_attempts = 1` disables retransmission.
    pub max_attempts: u32,
    /// Backoff slept after the first unsuccessful round. `ZERO` (the
    /// default) retransmits immediately — right for an in-process fabric
    /// where "time" is transmission order, and what keeps the seeded test
    /// suite fast.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff after each further round.
    pub backoff_multiplier: f64,
    /// Upper bound on the per-round backoff.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: DEFAULT_RETRY_BUDGET,
            base_backoff: Duration::ZERO,
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryConfig {
    /// Backoff to sleep after `round` unsuccessful rounds (1-based):
    /// `base · multiplier^(round − 1)`, clamped to
    /// [`max_backoff`](RetryConfig::max_backoff).
    pub fn backoff_for(&self, round: u32) -> Duration {
        if self.base_backoff.is_zero() || round == 0 {
            return Duration::ZERO;
        }
        let scale = self.backoff_multiplier.max(1.0).powi(round as i32 - 1);
        let nanos =
            (self.base_backoff.as_nanos() as f64 * scale).min(self.max_backoff.as_nanos() as f64);
        Duration::from_nanos(nanos as u64).min(self.max_backoff)
    }
}

/// What a reliable put did to get every fragment acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReport {
    /// Distinct fragments the operation comprises.
    pub fragments: u64,
    /// Total transmissions performed (≥ `fragments`; the excess is
    /// retransmitted copies).
    pub transmissions: u64,
    /// Rounds used (1 = everything acknowledged on first transmission).
    pub rounds: u32,
}

impl PutReport {
    /// Retransmitted copies beyond the first transmission of each fragment.
    pub fn retransmissions(&self) -> u64 {
        self.transmissions - self.fragments
    }
}

/// A retransmitting initiator over a [`LossyNetwork`]: the initiator half
/// of the reliability layer. Each round transmits every not-yet-acked
/// fragment; a delivery ack (including a receiver-side duplicate
/// suppression, which proves the fragment landed earlier) retires it, a
/// NACK aborts the operation, and fragments that vanish (dropped, deferred,
/// or black-holed by a crashed endpoint) stay queued for the next round.
pub struct ReliableInitiator {
    net: Arc<LossyNetwork>,
    src: NodeAddr,
    next_op: AtomicU64,
    retry: RetryConfig,
    /// Payload bytes copied into staging storage on the eager path; the
    /// zero-copy lane ([`put_bytes_at`](ReliableInitiator::put_bytes_at)
    /// above the eager threshold) contributes nothing here.
    staged: AtomicU64,
}

impl ReliableInitiator {
    pub(crate) fn new(net: Arc<LossyNetwork>, src: NodeAddr, retry: RetryConfig) -> Self {
        assert!(retry.max_attempts > 0, "retry budget must be positive");
        ReliableInitiator {
            net,
            src,
            next_op: AtomicU64::new(1),
            retry,
            staged: AtomicU64::new(0),
        }
    }

    /// The initiator's source address.
    pub fn src(&self) -> NodeAddr {
        self.src
    }

    /// The retransmission policy.
    pub fn retry_config(&self) -> RetryConfig {
        self.retry
    }

    /// Reliable `RVMA_Put` at offset 0.
    pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<PutReport> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// Reliable `RVMA_Put` with an explicit buffer offset: retransmits
    /// until every fragment is acknowledged, the target NACKs, or the
    /// retry budget is spent.
    pub fn put_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutReport> {
        self.staged.fetch_add(data.len() as u64, Ordering::Relaxed);
        let payload = Bytes::copy_from_slice(data);
        self.put_payload(dest, vaddr, offset, payload)
    }

    /// Zero-copy reliable `RVMA_Put` of an owned payload. Above the
    /// network's configured `eager_threshold` the fragments transmitted
    /// (and retransmitted) are offset/len slices of `data`'s shared
    /// allocation — no staging copy; the receiver-side gather is the
    /// put's only copy. At or below the threshold this is exactly
    /// [`put_at`](ReliableInitiator::put_at).
    pub fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<PutReport> {
        if data.len() <= self.net.endpoint_config().eager_threshold {
            return self.put_at(dest, vaddr, offset, &data);
        }
        self.put_payload(dest, vaddr, offset, data)
    }

    /// Payload bytes this initiator copied into staging storage so far.
    pub fn staged_bytes(&self) -> u64 {
        self.staged.load(Ordering::Relaxed)
    }

    /// The retransmit loop proper, lane-agnostic: fragments are always
    /// slices of `payload`, whether that is a staged copy (eager) or the
    /// caller's own allocation (zero-copy).
    fn put_payload(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        payload: Bytes,
    ) -> Result<PutReport> {
        if !self.net.has_endpoint(dest) {
            return Err(RvmaError::UnknownDestination);
        }
        let op_id = self.next_op.fetch_add(1, Ordering::Relaxed);
        let telemetry = self.net.telemetry();
        let src_key = telemetry::initiator_key(self.src.nid, self.src.pid);
        telemetry::record(
            &telemetry,
            EventKind::Submit,
            src_key,
            op_id,
            payload.len() as u64,
        );
        let total = payload.len() as u64;
        let ranges: Vec<(usize, usize)> = mtu_ranges(payload.len(), self.net.mtu()).collect();
        let mut acked = vec![false; ranges.len()];
        let mut transmissions = 0u64;
        let mut rounds = 0u32;
        while rounds < self.retry.max_attempts {
            for (i, &(s, e)) in ranges.iter().enumerate() {
                if acked[i] {
                    continue;
                }
                let frag = Fragment {
                    initiator: self.src,
                    op_id,
                    dst_vaddr: vaddr,
                    op_total_len: total,
                    offset: offset + s,
                    data: payload.slice(s..e),
                };
                transmissions += 1;
                if rounds > 0 {
                    // Every transmission of a fragment beyond its first.
                    telemetry::record(
                        &telemetry,
                        EventKind::Retransmit,
                        src_key,
                        op_id,
                        rounds as u64,
                    );
                }
                match self.net.transmit(dest, frag) {
                    TransmitOutcome::Delivered(first, second) => {
                        for r in std::iter::once(first).chain(second) {
                            match r {
                                // A Duplicate ack proves an earlier copy
                                // (e.g. one released from a deferral hold)
                                // already landed.
                                DeliverResult::Ok { .. } | DeliverResult::Duplicate => {
                                    acked[i] = true;
                                }
                                DeliverResult::Nack(reason) => {
                                    return Err(RvmaError::Nacked(reason));
                                }
                                // NACKs disabled at the target: the
                                // initiator learns nothing; the budget
                                // expires like a timeout.
                                DeliverResult::Dropped(_) => {}
                            }
                        }
                    }
                    TransmitOutcome::Lost | TransmitOutcome::Held => {}
                }
            }
            rounds += 1;
            if acked.iter().all(|&a| a) {
                return Ok(PutReport {
                    fragments: ranges.len() as u64,
                    transmissions,
                    rounds,
                });
            }
            let backoff = self.retry.backoff_for(rounds);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        Err(RvmaError::RetryExhausted {
            attempts: rounds,
            acked: acked.iter().filter(|&&a| a).count() as u64,
            total: ranges.len() as u64,
        })
    }
}

impl std::fmt::Debug for ReliableInitiator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableInitiator")
            .field("src", &self.src)
            .field("retry", &self.retry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: u64) -> OpKey {
        OpKey {
            op_id: op,
            initiator: 1,
        }
    }

    #[test]
    fn fault_model_none_is_none() {
        assert!(FaultModel::NONE.is_none());
        assert!(!FaultModel {
            reorder_p: 0.1,
            ..FaultModel::NONE
        }
        .is_none());
        assert!(!FaultModel {
            crash_after_frags: Some(1),
            ..FaultModel::NONE
        }
        .is_none());
    }

    #[test]
    #[should_panic(expected = "reorder_p")]
    fn invalid_reorder_probability_rejected() {
        FaultModel {
            reorder_p: 1.5,
            ..FaultModel::NONE
        }
        .validate();
    }

    #[test]
    fn injector_is_seed_deterministic() {
        let roll_n = |seed| {
            let stats = Arc::new(FaultStats::default());
            let mut inj = FaultInjector::new(
                FaultModel {
                    drop_p: 0.3,
                    dup_p: 0.2,
                    reorder_p: 0.1,
                    ..FaultModel::NONE
                },
                seed,
                stats.clone(),
            );
            for _ in 0..512 {
                inj.roll();
            }
            (stats.dropped(), stats.duplicated(), stats.deferred())
        };
        assert_eq!(roll_n(7), roll_n(7));
        let (d, dup, def) = roll_n(7);
        assert!(d > 80 && d < 240, "dropped {d} wildly off 30% of 512");
        assert!(dup > 20, "duplicated {dup}");
        assert!(def > 10, "deferred {def}");
    }

    #[test]
    fn injector_crashes_exactly_once() {
        let stats = Arc::new(FaultStats::default());
        let mut inj = FaultInjector::new(
            FaultModel {
                crash_after_frags: Some(3),
                ..FaultModel::NONE
            },
            1,
            stats.clone(),
        );
        let crashes: Vec<bool> = (0..6).map(|_| inj.roll().crash).collect();
        assert_eq!(crashes, vec![false, false, true, false, false, false]);
        assert_eq!(stats.transmitted(), 6);
        assert_eq!(stats.dropped(), 1, "the crashing fragment is swallowed");
    }

    #[test]
    fn dedup_window_suppresses_replays() {
        let mut w = DedupWindow::new(4);
        assert!(!w.is_duplicate(key(1), 0));
        w.record(key(1), 0);
        assert!(w.is_duplicate(key(1), 0));
        assert!(!w.is_duplicate(key(1), 64), "other fragments of the op");
        assert!(!w.is_duplicate(key(2), 0), "other ops");
        w.record(key(1), 64);
        assert!(w.is_duplicate(key(1), 64));
        assert_eq!(w.len(), 1, "one op remembered");
    }

    #[test]
    fn dedup_window_evicts_oldest_op() {
        let mut w = DedupWindow::new(2);
        w.record(key(1), 0);
        w.record(key(2), 0);
        w.record(key(3), 0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_duplicate(key(1), 0), "op 1 aged out");
        assert!(w.is_duplicate(key(2), 0));
        assert!(w.is_duplicate(key(3), 0));
        assert!(!w.is_empty());
    }

    #[test]
    fn backoff_grows_and_clamps() {
        let cfg = RetryConfig {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(1));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(2));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(4));
        assert_eq!(cfg.backoff_for(7), Duration::from_millis(4), "clamped");
        assert_eq!(RetryConfig::default().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn put_report_retransmissions() {
        let r = PutReport {
            fragments: 4,
            transmissions: 7,
            rounds: 3,
        };
        assert_eq!(r.retransmissions(), 3);
    }
}
