//! The RVMA endpoint: the software rendering of an RVMA NIC.
//!
//! An endpoint owns the lookup table, receives wire [`Fragment`]s, steers
//! them to mailboxes (paper Fig. 3: translate → write → count → maybe
//! complete), applies the NACK policy, and exposes window creation to the
//! local application. Everything is thread-safe with no global lock: the
//! LUT is internally sharded (see [`crate::lut`]) so lookups and even
//! registration to different mailboxes never contend, each mailbox sits
//! behind its own `Mutex` — the traffic-stream separation the paper
//! attributes to per-mailbox addressing. A single [`deliver`] copies the
//! payload *outside* that mutex via the mailbox's two-phase delivery;
//! [`deliver_batch`] copies under it in bounded chunks, one lock hold per
//! [`DELIVER_CHUNK`] fragments, because its callers (the threaded wire
//! workers) are each a mailbox's only writer.
//!
//! [`deliver`]: RvmaEndpoint::deliver
//! [`deliver_batch`]: RvmaEndpoint::deliver_batch

use crate::addr::{NodeAddr, VirtAddr};
use crate::buffer::Threshold;
use crate::csync::Idle;
use crate::error::{NackReason, Result, RvmaError};
use crate::lut::Lut;
use crate::mailbox::{
    BeginOutcome, DeliveryOutcome, Mailbox, MailboxMode, OpKey, DEFAULT_RETAIN_EPOCHS,
};
use crate::notify::AsyncNotifyStats;
use crate::retry::{FaultModel, DEFAULT_RETRY_BUDGET};
use crate::ring::{RingStats, DEFAULT_WIRE_QUEUE_CAP};
use crate::telemetry::Telemetry;
use crate::window::Window;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One wire-level fragment of an RVMA operation (a packet's worth of a put).
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The initiating endpoint.
    pub initiator: NodeAddr,
    /// Initiator-unique operation id (groups fragments of one put).
    pub op_id: u64,
    /// Target virtual mailbox address.
    pub dst_vaddr: VirtAddr,
    /// Total bytes of the whole operation this fragment belongs to.
    pub op_total_len: u64,
    /// Byte offset of this fragment within the target's active buffer.
    pub offset: usize,
    /// Fragment payload.
    pub data: Bytes,
}

/// The one MTU cut: the `(start, end)` byte ranges a `len`-byte put
/// occupies on a wire carrying `mtu` payload bytes per fragment. A
/// zero-byte put is one empty range — it still counts as one operation at
/// the target (op-counted synchronization puts).
pub(crate) fn mtu_ranges(len: usize, mtu: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    (0..len.max(1))
        .step_by(mtu)
        .map(move |start| (start, (start + mtu).min(len)))
}

impl Fragment {
    fn op_key(&self) -> OpKey {
        OpKey {
            op_id: self.op_id,
            initiator: ((self.initiator.nid as u64) << 32) | self.initiator.pid as u64,
        }
    }

    /// Cut one put into its wire fragments: one per [`mtu_ranges`] range,
    /// each a zero-copy slice of `payload` placed at `offset + start`.
    pub(crate) fn split(
        initiator: NodeAddr,
        op_id: u64,
        dst_vaddr: VirtAddr,
        offset: usize,
        payload: &Bytes,
        mtu: usize,
    ) -> Vec<Fragment> {
        let op_total_len = payload.len() as u64;
        mtu_ranges(payload.len(), mtu)
            .map(|(start, end)| Fragment {
                initiator,
                op_id,
                dst_vaddr,
                op_total_len,
                offset: offset + start,
                data: payload.slice(start..end),
            })
            .collect()
    }
}

/// Endpoint construction options.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Whether discarded operations generate NACKs back to initiators
    /// (paper: "NACKs may be disabled to handle DoS attacks").
    pub nacks_enabled: bool,
    /// Optional catch-all mailbox: operations addressed to unregistered
    /// mailboxes are steered here instead of discarded (paper Sec. III-C
    /// mentions catch-all mailboxes as part of a full specification).
    pub catch_all: Option<VirtAddr>,
    /// Bound on LUT entries (None = unbounded).
    pub lut_capacity: Option<usize>,
    /// Retired buffers retained per mailbox for rewind.
    pub retain_epochs: usize,
    /// Wire-datapath worker threads a threaded transport should run for
    /// this endpoint (see `rvma-net`'s `AsyncNetwork::with_options`).
    /// Fragments shard across workers by destination mailbox, preserving
    /// per-mailbox arrival order.
    pub wire_workers: usize,
    /// Capacity (distinct operations remembered) of the per-mailbox
    /// receiver-side dedup window. 0 (the default) disables dedup,
    /// preserving the documented unprotected behaviour of the lossy
    /// boundary; the reliable-delivery paths require it enabled (see
    /// [`crate::retry`]).
    pub dedup_window: usize,
    /// Fault model a fault-injecting transport should apply to this
    /// endpoint's traffic ([`FaultModel::NONE`] = reliable fabric).
    pub fault_model: FaultModel,
    /// Seed of the transport's fault dice, for reproducible runs.
    pub fault_seed: u64,
    /// Per-fragment transmit budget of the transport's link-level
    /// retransmission (see `AsyncNetwork`): a faulted fragment is
    /// redelivered up to this many times before the final attempt is made
    /// fault-free, bounding completion time under any fault model.
    pub retry_budget: u32,
    /// Capacity (messages) of each wire worker's bounded ring queue,
    /// rounded up to a power of two (min 2). A full ring exerts
    /// backpressure on submitters — `put` blocks until a slot frees, it
    /// never drops — so this also caps resident queue memory under incast.
    pub wire_queue_cap: usize,
    /// Enable op-level telemetry ([`crate::telemetry`]): every datapath
    /// layer stamps put-lifecycle events into a shared lock-free
    /// recorder, drained via `Telemetry::snapshot`. Off by default; the
    /// disabled datapath carries only a `None` option (one branch per
    /// hook, no allocation, no atomics).
    pub telemetry: bool,
    /// Capacity (wire messages) of the shared-memory transport's
    /// cross-process request ring ([`crate::transport_shm`]), rounded up
    /// to a power of two. Each slot is `~72 B + MTU`, so this also sizes
    /// the mapped segment. A full ring backpressures the initiating
    /// process — `put` blocks, never drops.
    pub shm_req_slots: usize,
    /// Capacity of the shared-memory transport's response ring (delivery
    /// acks, NACKs, flush acks flowing receiver → initiator).
    pub shm_rsp_slots: usize,
    /// Largest put (bytes) that still takes the **eager** fragment path:
    /// the initiator stages a private copy of the payload and ships it in
    /// MTU-sized fragments. Anything larger switches to the zero-copy
    /// lane — the shared `Bytes` itself on the in-process transports
    /// (whole on threaded, per-MTU slices on inline-lossy), the
    /// bulk-region rendezvous handshake on the shared-memory transport
    /// (see DESIGN.md §13). `0` forces every non-empty put zero-copy;
    /// `usize::MAX` forces every put eager (the A/B baseline).
    pub eager_threshold: usize,
    /// Size (bytes) of the shared-memory transport's bulk data region,
    /// the segment area rendezvous puts stage their payload in (rounded
    /// down to a power of two; `0` disables the rendezvous lane
    /// entirely). When the region is exhausted, large puts fall back to
    /// the eager fragment path — progress is never blocked on an extent.
    pub shm_bulk_bytes: usize,
}

/// The wire workers' former fixed idle spin count. Core no longer reads
/// it (every waiter spins under one adaptive budget); it stays exported
/// only for the benchmark report's `one_cpu_rule_zeroed_idle_budgets`
/// stamp and goes with that key.
pub const DEFAULT_WIRE_IDLE_SPINS: u32 = 4096;

/// The wire workers' former fixed idle yield count; see
/// [`DEFAULT_WIRE_IDLE_SPINS`].
pub const DEFAULT_WIRE_IDLE_YIELDS: u32 = 64;

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            nacks_enabled: true,
            catch_all: None,
            lut_capacity: None,
            retain_epochs: DEFAULT_RETAIN_EPOCHS,
            wire_workers: 1,
            dedup_window: 0,
            fault_model: FaultModel::NONE,
            fault_seed: 0x5EED,
            retry_budget: DEFAULT_RETRY_BUDGET,
            wire_queue_cap: DEFAULT_WIRE_QUEUE_CAP,
            telemetry: false,
            shm_req_slots: DEFAULT_SHM_REQ_SLOTS,
            shm_rsp_slots: DEFAULT_SHM_RSP_SLOTS,
            eager_threshold: DEFAULT_EAGER_THRESHOLD,
            shm_bulk_bytes: DEFAULT_SHM_BULK_BYTES,
        }
    }
}

/// Default eager/rendezvous switch point (see
/// [`EndpointConfig::eager_threshold`]): four default MTUs, so chatty
/// small-message traffic keeps the pooled fragment path while anything
/// that would fragment heavily goes zero-copy.
pub const DEFAULT_EAGER_THRESHOLD: usize = 8192;

/// Default bulk-region size of the shared-memory transport (see
/// [`EndpointConfig::shm_bulk_bytes`]).
pub const DEFAULT_SHM_BULK_BYTES: usize = 8 << 20;

/// Default request-ring capacity of the shared-memory transport (see
/// [`EndpointConfig::shm_req_slots`]).
pub const DEFAULT_SHM_REQ_SLOTS: usize = 1024;

/// Default response-ring capacity of the shared-memory transport (see
/// [`EndpointConfig::shm_rsp_slots`]).
pub const DEFAULT_SHM_RSP_SLOTS: usize = 1024;

/// Counters an endpoint keeps about its datapath (all relaxed atomics —
/// they are observability, not synchronization).
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Fragments written into a buffer.
    pub fragments_accepted: AtomicU64,
    /// Payload bytes written into buffers.
    pub bytes_accepted: AtomicU64,
    /// Payload bytes memcpy'd into posted buffers — the receiver-side
    /// gather, which is the *only* copy on the zero-copy lanes. Divide by
    /// `bytes_accepted` (and add the transport's
    /// [`staged_bytes`](crate::transport::Transport::staged_bytes)) to get
    /// copies-per-delivered-byte.
    pub bytes_copied: AtomicU64,
    /// Fragments discarded (closed window / no mailbox / no buffer / bounds).
    pub fragments_discarded: AtomicU64,
    /// NACKs that were (or would be) sent to initiators.
    pub nacks: AtomicU64,
    /// Epochs completed across all mailboxes (threshold-triggered and
    /// `inc_epoch`). Shared with each mailbox, which increments it
    /// immediately *before* the completing write — so a waiter woken by a
    /// completion always sees this counter include that epoch.
    pub epochs_completed: Arc<AtomicU64>,
    /// LUT lookups that found a mailbox.
    pub lut_hits: AtomicU64,
    /// LUT lookups that missed (before catch-all redirection).
    pub lut_misses: AtomicU64,
    /// Fragments suppressed by a mailbox's dedup window (counted neither
    /// as accepted nor as discarded).
    pub duplicates_dropped: AtomicU64,
    /// Async completion counters (wakes, spurious polls, dropped futures,
    /// CQ routings). Shared with every slot this endpoint's windows post.
    pub async_notify: Arc<AsyncNotifyStats>,
}

/// A point-in-time copy of [`EndpointStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Fragments written into a buffer.
    pub fragments_accepted: u64,
    /// Payload bytes written into buffers.
    pub bytes_accepted: u64,
    /// Payload bytes memcpy'd into posted buffers (the receiver gather).
    pub bytes_copied: u64,
    /// Fragments discarded.
    pub fragments_discarded: u64,
    /// NACKs sent (or suppressed-but-counted when disabled: 0).
    pub nacks: u64,
    /// Epochs completed across all mailboxes (threshold and `inc_epoch`).
    pub epochs_completed: u64,
    /// LUT hits.
    pub lut_hits: u64,
    /// LUT misses.
    pub lut_misses: u64,
    /// Fragments suppressed by a dedup window.
    pub duplicates_dropped: u64,
    /// High-water wire-queue depth of the transport serving this endpoint
    /// (0 when the endpoint is not attached to a threaded transport).
    /// Bounded by [`EndpointConfig::wire_queue_cap`].
    pub max_depth: u64,
    /// Submissions that stalled on a full wire ring (backpressure events).
    pub full_stalls: u64,
    /// Parked wire workers woken by the producers' doorbell.
    pub park_wakeups: u64,
    /// Completing writes that actually woke a consumer: the waker parked
    /// in the slot's cell (a pending future's task, or a blocking waiter
    /// past its spin phase) or an attached CQ's consumer.
    pub notify_wakes: u64,
    /// Async polls that found a still-pending slot after a registration —
    /// the woken-but-nothing-ready metric.
    pub spurious_polls: u64,
    /// `NotifyFuture`s dropped before consuming their completion.
    pub futures_dropped: u64,
    /// Completions routed into an attached `CompletionQueue`.
    pub cq_completions: u64,
}

impl EndpointStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            fragments_accepted: self.fragments_accepted.load(Ordering::Relaxed),
            bytes_accepted: self.bytes_accepted.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            fragments_discarded: self.fragments_discarded.load(Ordering::Relaxed),
            nacks: self.nacks.load(Ordering::Relaxed),
            epochs_completed: self.epochs_completed.load(Ordering::Relaxed),
            lut_hits: self.lut_hits.load(Ordering::Relaxed),
            lut_misses: self.lut_misses.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            max_depth: 0,
            full_stalls: 0,
            park_wakeups: 0,
            notify_wakes: self.async_notify.notify_wakes.load(Ordering::Relaxed),
            spurious_polls: self.async_notify.spurious_polls.load(Ordering::Relaxed),
            futures_dropped: self.async_notify.futures_dropped.load(Ordering::Relaxed),
            cq_completions: self.async_notify.cq_completions.load(Ordering::Relaxed),
        }
    }
}

/// Result of delivering a fragment at an endpoint, as seen by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverResult {
    /// Written; optionally it completed an epoch.
    Ok {
        /// True when this fragment completed the active buffer's epoch.
        completed_epoch: bool,
    },
    /// Suppressed by the target mailbox's dedup window: an identical
    /// fragment was accepted earlier, so to the initiator this is a
    /// positive acknowledgement (the data *is* at the target).
    Duplicate,
    /// Discarded, and the target's policy says to NACK the initiator.
    Nack(NackReason),
    /// Discarded silently (NACKs disabled).
    Dropped(NackReason),
}

/// Max fragments a batched delivery processes per mailbox lock hold;
/// bounds the lock hold time (and, on the rare two-phase fallback path,
/// the O(chunk) in-flight overlap scan each further reservation pays).
pub const DELIVER_CHUNK: usize = 64;

/// Local accumulator for [`RvmaEndpoint::deliver_batch`]: counters are
/// summed here and published with one atomic RMW each per batch, instead
/// of one per fragment.
#[derive(Default)]
struct BatchCounters {
    frags_accepted: u64,
    bytes_accepted: u64,
    discarded: u64,
    nacks: u64,
    lut_hits: u64,
    lut_misses: u64,
    dups: u64,
}

impl BatchCounters {
    fn accept(&mut self, bytes: usize) {
        self.frags_accepted += 1;
        self.bytes_accepted += bytes as u64;
    }

    fn discard(
        &mut self,
        nacks_enabled: bool,
        index: usize,
        vaddr: VirtAddr,
        reason: NackReason,
        on_nack: &mut dyn FnMut(usize, VirtAddr, NackReason),
    ) {
        self.discarded += 1;
        if nacks_enabled {
            self.nacks += 1;
            on_nack(index, vaddr, reason);
        }
    }

    fn publish(&self, stats: &EndpointStats) {
        let pairs = [
            (&stats.fragments_accepted, self.frags_accepted),
            (&stats.bytes_accepted, self.bytes_accepted),
            (&stats.bytes_copied, self.bytes_accepted),
            (&stats.fragments_discarded, self.discarded),
            (&stats.nacks, self.nacks),
            (&stats.lut_hits, self.lut_hits),
            (&stats.lut_misses, self.lut_misses),
            (&stats.duplicates_dropped, self.dups),
        ];
        for (counter, delta) in pairs {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }
}

/// The software RVMA NIC for one `NodeAddr`.
#[derive(Debug)]
pub struct RvmaEndpoint {
    addr: NodeAddr,
    lut: Lut,
    config: EndpointConfig,
    stats: EndpointStats,
    /// Wire-queue counters of the transport this endpoint is attached to
    /// (set by `AsyncNetwork::add_endpoint`/`register`); merged into
    /// [`StatsSnapshot`] so queue depth and backpressure are observable
    /// next to the delivery counters.
    wire: Mutex<Option<Arc<RingStats>>>,
    /// Op-level event recorder, present iff [`EndpointConfig::telemetry`].
    /// Windows and mailboxes created by this endpoint stamp lifecycle
    /// events into it; a network attaches its shared recorder here so one
    /// snapshot covers the whole fabric. Cold-path lock: only window
    /// creation and attachment touch it.
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl RvmaEndpoint {
    /// Create an endpoint with default configuration.
    pub fn new(addr: NodeAddr) -> Arc<Self> {
        Self::with_config(addr, EndpointConfig::default())
    }

    /// Create an endpoint with explicit configuration.
    pub fn with_config(addr: NodeAddr, config: EndpointConfig) -> Arc<Self> {
        let telemetry = config.telemetry.then(|| Arc::new(Telemetry::new()));
        Arc::new(RvmaEndpoint {
            addr,
            lut: Lut::new(config.lut_capacity),
            config,
            stats: EndpointStats::default(),
            wire: Mutex::new(None),
            telemetry: Mutex::new(telemetry),
        })
    }

    /// This endpoint's network address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The endpoint's configuration.
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// Snapshot of datapath counters, including the wire-queue counters of
    /// the attached transport (zero when unattached).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        if let Some(wire) = self.wire.lock().as_ref() {
            let w = wire.snapshot();
            snap.max_depth = w.max_depth;
            snap.full_stalls = w.full_stalls;
            snap.park_wakeups = w.park_wakeups;
        }
        snap
    }

    /// Attach the wire-queue counters of the transport serving this
    /// endpoint, so [`stats`](Self::stats) can report queue depth and
    /// backpressure alongside the delivery counters. Called by
    /// `AsyncNetwork::add_endpoint`/`register`; re-attaching (e.g. the
    /// endpoint moved to another network) replaces the source.
    pub fn attach_wire_stats(&self, stats: Arc<RingStats>) {
        *self.wire.lock() = Some(stats);
    }

    /// The endpoint's event recorder (`None` unless
    /// [`EndpointConfig::telemetry`] is set).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.telemetry.lock().clone()
    }

    /// The shared async-completion counters, armed into every slot this
    /// endpoint's windows post.
    pub(crate) fn async_notify_stats(&self) -> Arc<AsyncNotifyStats> {
        self.stats.async_notify.clone()
    }

    /// Replace the endpoint's recorder with a network-shared one, so every
    /// endpoint of a fabric feeds a single snapshot. Called by the
    /// transports at `add_endpoint` time, before any window exists.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.telemetry.lock() = Some(telemetry);
    }

    /// Create a window: register a mailbox at `vaddr` in Receiver-Steered
    /// mode (paper: `RVMA_Init_window`). The threshold applies to every
    /// buffer subsequently posted through the window unless overridden.
    pub fn init_window(self: &Arc<Self>, vaddr: VirtAddr, threshold: Threshold) -> Result<Window> {
        self.init_window_mode(vaddr, threshold, MailboxMode::Steered)
    }

    /// Create a window in an explicit placement mode (`Managed` gives the
    /// sockets-like stream semantics of paper Sec. IV-B).
    pub fn init_window_mode(
        self: &Arc<Self>,
        vaddr: VirtAddr,
        threshold: Threshold,
        mode: MailboxMode,
    ) -> Result<Window> {
        if threshold.count == 0 {
            return Err(RvmaError::ZeroThreshold);
        }
        let mut mb = Mailbox::with_dedup(
            vaddr,
            mode,
            self.config.retain_epochs,
            self.config.dedup_window,
        );
        mb.count_completions_in(self.stats.epochs_completed.clone());
        if let Some(t) = self.telemetry() {
            mb.trace_into(t);
        }
        let mailbox = Arc::new(Mutex::new(mb));
        self.lut.insert(vaddr, mailbox.clone())?;
        Ok(Window::new(self.clone(), mailbox, vaddr, threshold))
    }

    /// Fully remove a (typically closed) mailbox from the LUT, reclaiming
    /// its entry. After eviction, operations to the address report
    /// `NoSuchMailbox` rather than `WindowClosed`.
    pub fn evict(&self, vaddr: VirtAddr) -> bool {
        self.lut.remove(vaddr).is_some()
    }

    /// Number of registered LUT entries.
    pub fn lut_len(&self) -> usize {
        self.lut.len()
    }

    /// The NIC receive datapath: deliver one fragment.
    ///
    /// The payload copy runs *outside* the mailbox critical section: the
    /// lock is held only to reserve the destination range and bump the
    /// counters (`Mailbox::deliver_begin`), then again briefly to retire
    /// the reservation (`Mailbox::deliver_finish`). Concurrent fragments
    /// for the same mailbox therefore overlap their copies.
    pub fn deliver(&self, frag: &Fragment) -> DeliverResult {
        self.deliver_slice(
            frag.initiator,
            frag.op_id,
            frag.dst_vaddr,
            frag.op_total_len,
            frag.offset,
            &frag.data,
        )
    }

    /// [`deliver`](Self::deliver) over a borrowed payload slice — the
    /// rendezvous gather path: the shared-memory server points this at
    /// the initiator's bulk extent and the payload lands in the posted
    /// buffer with **one** copy and no intermediate `Bytes` allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn deliver_slice(
        &self,
        initiator: NodeAddr,
        op_id: u64,
        dst_vaddr: VirtAddr,
        op_total_len: u64,
        offset: usize,
        data: &[u8],
    ) -> DeliverResult {
        let key = OpKey {
            op_id,
            initiator: ((initiator.nid as u64) << 32) | initiator.pid as u64,
        };
        // Single-lookup translation, with optional catch-all redirect.
        let mailbox = match self.lut.lookup(dst_vaddr) {
            Some(m) => {
                self.stats.lut_hits.fetch_add(1, Ordering::Relaxed);
                Some(m)
            }
            None => {
                self.stats.lut_misses.fetch_add(1, Ordering::Relaxed);
                self.config.catch_all.and_then(|ca| self.lut.lookup(ca))
            }
        };
        let Some(mailbox) = mailbox else {
            return self.discard(NackReason::NoSuchMailbox);
        };

        let mut idle = Idle::new();
        let outcome = loop {
            let mut mb = mailbox.lock();
            match mb.deliver_begin(key, op_total_len, offset, data.len()) {
                BeginOutcome::Done(outcome) => break outcome,
                BeginOutcome::Reserved(reservation) => {
                    drop(mb);
                    // SAFETY: the mailbox guarantees exclusive ownership of
                    // the reserved range until `deliver_finish`, and keeps
                    // the allocation alive while any writer is in flight.
                    unsafe { reservation.fill(data) };
                    break mailbox.lock().deliver_finish(reservation);
                }
                BeginOutcome::Contended => {
                    // Overlaps a range another thread is copying into right
                    // now. Drop the lock and retry; overlapping concurrent
                    // writers are rare (and discouraged) so this wait is
                    // cold.
                    drop(mb);
                    idle.snooze();
                }
            }
        };
        idle.done();
        match outcome {
            DeliveryOutcome::Accepted => {
                self.count_accept(data.len());
                DeliverResult::Ok {
                    completed_epoch: false,
                }
            }
            DeliveryOutcome::Completed => {
                // The mailbox already counted the epoch (pre-completion,
                // so it is visible to whoever the completing write wakes).
                self.count_accept(data.len());
                DeliverResult::Ok {
                    completed_epoch: true,
                }
            }
            DeliveryOutcome::Duplicate => {
                self.stats
                    .duplicates_dropped
                    .fetch_add(1, Ordering::Relaxed);
                DeliverResult::Duplicate
            }
            DeliveryOutcome::Discarded(reason) => self.discard(reason),
        }
    }

    /// The batched NIC receive datapath: deliver a submission batch.
    ///
    /// Amortizes the per-fragment costs of [`deliver`](Self::deliver)
    /// across a batch the way a doorbell-driven NIC drains its submission
    /// queue: one LUT lookup per *run* of consecutive fragments addressed
    /// to the same mailbox, one mailbox lock acquisition per chunk of up
    /// to [`DELIVER_CHUNK`] fragments, and a single atomic update per
    /// stats counter for the whole batch. Within a chunk, each fragment is
    /// a fused begin → copy → finish — the copy happens under the lock,
    /// which is safe and contention-free because the worker pool shards by
    /// mailbox (a batch's mailbox has no other writer), and it makes the
    /// batch byte-for-byte equivalent to one-at-a-time delivery: same
    /// epoch rotation points, same `Managed`-cursor order, same
    /// last-writer-wins on overlapping ranges.
    ///
    /// `on_nack` is invoked (in batch order) with the index in `frags` of
    /// every fragment that would have produced [`DeliverResult::Nack`], so
    /// a caller whose batch mixes initiators or notified puts can route
    /// each refusal to its own message; silent drops (NACKs disabled) are
    /// counted but not reported, exactly as in the single-fragment path.
    ///
    /// The mailbox's [`EpochProgress`](crate::mailbox::EpochProgress)
    /// counters publish once per chunk, so a reader polling them
    /// ([`Window::progress`](crate::window::Window::progress)) sees them
    /// stale by at most one chunk of the run being delivered. The threaded
    /// wire workers deliver single eager puts through this path too.
    ///
    /// Contention against a *different* thread's in-flight copy (possible
    /// only for direct concurrent `deliver` callers, e.g. loopback
    /// senders) falls back to the same wait-and-retry as the single path.
    pub fn deliver_batch(
        &self,
        frags: &[Fragment],
        on_nack: &mut dyn FnMut(usize, VirtAddr, NackReason),
    ) {
        let mut acc = BatchCounters::default();
        let mut i = 0;
        while i < frags.len() {
            let vaddr = frags[i].dst_vaddr;
            let mut j = i + 1;
            while j < frags.len() && frags[j].dst_vaddr == vaddr {
                j += 1;
            }
            self.deliver_run(i, &frags[i..j], &mut acc, on_nack);
            i = j;
        }
        acc.publish(&self.stats);
    }

    /// Deliver one run of fragments that all target `run[0].dst_vaddr`;
    /// `base` is the run's index in the batch, for `on_nack`.
    fn deliver_run(
        &self,
        base: usize,
        run: &[Fragment],
        acc: &mut BatchCounters,
        on_nack: &mut dyn FnMut(usize, VirtAddr, NackReason),
    ) {
        let vaddr = run[0].dst_vaddr;
        // One translation for the whole run (the batched analogue of the
        // paper's single-lookup step); `lut_hits`/`lut_misses` count
        // lookups performed, so a batched run bumps them once.
        let mailbox = match self.lut.lookup(vaddr) {
            Some(m) => {
                acc.lut_hits += 1;
                Some(m)
            }
            None => {
                acc.lut_misses += 1;
                self.config.catch_all.and_then(|ca| self.lut.lookup(ca))
            }
        };
        let Some(mailbox) = mailbox else {
            for k in 0..run.len() {
                acc.discard(
                    self.config.nacks_enabled,
                    base + k,
                    vaddr,
                    NackReason::NoSuchMailbox,
                    on_nack,
                );
            }
            return;
        };

        let nacks_enabled = self.config.nacks_enabled;
        let mut idle = Idle::new();
        let mut idx = 0;
        while idx < run.len() {
            let mut mb = mailbox.lock();
            // Fast path: no reservation outstanding — always the case
            // under per-mailbox worker sharding — so a whole chunk is
            // delivered begin-to-finish in one call with safe direct
            // copies, batched counter publication, and no reservation
            // machinery. The chunk bounds the lock hold time.
            let chunk_end = (idx + DELIVER_CHUNK).min(run.len());
            let chunk = &run[idx..chunk_end];
            // Outcomes arrive once per fragment, in order.
            let mut at = base + idx;
            let fused = mb.deliver_run_exclusive(
                chunk
                    .iter()
                    .map(|f| (f.op_key(), f.op_total_len, f.offset, &f.data[..])),
                &mut |outcome, len| {
                    match outcome {
                        DeliveryOutcome::Accepted | DeliveryOutcome::Completed => acc.accept(len),
                        DeliveryOutcome::Duplicate => acc.dups += 1,
                        DeliveryOutcome::Discarded(reason) => {
                            acc.discard(nacks_enabled, at, vaddr, reason, on_nack);
                        }
                    }
                    at += 1;
                },
            );
            if fused {
                idx = chunk_end;
                continue;
            }
            // A reservation from the unbatched path is still in flight:
            // fall back to the two-phase pair, which knows how to wait out
            // an overlap.
            let mut in_hold = 0;
            while idx < run.len() && in_hold < DELIVER_CHUNK {
                in_hold += 1;
                let f = &run[idx];
                match mb.deliver_begin(f.op_key(), f.op_total_len, f.offset, f.data.len()) {
                    BeginOutcome::Done(DeliveryOutcome::Accepted)
                    | BeginOutcome::Done(DeliveryOutcome::Completed) => {
                        acc.accept(f.data.len());
                        idx += 1;
                    }
                    BeginOutcome::Done(DeliveryOutcome::Duplicate) => {
                        acc.dups += 1;
                        idx += 1;
                    }
                    BeginOutcome::Done(DeliveryOutcome::Discarded(reason)) => {
                        acc.discard(nacks_enabled, base + idx, vaddr, reason, on_nack);
                        idx += 1;
                    }
                    BeginOutcome::Reserved(r) => {
                        // Fused copy, still under the lock. SAFETY: the
                        // reservation pins the range and nothing rotates
                        // the buffer before the matching finish below.
                        unsafe { r.fill(&f.data) };
                        // `deliver_finish` accepts even racing close(); a
                        // completion was counted by the mailbox itself.
                        mb.deliver_finish(r);
                        acc.accept(f.data.len());
                        idx += 1;
                    }
                    BeginOutcome::Contended => {
                        // Overlap with another thread's in-flight copy: the
                        // cold wait-and-retry of the single-fragment path.
                        drop(mb);
                        idle.snooze();
                        mb = mailbox.lock();
                    }
                }
            }
        }
        idle.done();
    }

    fn count_accept(&self, len: usize) {
        self.stats
            .fragments_accepted
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_accepted
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats
            .bytes_copied
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    fn discard(&self, reason: NackReason) -> DeliverResult {
        self.stats
            .fragments_discarded
            .fetch_add(1, Ordering::Relaxed);
        if self.config.nacks_enabled {
            self.stats.nacks.fetch_add(1, Ordering::Relaxed);
            DeliverResult::Nack(reason)
        } else {
            DeliverResult::Dropped(reason)
        }
    }

    /// Look up a mailbox for read-side operations (rewind service, tests).
    pub fn mailbox(&self, vaddr: VirtAddr) -> Option<Arc<Mutex<Mailbox>>> {
        self.lut.lookup(vaddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;

    fn frag(va: u64, op: u64, total: u64, off: usize, data: Vec<u8>) -> Fragment {
        Fragment {
            initiator: NodeAddr::node(9),
            op_id: op,
            dst_vaddr: VirtAddr::new(va),
            op_total_len: total,
            offset: off,
            data: Bytes::from(data),
        }
    }

    #[test]
    fn split_cuts_at_the_mtu_and_keeps_an_empty_put_as_one_fragment() {
        const MTU: usize = 64;
        const BASE: usize = 40;
        for (len, want) in [
            (0, 1),
            (1, 1),
            (MTU - 1, 1),
            (MTU, 1),
            (MTU + 1, 2),
            (3 * MTU, 3),
        ] {
            let payload = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>());
            let frags =
                Fragment::split(NodeAddr::node(9), 7, VirtAddr::new(5), BASE, &payload, MTU);
            assert_eq!(frags.len(), want, "len={len}");
            assert_eq!(mtu_ranges(len, MTU).len(), want, "len={len}");
            let whole = payload.as_ptr_range();
            let mut next = 0;
            for f in &frags {
                assert_eq!(f.offset, BASE + next, "contiguous, no overlap (len={len})");
                assert_eq!(f.op_total_len, len as u64);
                assert!(f.data.len() <= MTU);
                assert_eq!(&f.data[..], &payload[next..next + f.data.len()]);
                // Above the `Bytes` inline cutoff a fragment must alias the
                // input allocation: the split is zero-copy.
                if len > MTU {
                    let part = f.data.as_ptr_range();
                    assert!(whole.start <= part.start && part.end <= whole.end);
                }
                next += f.data.len();
            }
            assert_eq!(next, len, "fragments cover the payload (len={len})");
        }
    }

    #[test]
    fn window_roundtrip_via_deliver() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(5), Threshold::bytes(4))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 4]).unwrap();
        let r = ep.deliver(&frag(5, 1, 4, 0, vec![7; 4]));
        assert_eq!(
            r,
            DeliverResult::Ok {
                completed_epoch: true
            }
        );
        assert_eq!(n.poll().unwrap().data(), &[7; 4]);
        let s = ep.stats();
        assert_eq!(s.fragments_accepted, 1);
        assert_eq!(s.bytes_accepted, 4);
        assert_eq!(s.epochs_completed, 1);
        assert_eq!(s.lut_hits, 1);
    }

    #[test]
    fn unknown_mailbox_nacks() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let r = ep.deliver(&frag(99, 1, 4, 0, vec![0; 4]));
        assert_eq!(r, DeliverResult::Nack(NackReason::NoSuchMailbox));
        assert_eq!(ep.stats().lut_misses, 1);
        assert_eq!(ep.stats().nacks, 1);
    }

    #[test]
    fn nacks_disabled_drops_silently() {
        let ep = RvmaEndpoint::with_config(
            NodeAddr::node(1),
            EndpointConfig {
                nacks_enabled: false,
                ..Default::default()
            },
        );
        let r = ep.deliver(&frag(99, 1, 4, 0, vec![0; 4]));
        assert_eq!(r, DeliverResult::Dropped(NackReason::NoSuchMailbox));
        assert_eq!(ep.stats().nacks, 0);
        assert_eq!(ep.stats().fragments_discarded, 1);
    }

    #[test]
    fn catch_all_mailbox_captures_strays() {
        let ep = RvmaEndpoint::with_config(
            NodeAddr::node(1),
            EndpointConfig {
                catch_all: Some(VirtAddr::new(0)),
                ..Default::default()
            },
        );
        let win = ep
            .init_window(VirtAddr::new(0), Threshold::bytes(4))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 4]).unwrap();
        let r = ep.deliver(&frag(12345, 1, 4, 0, vec![3; 4]));
        assert_eq!(
            r,
            DeliverResult::Ok {
                completed_epoch: true
            }
        );
        assert_eq!(n.poll().unwrap().data(), &[3; 4]);
        // It still counts as a LUT miss (the primary lookup failed).
        assert_eq!(ep.stats().lut_misses, 1);
    }

    #[test]
    fn duplicate_window_fails() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let _w = ep
            .init_window(VirtAddr::new(5), Threshold::bytes(4))
            .unwrap();
        assert_eq!(
            ep.init_window(VirtAddr::new(5), Threshold::bytes(4))
                .err()
                .unwrap(),
            RvmaError::MailboxExists(VirtAddr::new(5))
        );
    }

    #[test]
    fn lut_capacity_limits_windows() {
        let ep = RvmaEndpoint::with_config(
            NodeAddr::node(1),
            EndpointConfig {
                lut_capacity: Some(1),
                ..Default::default()
            },
        );
        let _w = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(4))
            .unwrap();
        assert_eq!(
            ep.init_window(VirtAddr::new(2), Threshold::bytes(4))
                .err()
                .unwrap(),
            RvmaError::LutFull
        );
        assert!(ep.evict(VirtAddr::new(1)));
        let _w2 = ep
            .init_window(VirtAddr::new(2), Threshold::bytes(4))
            .unwrap();
        assert_eq!(ep.lut_len(), 1);
    }

    #[test]
    fn closed_window_nacks_but_stays_resolvable() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(5), Threshold::bytes(4))
            .unwrap();
        win.close();
        let r = ep.deliver(&frag(5, 1, 4, 0, vec![0; 4]));
        assert_eq!(r, DeliverResult::Nack(NackReason::WindowClosed));
        // After eviction the reason degrades to NoSuchMailbox.
        ep.evict(VirtAddr::new(5));
        let r = ep.deliver(&frag(5, 2, 4, 0, vec![0; 4]));
        assert_eq!(r, DeliverResult::Nack(NackReason::NoSuchMailbox));
    }

    #[test]
    fn zero_threshold_window_rejected() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        assert_eq!(
            ep.init_window(VirtAddr::new(5), Threshold::bytes(0))
                .err()
                .unwrap(),
            RvmaError::ZeroThreshold
        );
    }

    #[test]
    fn dedup_window_blocks_early_completion() {
        // The reliability-layer guarantee at the endpoint boundary: with a
        // dedup window configured, a duplicated final fragment is dropped
        // instead of completing the next epoch early.
        let ep = RvmaEndpoint::with_config(
            NodeAddr::node(1),
            EndpointConfig {
                dedup_window: 16,
                ..Default::default()
            },
        );
        let win = ep
            .init_window(VirtAddr::new(5), Threshold::bytes(4))
            .unwrap();
        let mut n1 = win.post_buffer(vec![0; 4]).unwrap();
        let mut n2 = win.post_buffer(vec![0; 4]).unwrap();
        let completer = frag(5, 1, 4, 0, vec![7; 4]);
        assert_eq!(
            ep.deliver(&completer),
            DeliverResult::Ok {
                completed_epoch: true
            }
        );
        assert_eq!(ep.deliver(&completer), DeliverResult::Duplicate);
        assert_eq!(n1.poll().unwrap().data(), &[7; 4]);
        assert!(n2.poll().is_none(), "duplicate must not complete epoch 1");
        let s = ep.stats();
        assert_eq!(s.duplicates_dropped, 1);
        assert_eq!(s.fragments_accepted, 1, "duplicate not counted accepted");
        assert_eq!(s.fragments_discarded, 0, "duplicate not counted discarded");
        assert_eq!(s.epochs_completed, 1);
    }

    #[test]
    fn dedup_window_applies_to_batches() {
        let ep = RvmaEndpoint::with_config(
            NodeAddr::node(1),
            EndpointConfig {
                dedup_window: 16,
                ..Default::default()
            },
        );
        let win = ep
            .init_window(VirtAddr::new(5), Threshold::bytes(8))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        let frags = vec![
            frag(5, 1, 8, 0, vec![1; 4]),
            frag(5, 1, 8, 0, vec![1; 4]), // duplicated mid-batch
            frag(5, 1, 8, 4, vec![2; 4]),
        ];
        ep.deliver_batch(&frags, &mut |_, _, _| panic!("no nacks expected"));
        assert_eq!(n.poll().unwrap().data(), &[1, 1, 1, 1, 2, 2, 2, 2]);
        let s = ep.stats();
        assert_eq!(s.duplicates_dropped, 1);
        assert_eq!(s.fragments_accepted, 2);
        assert_eq!(s.epochs_completed, 1);
    }

    #[test]
    fn concurrent_delivery_to_distinct_mailboxes() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let mut notifications = Vec::new();
        for i in 0..8u64 {
            let win = ep
                .init_window(VirtAddr::new(i), Threshold::bytes(1024))
                .unwrap();
            notifications.push(win.post_buffer(vec![0; 1024]).unwrap());
        }
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let ep = &ep;
                s.spawn(move || {
                    for k in 0..256usize {
                        let f = frag(i, k as u64, 4, k * 4, vec![i as u8; 4]);
                        assert!(matches!(ep.deliver(&f), DeliverResult::Ok { .. }));
                    }
                });
            }
        });
        for (i, n) in notifications.iter_mut().enumerate() {
            let buf = n.poll().expect("all epochs completed");
            assert_eq!(buf.data(), vec![i as u8; 1024].as_slice());
        }
        assert_eq!(ep.stats().epochs_completed, 8);
        assert_eq!(ep.stats().bytes_accepted, 8 * 1024);
    }

    #[test]
    fn concurrent_delivery_to_one_mailbox_disjoint_ranges() {
        // 8 threads incast into ONE mailbox at disjoint offsets; the copies
        // overlap outside the lock and the epoch completes exactly once,
        // with every byte accounted for.
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(3), Threshold::bytes(8 * 512))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 8 * 512]).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let ep = &ep;
                s.spawn(move || {
                    for k in 0..128usize {
                        let off = t as usize * 512 + k * 4;
                        let f = frag(3, t * 1000 + k as u64, 4, off, vec![t as u8 + 1; 4]);
                        assert!(matches!(ep.deliver(&f), DeliverResult::Ok { .. }));
                    }
                });
            }
        });
        let buf = n.poll().expect("epoch completed");
        for t in 0..8usize {
            assert_eq!(
                &buf.data()[t * 512..(t + 1) * 512],
                vec![t as u8 + 1; 512].as_slice()
            );
        }
        assert_eq!(ep.stats().epochs_completed, 1);
        assert_eq!(ep.stats().bytes_accepted, 8 * 512);
    }

    #[test]
    fn batch_delivery_amortizes_lut_lookups() {
        // One batch spanning two mailboxes: each run of consecutive
        // same-vaddr fragments costs a single LUT lookup.
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win_a = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(8))
            .unwrap();
        let win_b = ep
            .init_window(VirtAddr::new(2), Threshold::bytes(8))
            .unwrap();
        let mut na = win_a.post_buffer(vec![0; 8]).unwrap();
        let mut nb = win_b.post_buffer(vec![0; 8]).unwrap();
        let frags = vec![
            frag(1, 1, 4, 0, vec![0xA; 4]),
            frag(1, 2, 4, 4, vec![0xB; 4]),
            frag(2, 3, 4, 0, vec![0xC; 4]),
            frag(2, 4, 4, 4, vec![0xD; 4]),
        ];
        let mut nacks = Vec::new();
        ep.deliver_batch(&frags, &mut |_, va, r| nacks.push((va, r)));
        assert!(nacks.is_empty());
        assert_eq!(
            na.poll().unwrap().data(),
            &[0xA, 0xA, 0xA, 0xA, 0xB, 0xB, 0xB, 0xB]
        );
        assert_eq!(
            nb.poll().unwrap().data(),
            &[0xC, 0xC, 0xC, 0xC, 0xD, 0xD, 0xD, 0xD]
        );
        let s = ep.stats();
        assert_eq!(s.fragments_accepted, 4);
        assert_eq!(s.bytes_accepted, 16);
        assert_eq!(s.epochs_completed, 2);
        assert_eq!(s.lut_hits, 2, "one lookup per run, not per fragment");
        assert_eq!(s.lut_misses, 0);
    }

    #[test]
    fn batch_delivery_mixes_accepts_and_nacks() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(4))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 4]).unwrap();
        let frags = vec![
            frag(1, 1, 4, 0, vec![7; 4]),
            frag(99, 2, 4, 0, vec![0; 4]),
            frag(99, 3, 4, 0, vec![0; 4]),
        ];
        let mut nacks = Vec::new();
        ep.deliver_batch(&frags, &mut |_, va, r| nacks.push((va, r)));
        assert_eq!(n.poll().unwrap().data(), &[7; 4]);
        assert_eq!(
            nacks,
            vec![
                (VirtAddr::new(99), NackReason::NoSuchMailbox),
                (VirtAddr::new(99), NackReason::NoSuchMailbox),
            ]
        );
        let s = ep.stats();
        assert_eq!(s.fragments_accepted, 1);
        assert_eq!(s.fragments_discarded, 2);
        assert_eq!(s.nacks, 2);
        assert_eq!(s.lut_misses, 1, "the miss run costs one lookup");
    }

    #[test]
    fn batch_serializes_overlapping_fragments_in_batch_order() {
        // Two fragments of one batch target the SAME range: the second must
        // observe the first's reservation, retire the chunk early, and land
        // afterwards — last writer in batch order wins.
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep.init_window(VirtAddr::new(1), Threshold::ops(2)).unwrap();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        let frags = vec![frag(1, 1, 8, 0, vec![1; 8]), frag(1, 2, 8, 0, vec![2; 8])];
        let mut nacks = Vec::new();
        ep.deliver_batch(&frags, &mut |_, va, r| nacks.push((va, r)));
        assert!(nacks.is_empty());
        let buf = n.poll().expect("two ops counted");
        assert_eq!(buf.data(), &[2; 8], "batch order preserved on overlap");
        assert_eq!(ep.stats().epochs_completed, 1);
    }

    #[test]
    fn batch_spanning_epochs_rotates_buffers() {
        // One batch carrying two epochs' worth of non-overlapping ops: the
        // chunk must retire at the threshold so ops 3 and 4 land in the
        // second buffer, exactly as if delivered one at a time.
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep.init_window(VirtAddr::new(1), Threshold::ops(2)).unwrap();
        let mut n1 = win.post_buffer(vec![0; 16]).unwrap();
        let mut n2 = win.post_buffer(vec![0; 16]).unwrap();
        let frags = vec![
            frag(1, 1, 4, 0, vec![1; 4]),
            frag(1, 2, 4, 4, vec![2; 4]),
            frag(1, 3, 4, 8, vec![3; 4]),
            frag(1, 4, 4, 12, vec![4; 4]),
        ];
        ep.deliver_batch(&frags, &mut |_, _, _| panic!("no nacks expected"));
        let b1 = n1.poll().expect("first epoch");
        let b2 = n2.poll().expect("second epoch");
        assert_eq!(&b1.full_buffer()[..8], &[1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(&b1.full_buffer()[8..], &[0; 8], "ops 3-4 must not leak in");
        assert_eq!(&b2.full_buffer()[8..], &[3, 3, 3, 3, 4, 4, 4, 4]);
        assert_eq!(ep.stats().epochs_completed, 2);
    }

    #[test]
    fn batch_zero_length_fragment_counts_as_op() {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep.init_window(VirtAddr::new(1), Threshold::ops(1)).unwrap();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        let frags = vec![frag(1, 1, 0, 0, vec![])];
        ep.deliver_batch(&frags, &mut |_, _, _| panic!("no nacks expected"));
        assert_eq!(n.poll().unwrap().len(), 0);
        assert_eq!(ep.stats().epochs_completed, 1);
    }

    #[test]
    fn concurrent_overlapping_writers_serialize_without_deadlock() {
        // Discouraged-but-legal usage: several threads hammer the SAME range.
        // The contended-retry path must serialize them, not deadlock or race.
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(4), Threshold::ops(64))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 64]).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ep = &ep;
                s.spawn(move || {
                    for k in 0..16u64 {
                        let f = frag(4, t * 100 + k, 64, 0, vec![t as u8; 64]);
                        assert!(matches!(ep.deliver(&f), DeliverResult::Ok { .. }));
                    }
                });
            }
        });
        let buf = n.poll().expect("op threshold reached");
        // Whatever writer landed last, the buffer is one coherent write.
        let first = buf.data()[0];
        assert!(buf.data().iter().all(|&b| b == first));
        assert_eq!(ep.stats().epochs_completed, 1);
    }
}
