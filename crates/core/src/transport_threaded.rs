//! Asynchronous in-process transport: a pool of background "wire" threads.
//!
//! [`LoopbackNetwork`](crate::transport::LoopbackNetwork) runs the target
//! NIC datapath inline on the caller's thread — ideal for tests, but the
//! caller observes its own put's completion synchronously. `AsyncNetwork`
//! decouples them the way real hardware does:
//!
//! * `put` enqueues fragments and **returns immediately**;
//! * a pool of wire workers (optionally adding a fixed delivery latency
//!   per fragment) runs the endpoint datapaths, so completion pointers are
//!   written from *other threads* — the receiver's `Notification::wait`
//!   exercises the true Monitor/MWait path;
//! * NACKs become what they are on a real network: asynchronous
//!   notifications, collected per initiator via
//!   [`AsyncInitiator::take_nacks`].
//!
//! # Threading model
//!
//! The pool models a multi-queue NIC. Each worker owns one **bounded MPSC
//! ring queue** ([`RingQueue`]); fragments are
//! sharded across queues by a hash of **(destination node, destination
//! mailbox)**. Two consequences:
//!
//! * **Per-mailbox ordering is preserved.** Every fragment addressed to a
//!   given mailbox traverses the same FIFO queue and is delivered by the
//!   same worker, so a `Managed`-mode (cursor-append) mailbox observes
//!   submissions in order even with many workers. Cross-mailbox ordering is
//!   *not* preserved — by design; RVMA's threshold semantics never needed
//!   it.
//! * **Disjoint mailboxes scale.** An N-way incast to N distinct mailboxes
//!   spreads across min(N, workers) queues; with the sharded LUT and each
//!   mailbox owned by one worker there is no lock two workers contend on,
//!   so workers proceed independently.
//!
//! **Backpressure contract.** Each ring holds at most
//! [`EndpointConfig::wire_queue_cap`](crate::endpoint::EndpointConfig)
//! messages. A submission finding its ring full **blocks** (spin under the
//! idle budget, then yield) until the worker frees a slot — it never
//! silently drops a fragment and never grows the queue. A slow receiver under incast
//! therefore stalls its senders instead of swallowing unbounded memory;
//! the stall count and high-water depth are observable through
//! [`AsyncNetwork::queue_stats`] and the endpoint's `StatsSnapshot`.
//!
//! **Idle policy.** A worker that finds its ring empty spins under its
//! thread's adaptive budget — the crate's one idle policy (DESIGN.md §11),
//! which drops to 0 wherever spinning does not pay, e.g. on one CPU — and
//! then parks. Producers ring a doorbell (one `SeqCst` flag check per
//! push, `unpark` only when the worker is actually parked), so an idle
//! worker costs nothing while a hot worker never takes a futex wake on the
//! fragment path.
//!
//! The worker count comes from [`AsyncNetwork::with_options`] (or
//! [`EndpointConfig::wire_workers`](crate::endpoint::EndpointConfig) via
//! [`AsyncNetwork::for_endpoint_config`]); [`AsyncNetwork::new`] keeps the
//! single-worker behaviour.
//!
//! # Submission path
//!
//! The initiator side is batched and allocation-light, which is what makes
//! high small-message rates possible (the initiator-side analogue of the
//! paper's receive-side amortization, Fig. 6):
//!
//! * **Route cache.** Each initiator keeps a small lock-free cache of
//!   (destination, mailbox) → worker-queue routes, validated against the
//!   network's endpoint **generation counter** (bumped by
//!   `add_endpoint`/`register`/`remove_endpoint`). A steady-state `put`
//!   touches no `RwLock` and never re-hashes the shard; only a cache miss
//!   consults the endpoint table (and fails fast with
//!   [`RvmaError::UnknownDestination`]).
//! * **Inline fast path.** A put of at most one MTU skips the fragment
//!   loop entirely: one pooled payload copy, one [`Fragment`], one channel
//!   send — no intermediate `Vec`, no shuffle, no per-fragment `Arc`
//!   clones.
//! * **Rendezvous lane.** An owned payload above the endpoint config's
//!   `eager_threshold` ([`AsyncInitiator::put_bytes_at`]) is never staged
//!   and never cut at the MTU: the caller's `Bytes` crosses the ring as
//!   one descriptor and the receiver gathers it with one copy.
//! * **Payload pool.** Fragment payload storage is recycled through a
//!   per-initiator [`PayloadPool`]: the copy every asynchronous put must
//!   make lands in a reused allocation once the pool is warm
//!   ([`AsyncInitiator::pool_stats`]).
//! * **Doorbell batching.** A multi-fragment put crosses the channel as a
//!   single `WireMsg` batch per (put × worker shard) instead of one send
//!   per fragment, and [`AsyncInitiator::batch`] coalesces *many* puts
//!   into one crossing, flushed explicitly or by an auto-flush doorbell
//!   threshold.
//! * **Receive runs.** The worker drains its ring the way a NIC drains a
//!   receive queue: with a fault-free link, the eager message it pops and
//!   the eager messages already queued behind it (up to a fixed fragment
//!   bound; it never waits for more) are delivered as one run through
//!   [`RvmaEndpoint::deliver_batch`]. That amortizes LUT lookups, mailbox
//!   lock acquisitions (one per
//!   [`DELIVER_CHUNK`](crate::endpoint::DELIVER_CHUNK) fragments instead
//!   of two per fragment) and stats updates over single puts and batches
//!   alike. Each message's NACKs still go to its own initiator's sink,
//!   and its `PutFuture` countdown is settled once. Rendezvous
//!   descriptors, every unit on a lossy link, and `Flush`/`Stop` markers
//!   keep per-message handling; a marker popped while gathering is
//!   processed right after the run.
//!
//! [`AsyncNetwork::quiesce`] broadcasts a flush barrier to every queue and
//! waits for all workers to ack it; because queues are FIFO, every fragment
//! submitted before the call is delivered when it returns. Dropping the
//! network enqueues a stop marker *behind* any in-flight traffic on every
//! queue and joins each worker, so shutdown deterministically drains all
//! shards — no fragment accepted by `put` is ever dropped by teardown.
//!
//! # Fault injection (the link-level reliability layer)
//!
//! [`AsyncNetwork::for_endpoint_config`] with a non-trivial
//! [`EndpointConfig::fault_model`](crate::endpoint::EndpointConfig) turns
//! each wire worker into a lossy link with its own seeded
//! [`FaultInjector`] (seeds derived from
//! [`fault_seed`](crate::endpoint::EndpointConfig), counters shared in one
//! [`FaultStats`]). What the link does to a fragment — and why neither
//! `quiesce` nor teardown can strand one — is
//! [the link discipline](crate::retry#the-link-discipline), shared with the
//! shm backend. This transport contributes only the mechanism: a
//! retransmission goes to the back of the *same* worker's ring (spilling to
//! a worker-local list when the ring is full), a batch under faults travels
//! as individual fragments and no receive run is formed, `quiesce` re-runs
//! its flush barrier until no
//! retransmission is pending, and a crash removes the endpoint from the
//! network exactly as [`AsyncNetwork::remove_endpoint`] does.

use crate::addr::{NodeAddr, VirtAddr};
use crate::csync::{self, AtomicU64 as CheckedU64, Idle, Mutation};
use crate::endpoint::{mtu_ranges, EndpointConfig, Fragment, RvmaEndpoint};
use crate::error::{NackReason, Result, RvmaError};
use crate::notify::AtomicWaker;
use crate::pool::{PayloadPool, PoolStats};
use crate::retry::{deliver_copies, Admit, FaultInjector, FaultStats, LinkFaults};
use crate::ring::{PushError, RingQueue, RingStats, RingStatsSnapshot};
use crate::telemetry::{self, EventKind, Telemetry};
use crate::transport::{DeliveryOrder, DEFAULT_MTU};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default doorbell threshold of [`AsyncInitiator::batch`]: a batch
/// auto-flushes once this many fragments are pending.
pub const DEFAULT_DOORBELL_FRAGS: usize = 256;

/// Slots in an initiator's route cache (direct-mapped).
const ROUTE_SLOTS: usize = 8;

type NackSink = Arc<Mutex<Vec<(VirtAddr, NackReason)>>>;

/// Shared delivery-completion state of a notified put
/// ([`AsyncInitiator::put_notify`]): one atomic fragment countdown
/// travelling with the put's wire messages, decremented by the wire worker
/// at each fragment's **final disposition** — delivered to the endpoint or
/// NACKed — never on a retransmission (the retried copy carries the handle
/// onward). When the countdown hits zero the worker publishes `done` and
/// wakes the registered [`PutFuture`] through the same [`AtomicWaker`]
/// handoff the notification path uses: no lock, one `fetch_sub` + one
/// `wake` on the hot path.
pub(crate) struct PutNotify {
    /// Fragments not yet at their final disposition.
    remaining: AtomicU64,
    /// Any fragment NACKed (duplicated copies count once per NACK rolled).
    nacked: AtomicBool,
    /// Published after the last decrement, before the wake.
    done: AtomicBool,
    waker: AtomicWaker,
}

impl PutNotify {
    pub(crate) fn new(fragments: u64) -> Arc<PutNotify> {
        debug_assert!(fragments > 0);
        Arc::new(PutNotify {
            remaining: AtomicU64::new(fragments),
            nacked: AtomicBool::new(false),
            done: AtomicBool::new(false),
            waker: AtomicWaker::new(),
        })
    }

    /// `n > 0` fragments reached their final disposition.
    pub(crate) fn fragments_done(&self, n: u64, any_nacked: bool) {
        if any_nacked {
            self.nacked.store(true, Ordering::SeqCst);
        }
        let prev = self.remaining.fetch_sub(n, Ordering::SeqCst);
        debug_assert!(prev >= n, "put_notify fragment countdown underflow");
        if prev == n {
            self.done.store(true, Ordering::SeqCst);
            self.waker.wake();
        }
    }
}

/// What a [`PutFuture`] resolves to: the put's fragments all reached the
/// wire's final disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutDelivery {
    /// Wire fragments the put travelled as: one per MTU on the eager
    /// lane, 1 for a rendezvous put (one descriptor, whatever its length).
    pub fragments: u64,
    /// True when any fragment was NACKed (e.g. `NoSuchMailbox` after a
    /// crash fault); the NACK reasons themselves are in
    /// [`AsyncInitiator::take_nacks`].
    pub nacked: bool,
}

/// Future side of [`AsyncInitiator::put_notify`]: resolves when every
/// fragment of the put has been delivered (or NACKed) by the wire workers.
///
/// This is the *initiator's* local-completion signal — the moment the
/// paper's `RVMA_Put` buffer-reuse guarantee holds — not the receiver's
/// threshold completion, which remains the notification machinery's job.
/// The future is independent of any executor; poll it from one, or
/// `block_on` it. `poll` never blocks: a backend whose acks must be
/// drained by the waiter (the shm client) is driven a step per poll, and
/// the future wakes itself while it spins.
#[must_use = "a PutFuture does nothing unless polled"]
pub struct PutFuture {
    notify: Arc<PutNotify>,
    fragments: u64,
    drain: Option<Drain>,
}

/// A backend whose completions advance only while someone drains them
/// (the shm client's response ring). The waiter is its progress engine;
/// a helper takes over only while some waiter has armed it.
pub(crate) trait Progress: Send + Sync {
    /// Drain whatever completions are ready, unless another thread is.
    fn drive(&self);
    /// The caller stops driving: the helper drains until the matching
    /// [`disarm`](Progress::disarm).
    fn arm(&self);
    fn disarm(&self);
}

/// A driven [`PutFuture`]'s progress hook and how far its spin has got.
struct Drain {
    hook: Arc<dyn Progress>,
    idle: Idle,
    armed: bool,
}

impl Drain {
    /// A poll found the put unresolved. While the thread's adaptive budget
    /// lasts, spin one step and wake the task so it polls (and drives)
    /// again; once it runs out (the wait settles as a miss), arm the
    /// helper, whose drain wakes the registered waker.
    fn pend(&mut self, waker: &Waker) {
        if self.armed {
            return;
        }
        if self.idle.spin() {
            waker.wake_by_ref();
        } else {
            self.armed = true;
            self.hook.arm();
        }
    }

    /// The put resolved: credit the spin, and hand the helper back.
    fn resolved(&mut self) {
        self.idle.done();
        if std::mem::take(&mut self.armed) {
            self.hook.disarm();
        }
    }
}

impl Drop for Drain {
    fn drop(&mut self) {
        if self.armed {
            self.hook.disarm();
        }
    }
}

impl PutFuture {
    /// Wrap a delivery countdown shared with a transport backend (the
    /// threaded workers decrement it in-process; the shm client decrements
    /// it from cross-process acks, drained through `progress`).
    pub(crate) fn from_notify(
        notify: Arc<PutNotify>,
        fragments: u64,
        progress: Option<Arc<dyn Progress>>,
    ) -> PutFuture {
        PutFuture {
            notify,
            fragments,
            drain: progress.map(|hook| Drain {
                hook,
                idle: Idle::new(),
                armed: false,
            }),
        }
    }

    /// True once delivery finished (the future would resolve immediately).
    pub fn is_done(&self) -> bool {
        self.notify.done.load(Ordering::SeqCst)
    }
}

impl Future for PutFuture {
    type Output = PutDelivery;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<PutDelivery> {
        let this = self.get_mut();
        if let Some(d) = &this.drain {
            d.hook.drive();
        }
        if !this.notify.done.load(Ordering::SeqCst) {
            this.notify.waker.register(cx.waker());
            // Re-check after registration: a completer that published
            // `done` between the first check and the register either saw
            // the waker (and woke it) or lost the race to this load.
            // Either way no wake is missed.
            if !this.notify.done.load(Ordering::SeqCst) {
                if let Some(d) = &mut this.drain {
                    d.pend(cx.waker());
                }
                return Poll::Pending;
            }
        }
        if let Some(d) = &mut this.drain {
            d.resolved();
        }
        Poll::Ready(PutDelivery {
            fragments: this.fragments,
            nacked: this.notify.nacked.load(Ordering::SeqCst),
        })
    }
}

impl std::fmt::Debug for PutFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PutFuture")
            .field("fragments", &self.fragments)
            .field("done", &self.is_done())
            .finish()
    }
}

enum WireMsg {
    /// A single fragment: the small-message inline fast path, a whole
    /// rendezvous put (one descriptor, whatever its length), and the
    /// retransmission path of the fault layer.
    Deliver {
        dest: NodeAddr,
        frag: Fragment,
        nacks: NackSink,
        /// Fault-layer attempts already burned on this fragment (0 for a
        /// fresh submission). Once it reaches the retry budget the
        /// fragment is delivered without rolling the fault dice.
        attempt: u32,
        /// Delivery countdown of a notified put; retransmissions carry it
        /// forward so the decrement happens exactly once per fragment.
        notify: Option<Arc<PutNotify>>,
    },
    /// A submission batch for one destination endpoint: the fragments of
    /// one multi-fragment put, or many coalesced puts from a
    /// [`PutBatch`]. One channel crossing and one NACK-sink reference for
    /// the whole batch.
    DeliverBatch {
        dest: NodeAddr,
        frags: Vec<Fragment>,
        nacks: NackSink,
        /// Delivery countdown when the batch is one notified put's
        /// fragments ([`PutBatch`] coalesced batches carry `None`).
        notify: Option<Arc<PutNotify>>,
    },
    /// Quiesce barrier: the worker bumps the counter when every message
    /// queued before this one has been processed.
    Flush {
        acks: Arc<AtomicUsize>,
    },
    Stop,
}

struct Shared {
    endpoints: RwLock<HashMap<NodeAddr, Arc<RvmaEndpoint>>>,
    /// Bumped on every endpoint add/register/remove; route caches and the
    /// workers' endpoint caches revalidate against it. Starts at 1 so a
    /// zeroed route-cache slot can never spuriously match.
    generation: AtomicU64,
    mtu: usize,
    order: DeliveryOrder,
    rng: Mutex<StdRng>,
    /// One bounded FIFO ring per wire worker (see the module docs'
    /// backpressure contract).
    queues: Vec<Arc<RingQueue<WireMsg>>>,
    /// Depth/backpressure counters shared by every ring of this network.
    ring_stats: Arc<RingStats>,
    /// Configuration applied to endpoints created by
    /// [`AsyncNetwork::add_endpoint`] (dedup window, fault model, …).
    endpoint_config: EndpointConfig,
    /// The link-level reliability layer (present only when the endpoint
    /// config carries a non-trivial fault model).
    faults: Option<LinkFaults>,
    /// Network-wide telemetry recorder (present when
    /// [`EndpointConfig::telemetry`] is set); attached to every endpoint
    /// the network creates or registers.
    telemetry: Option<Arc<Telemetry>>,
}

#[inline]
fn pack_addr(a: NodeAddr) -> u64 {
    ((a.nid as u64) << 32) | a.pid as u64
}

#[inline]
fn route_hash(dest: u64, vaddr: u64) -> u64 {
    (dest ^ vaddr.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

impl Shared {
    /// Queue index for a fragment: hash of (destination node, destination
    /// mailbox), so one mailbox's traffic always lands on one FIFO queue.
    fn queue_index(&self, dest: NodeAddr, vaddr: VirtAddr) -> usize {
        route_hash(pack_addr(dest), vaddr.raw()) as usize % self.queues.len()
    }

    /// Detach the endpoint at `addr` — [`AsyncNetwork::remove_endpoint`]
    /// and the crash fault alike. The generation bump stales every cached
    /// route; fragments already queued NACK `NoSuchMailbox` at the worker.
    fn remove_endpoint(&self, addr: NodeAddr) -> bool {
        let removed = self.endpoints.write().remove(&addr).is_some();
        if removed {
            self.generation.fetch_add(1, Ordering::Release);
        }
        removed
    }
}

/// One direct-mapped route-cache slot, published seqlock-style: `seq` is
/// even when stable, odd while a writer is mid-publish; readers that
/// observe a seq change retry as a miss. All fields are atomics, so
/// readers and the (single successful) writer never data-race.
///
/// `pub(crate)` (fields on the checked `csync` atomics) so the
/// `check::models` suite can enumerate reader-vs-publisher interleavings
/// against the shipping implementation.
#[derive(Default)]
pub(crate) struct RouteSlot {
    seq: CheckedU64,
    dest: CheckedU64,
    vaddr: CheckedU64,
    generation: CheckedU64,
    queue: CheckedU64,
}

impl RouteSlot {
    pub(crate) fn read(&self, dest: u64, vaddr: u64, generation: u64) -> Option<usize> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let d = self.dest.load(Ordering::Acquire);
        let v = self.vaddr.load(Ordering::Acquire);
        let g = self.generation.load(Ordering::Acquire);
        let q = self.queue.load(Ordering::Acquire);
        if self.seq.load(Ordering::Acquire) != s1 {
            return None;
        }
        (d == dest && v == vaddr && g == generation).then_some(q as usize)
    }

    pub(crate) fn publish(&self, dest: u64, vaddr: u64, generation: u64, queue: usize) {
        // Seeded mutation (checker builds only): skip the odd-sequence
        // write lock and store the fields bare — a concurrent reader can
        // then observe a half-updated route that still passes its seq
        // recheck. `check::mutations` proves the model flags this.
        if csync::mutation(Mutation::SeqlockTornPublish) {
            self.dest.store(dest, Ordering::Release);
            self.vaddr.store(vaddr, Ordering::Release);
            self.generation.store(generation, Ordering::Release);
            self.queue.store(queue as u64, Ordering::Release);
            return;
        }
        let s = self.seq.load(Ordering::Relaxed);
        if s & 1 == 1 {
            return; // another writer mid-publish: caching is best-effort
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.dest.store(dest, Ordering::Release);
        self.vaddr.store(vaddr, Ordering::Release);
        self.generation.store(generation, Ordering::Release);
        self.queue.store(queue as u64, Ordering::Release);
        self.seq.store(s + 2, Ordering::Release);
    }
}

struct RouteCache {
    slots: [RouteSlot; ROUTE_SLOTS],
}

impl RouteCache {
    fn new() -> Self {
        RouteCache {
            slots: std::array::from_fn(|_| RouteSlot::default()),
        }
    }

    fn slot(&self, dest: u64, vaddr: u64) -> &RouteSlot {
        &self.slots[route_hash(dest, vaddr) as usize % ROUTE_SLOTS]
    }
}

/// Point-in-time route-cache counters of an [`AsyncInitiator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Submissions routed from the cache (no lock, no rehash).
    pub hits: u64,
    /// Submissions that consulted the endpoint table.
    pub misses: u64,
}

impl RouteStats {
    /// Hits as a fraction of all route resolutions (1.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The asynchronous in-process network.
pub struct AsyncNetwork {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A wire worker's generation-validated endpoint cache: steady-state
/// delivery resolves destinations from a thread-local map instead of the
/// shared `RwLock`ed table. Negative results are not cached.
struct EndpointCache {
    generation: u64,
    map: HashMap<NodeAddr, Arc<RvmaEndpoint>>,
}

impl EndpointCache {
    fn new() -> Self {
        EndpointCache {
            generation: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, shared: &Shared, dest: NodeAddr) -> Option<Arc<RvmaEndpoint>> {
        let current = shared.generation.load(Ordering::Acquire);
        if current != self.generation {
            self.map.clear();
            self.generation = current;
        }
        if let Some(ep) = self.map.get(&dest) {
            return Some(ep.clone());
        }
        let ep = shared.endpoints.read().get(&dest).cloned();
        if let Some(ep) = &ep {
            self.map.insert(dest, ep.clone());
        }
        ep
    }
}

/// The quiesce barrier shared by [`AsyncNetwork::quiesce`] and the
/// initiator-side [`Transport::flush`]: broadcast a flush marker to every
/// worker ring, wait for an ack per marker enqueued, and repeat while any
/// link-level retransmission is still pending (a faulted fragment's retries
/// land behind the first barrier). A closed ring — the network was dropped —
/// takes no marker and will never ack one: that is an error, not a wait.
///
/// [`Transport::flush`]: crate::transport::Transport::flush
fn quiesce_shared(shared: &Shared) -> Result<()> {
    loop {
        let acks = Arc::new(AtomicUsize::new(0));
        let mut sent = 0;
        for q in &shared.queues {
            sent += q.push(WireMsg::Flush { acks: acks.clone() }).is_ok() as usize;
        }
        let mut idle = Idle::new();
        while acks.load(Ordering::Acquire) < sent {
            idle.snooze();
        }
        idle.done();
        if sent < shared.queues.len() {
            return Err(RvmaError::UnknownDestination);
        }
        match &shared.faults {
            Some(faults) if faults.pending_retries() > 0 => continue,
            _ => return Ok(()),
        }
    }
}

/// Most fragments one run gathers before it is delivered. A message is
/// never split, so one large `DeliverBatch` may exceed it on its own.
const RUN_FRAGS: usize = 256;

/// Eager messages popped back to back and delivered as one
/// [`RvmaEndpoint::deliver_batch`] call per same-destination stretch.
/// Owned by the worker and emptied after each run, so steady state
/// allocates nothing.
#[derive(Default)]
struct Run {
    /// Every fragment of the run, in pop order.
    frags: Vec<Fragment>,
    /// One entry per message, in pop order.
    units: Vec<RunUnit>,
    /// The run's refusals, tagged with the refused fragment's index in
    /// `frags` (ascending: `deliver_batch` reports in batch order).
    nacks: Vec<(usize, VirtAddr, NackReason)>,
}

/// What a message of a run must get back: its NACKs and its countdown.
struct RunUnit {
    dest: NodeAddr,
    /// One past the message's last fragment in [`Run::frags`].
    end: usize,
    nacks: NackSink,
    notify: Option<Arc<PutNotify>>,
}

impl Run {
    fn push(&mut self, msg: WireMsg) {
        let (dest, nacks, notify) = match msg {
            WireMsg::Deliver {
                dest,
                frag,
                nacks,
                notify,
                ..
            } => {
                self.frags.push(frag);
                (dest, nacks, notify)
            }
            WireMsg::DeliverBatch {
                dest,
                mut frags,
                nacks,
                notify,
            } => {
                self.frags.append(&mut frags);
                (dest, nacks, notify)
            }
            WireMsg::Flush { .. } | WireMsg::Stop => {
                unreachable!("control messages never join a run")
            }
        };
        self.units.push(RunUnit {
            dest,
            end: self.frags.len(),
            nacks,
            notify,
        });
    }

    /// Deliver the fragments, one `deliver_batch` per stretch of messages
    /// to the same endpoint, collecting every refusal into `nacks`.
    fn deliver(&mut self, shared: &Shared, cache: &mut EndpointCache) {
        if shared.telemetry.is_some() {
            for f in &self.frags {
                telemetry::record(
                    &shared.telemetry,
                    EventKind::WireDeliver,
                    telemetry::initiator_key(f.initiator.nid, f.initiator.pid),
                    f.op_id,
                    f.offset as u64,
                );
            }
        }
        let nacks = &mut self.nacks;
        let mut start = 0;
        for stretch in self.units.chunk_by(|a, b| a.dest == b.dest) {
            let end = stretch[stretch.len() - 1].end;
            let frags = &self.frags[start..end];
            match cache.get(shared, stretch[0].dest) {
                Some(ep) => ep.deliver_batch(frags, &mut |i, vaddr, reason| {
                    nacks.push((start + i, vaddr, reason))
                }),
                None => nacks.extend(
                    frags
                        .iter()
                        .enumerate()
                        .map(|(i, f)| (start + i, f.dst_vaddr, NackReason::NoSuchMailbox)),
                ),
            }
            start = end;
        }
        self.frags.clear();
    }

    /// Give each message its own NACKs — one sink lock per message that
    /// has any — then its countdown, and empty the run for reuse.
    fn settle(&mut self) {
        let (mut start, mut k) = (0, 0);
        for unit in self.units.drain(..) {
            let first = k;
            while k < self.nacks.len() && self.nacks[k].0 < unit.end {
                k += 1;
            }
            let own = &self.nacks[first..k];
            if !own.is_empty() {
                let mut sink = unit.nacks.lock();
                sink.extend(own.iter().map(|&(_, vaddr, reason)| (vaddr, reason)));
            }
            if let Some(n) = unit.notify {
                n.fragments_done((unit.end - start) as u64, !own.is_empty());
            }
            start = unit.end;
        }
        self.nacks.clear();
    }
}

/// One wire worker: the consumer of ring `idx`, its generation-validated
/// endpoint cache, and — on a lossy link — its own seeded dice.
struct WireWorker<'a> {
    shared: &'a Shared,
    ring: &'a RingQueue<WireMsg>,
    latency: Duration,
    cache: EndpointCache,
    /// Link-level retransmissions the full ring could not take back (see
    /// [`WireWorker::enqueue_retry`]).
    deferred: VecDeque<WireMsg>,
    link: Option<(&'a LinkFaults, FaultInjector)>,
    run: Run,
    /// The message that ended the last run's gathering: it is the next one
    /// processed, so a `Flush` or `Stop` still lands after everything
    /// queued ahead of it.
    held: Option<WireMsg>,
}

impl WireWorker<'_> {
    /// Queue a link-level retransmission on this worker's own ring — the
    /// FIFO that owns the fragment's mailbox — without ever blocking on it:
    /// the worker IS the ring's consumer, so a blocking push on a full ring
    /// would deadlock the shard. Overflow spills into `deferred`, drained
    /// whenever the ring has room (or runs dry) and at Stop; the link's
    /// pending-retry count covers spilled messages the same as ringed ones,
    /// so `quiesce` still waits them out.
    fn enqueue_retry(&mut self, msg: WireMsg) {
        if let Err(PushError::Full(m) | PushError::Closed(m)) = self.ring.try_push(msg) {
            self.deferred.push_back(m);
        }
    }

    /// The next message without waiting: the one the last run held back,
    /// then the ring, then spilled retransmissions once the ring runs dry.
    fn pop(&mut self) -> Option<WireMsg> {
        self.held
            .take()
            .or_else(|| self.ring.try_pop())
            .or_else(|| self.deferred.pop_front())
    }

    /// The receive step: [`pop`](Self::pop), spinning under the thread's
    /// [`Idle`] budget and then parking on the ring's doorbell while there
    /// is nothing to pop.
    fn next_msg(&mut self) -> WireMsg {
        // Opportunistically migrate one spilled retransmission back onto the
        // ring (behind the queued traffic, which is where a retransmitted
        // copy belongs) so the spill list drains even while the shard stays
        // busy.
        if let Some(m) = self.deferred.pop_front() {
            if let Err(PushError::Full(m) | PushError::Closed(m)) = self.ring.try_push(m) {
                self.deferred.push_front(m);
            }
        }
        if let Some(m) = self.pop() {
            return m;
        }
        // `held` and `deferred` are this worker's own: only the ring can
        // fill while it idles.
        let mut idle = Idle::new();
        loop {
            if let Some(m) = self.ring.try_pop() {
                idle.done();
                return m;
            }
            if !idle.spin() {
                self.ring.park_consumer();
            }
        }
    }

    /// Process one message. `drain` is the post-Stop teardown pass: the
    /// link delivers fault-free and charges no wire latency, so nothing
    /// re-enqueued (or spilled) behind the Stop marker is stranded.
    #[inline]
    fn handle(&mut self, msg: WireMsg, drain: bool) {
        match msg {
            WireMsg::Stop => {}
            WireMsg::Flush { acks } => {
                acks.fetch_add(1, Ordering::AcqRel);
            }
            msg if self.joins_run(&msg) => self.deliver_run(msg, drain),
            WireMsg::Deliver {
                dest,
                frag,
                nacks,
                attempt,
                notify,
            } => self.deliver_unit(dest, frag, nacks, attempt, notify, drain),
            WireMsg::DeliverBatch {
                dest,
                frags,
                nacks,
                notify,
            } => {
                // A lossy link carries fragments, not batches: each is its
                // own wire unit with its own roll and disposition.
                debug_assert!(self.link.is_some(), "a fault-free batch joins a run");
                for frag in frags {
                    self.deliver_unit(dest, frag, nacks.clone(), 0, notify.clone(), drain);
                }
            }
        }
    }

    /// Whether `msg` is delivered in a run: eager traffic on a fault-free
    /// link. A rendezvous descriptor (longer than one MTU) keeps the
    /// two-phase path so its gather runs outside the mailbox lock.
    fn joins_run(&self, msg: &WireMsg) -> bool {
        self.link.is_none()
            && match msg {
                WireMsg::Deliver { frag, .. } => frag.data.len() <= self.shared.mtu,
                WireMsg::DeliverBatch { .. } => true,
                WireMsg::Flush { .. } | WireMsg::Stop => false,
            }
    }

    /// Deliver `first` together with the eager messages already queued
    /// behind it — never waiting for more — as one run: one LUT lookup per
    /// same-mailbox stretch, one mailbox-lock hold per [`DELIVER_CHUNK`]
    /// fragments, one stats publish per same-endpoint stretch. The first
    /// message that cannot join is held back and processed next.
    ///
    /// [`DELIVER_CHUNK`]: crate::endpoint::DELIVER_CHUNK
    fn deliver_run(&mut self, first: WireMsg, drain: bool) {
        self.run.push(first);
        while self.run.frags.len() < RUN_FRAGS {
            match self.ring.try_pop() {
                Some(msg) if self.joins_run(&msg) => self.run.push(msg),
                other => {
                    self.held = other;
                    break;
                }
            }
        }
        if !drain && !self.latency.is_zero() {
            // Every fragment still pays the wire latency; a run pays it as
            // one sleep instead of N.
            std::thread::sleep(self.latency * self.run.frags.len() as u32);
        }
        self.run.deliver(self.shared, &mut self.cache);
        self.run.settle();
    }

    /// One wire unit — a single fragment or a whole rendezvous descriptor —
    /// through the link ([`LinkFaults::admit`]) to its final disposition.
    #[inline]
    fn deliver_unit(
        &mut self,
        dest: NodeAddr,
        frag: Fragment,
        nacks: NackSink,
        attempt: u32,
        notify: Option<Arc<PutNotify>>,
        drain: bool,
    ) {
        let shared = self.shared;
        let copies = match self.link.as_mut() {
            None => 1,
            Some((faults, injector)) => {
                let on_crash = || {
                    shared.remove_endpoint(dest);
                };
                match faults.admit(injector, &frag, frag.data.len(), attempt, drain, on_crash) {
                    Admit::Deliver { copies } => copies,
                    Admit::Retransmit => {
                        // The retried copy carries the put-notify countdown on.
                        self.enqueue_retry(WireMsg::Deliver {
                            dest,
                            frag,
                            nacks,
                            attempt: attempt + 1,
                            notify,
                        });
                        self.retire(attempt);
                        return;
                    }
                }
            }
        };
        if !drain && !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        let ep = self.cache.get(shared, dest);
        let nacked = deliver_copies(
            &shared.telemetry,
            &frag,
            ep.as_deref(),
            copies,
            |ep| ep.deliver(&frag),
            |reason| nacks.lock().push((frag.dst_vaddr, reason)),
        );
        if let Some(n) = notify {
            n.fragments_done(1, nacked);
        }
        self.retire(attempt);
    }

    /// This transmission of the unit is fully processed (see
    /// [`LinkFaults::retire`]).
    fn retire(&self, attempt: u32) {
        if let Some((faults, _)) = &self.link {
            faults.retire(attempt);
        }
    }
}

fn wire_worker(shared: Arc<Shared>, idx: usize, latency: Duration) {
    let ring = &*shared.queues[idx];
    ring.register_consumer();
    let mut worker = WireWorker {
        shared: &shared,
        ring,
        latency,
        cache: EndpointCache::new(),
        deferred: VecDeque::new(),
        link: shared.faults.as_ref().map(|f| (f, f.injector(idx))),
        run: Run::default(),
        held: None,
    };
    loop {
        match worker.next_msg() {
            WireMsg::Stop => break,
            msg => worker.handle(msg, false),
        }
    }
    // Teardown: whatever was re-enqueued or spilled behind the Stop marker.
    while let Some(msg) = worker.pop() {
        worker.handle(msg, true);
    }
}

impl AsyncNetwork {
    /// Build a network with a single wire worker that adds `latency` before
    /// each fragment's delivery (pass `Duration::ZERO` for none).
    pub fn new(mtu: usize, order: DeliveryOrder, latency: Duration) -> AsyncNetwork {
        Self::with_options(mtu, order, latency, 1)
    }

    /// Build a network with an explicit wire-worker count. Fragments shard
    /// across workers by destination mailbox (see the module docs);
    /// `workers` is clamped to at least 1.
    pub fn with_options(
        mtu: usize,
        order: DeliveryOrder,
        latency: Duration,
        workers: usize,
    ) -> AsyncNetwork {
        Self::build(mtu, order, latency, workers, EndpointConfig::default())
    }

    /// Build a network shaped by an endpoint configuration: worker count
    /// from [`wire_workers`](EndpointConfig::wire_workers), endpoints
    /// created with the config (dedup window included), and — when
    /// [`fault_model`](EndpointConfig::fault_model) is non-trivial — the
    /// wire workers turned into lossy links with link-level retransmission
    /// bounded by [`retry_budget`](EndpointConfig::retry_budget) (see the
    /// module docs).
    pub fn for_endpoint_config(
        mtu: usize,
        order: DeliveryOrder,
        latency: Duration,
        config: &EndpointConfig,
    ) -> AsyncNetwork {
        Self::build(mtu, order, latency, config.wire_workers, config.clone())
    }

    fn build(
        mtu: usize,
        order: DeliveryOrder,
        latency: Duration,
        workers: usize,
        endpoint_config: EndpointConfig,
    ) -> AsyncNetwork {
        assert!(mtu > 0, "MTU must be positive");
        let workers = workers.max(1);
        let seed = match order {
            DeliveryOrder::OutOfOrder { seed } => seed,
            DeliveryOrder::InOrder => 0,
        };
        let ring_stats = Arc::new(RingStats::default());
        let queues: Vec<Arc<RingQueue<WireMsg>>> = (0..workers)
            .map(|_| {
                Arc::new(RingQueue::with_stats(
                    endpoint_config.wire_queue_cap,
                    ring_stats.clone(),
                ))
            })
            .collect();
        let telemetry = endpoint_config
            .telemetry
            .then(|| Arc::new(Telemetry::new()));
        let faults = LinkFaults::from_config(&endpoint_config, &telemetry);
        let shared = Arc::new(Shared {
            endpoints: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(1),
            mtu,
            order,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            queues,
            ring_stats,
            endpoint_config,
            faults,
            telemetry,
        });
        let workers = (0..shared.queues.len())
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rvma-wire-{i}"))
                    .spawn(move || wire_worker(shared, i, latency))
                    .expect("spawn wire worker")
            })
            .collect();
        AsyncNetwork { shared, workers }
    }

    /// Default: in-order, default MTU, zero added latency, one worker.
    pub fn default_network() -> AsyncNetwork {
        AsyncNetwork::new(DEFAULT_MTU, DeliveryOrder::InOrder, Duration::ZERO)
    }

    /// Number of wire workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Create and attach an endpoint at `addr`, configured with the
    /// network's endpoint configuration (so e.g. a
    /// [`dedup_window`](EndpointConfig::dedup_window) set on the config
    /// passed to [`for_endpoint_config`](AsyncNetwork::for_endpoint_config)
    /// applies to every endpoint of the network).
    pub fn add_endpoint(&self, addr: NodeAddr) -> Arc<RvmaEndpoint> {
        let ep = RvmaEndpoint::with_config(addr, self.shared.endpoint_config.clone());
        ep.attach_wire_stats(self.shared.ring_stats.clone());
        if let Some(t) = &self.shared.telemetry {
            ep.attach_telemetry(t.clone());
        }
        self.shared.endpoints.write().insert(addr, ep.clone());
        self.shared.generation.fetch_add(1, Ordering::Release);
        ep
    }

    /// Attach an existing endpoint.
    pub fn register(&self, endpoint: Arc<RvmaEndpoint>) {
        endpoint.attach_wire_stats(self.shared.ring_stats.clone());
        if let Some(t) = &self.shared.telemetry {
            endpoint.attach_telemetry(t.clone());
        }
        self.shared
            .endpoints
            .write()
            .insert(endpoint.addr(), endpoint);
        self.shared.generation.fetch_add(1, Ordering::Release);
    }

    /// Detach the endpoint at `addr`. Bumps the route generation, so every
    /// initiator's cached routes to it go stale and the next submission
    /// fails fast. Fragments already queued race the removal the way they
    /// would on a real fabric: workers that process them afterwards publish
    /// asynchronous `NoSuchMailbox` NACKs.
    pub fn remove_endpoint(&self, addr: NodeAddr) -> bool {
        self.shared.remove_endpoint(addr)
    }

    /// An asynchronous initiator bound to `src`.
    pub fn initiator(&self, src: NodeAddr) -> AsyncInitiator {
        AsyncInitiator {
            shared: self.shared.clone(),
            src,
            next_op: AtomicU64::new(1),
            nacks: Arc::new(Mutex::new(Vec::new())),
            routes: RouteCache::new(),
            route_hits: AtomicU64::new(0),
            route_misses: AtomicU64::new(0),
            pool: PayloadPool::new(),
            staged: AtomicU64::new(0),
        }
    }

    /// Block until every fragment submitted so far has been delivered:
    /// a flush barrier is broadcast to every worker queue (each is FIFO,
    /// so the ack implies everything ahead of it was processed). With
    /// fault injection active the barrier repeats until no link-level
    /// retransmission is pending — a faulted fragment's retries land
    /// *behind* the first barrier, and only the pending-retry count (held
    /// non-zero from before each re-enqueue until the retried copy is
    /// fully processed) proves they are done.
    pub fn quiesce(&self) {
        // The rings close only in `Drop`, so the barrier cannot fail here.
        let _ = quiesce_shared(&self.shared);
    }

    /// The network-wide fault counters, when fault injection is active.
    pub fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.shared.faults.as_ref().map(LinkFaults::stats)
    }

    /// The network-wide telemetry recorder, when
    /// [`EndpointConfig::telemetry`] is enabled. Drain it with
    /// [`Telemetry::snapshot`] after a [`quiesce`](AsyncNetwork::quiesce).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.clone()
    }

    /// Point-in-time wire-queue counters (high-water ring depth,
    /// backpressure stalls, park wakeups), aggregated across the pool's
    /// rings. The same counters are merged into each attached endpoint's
    /// [`StatsSnapshot`](crate::endpoint::StatsSnapshot).
    pub fn queue_stats(&self) -> RingStatsSnapshot {
        self.shared.ring_stats.snapshot()
    }
}

impl Drop for AsyncNetwork {
    fn drop(&mut self) {
        // A Stop marker lands behind all previously queued traffic on each
        // FIFO ring, so every shard drains fully before its worker exits.
        for q in &self.shared.queues {
            let _ = q.push(WireMsg::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Only now close the rings: a submitter racing this drop stops
        // blocking on the (now consumer-less) ring and fails fast.
        for q in &self.shared.queues {
            q.close();
        }
    }
}

/// Asynchronous initiator handle.
///
/// Thread-safe; a single initiator shared across threads funnels all its
/// NACKs into one [`take_nacks`](AsyncInitiator::take_nacks) sink.
pub struct AsyncInitiator {
    shared: Arc<Shared>,
    src: NodeAddr,
    next_op: AtomicU64,
    nacks: NackSink,
    routes: RouteCache,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    pool: PayloadPool,
    /// Payload bytes copied into staging storage (pool acquisitions) on
    /// the eager path; the zero-copy lane contributes nothing here. See
    /// [`Transport::staged_bytes`](crate::transport::Transport::staged_bytes).
    staged: AtomicU64,
}

impl AsyncInitiator {
    /// The initiator's source address.
    pub fn src(&self) -> NodeAddr {
        self.src
    }

    /// Resolve the worker queue for (dest, vaddr).
    ///
    /// Steady state is the lock-free cache hit. A miss (cold route, or the
    /// endpoint generation moved) checks that `dest` exists — under the
    /// endpoint table's read lock, once — so an unknown destination still
    /// fails fast. That check is advisory, not load-bearing: an endpoint
    /// removed *after* it (or after a hit) is caught by the wire worker,
    /// which publishes an asynchronous `NoSuchMailbox` NACK. Correctness
    /// never depends on the initiator-side existence check.
    fn resolve_route(&self, dest: NodeAddr, vaddr: VirtAddr) -> Result<usize> {
        let packed = pack_addr(dest);
        let generation = self.shared.generation.load(Ordering::Acquire);
        let slot = self.routes.slot(packed, vaddr.raw());
        if let Some(queue) = slot.read(packed, vaddr.raw(), generation) {
            self.route_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(queue);
        }
        self.route_misses.fetch_add(1, Ordering::Relaxed);
        if self.shared.endpoints.read().get(&dest).is_none() {
            return Err(RvmaError::UnknownDestination);
        }
        let queue = self.shared.queue_index(dest, vaddr);
        slot.publish(packed, vaddr.raw(), generation, queue);
        Ok(queue)
    }

    /// Asynchronous `RVMA_Put` at offset 0: enqueue and return. Delivery,
    /// counting, and completion happen on a wire worker.
    pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<()> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// Asynchronous `RVMA_Put` with an explicit buffer offset. All
    /// fragments of the put target one mailbox, hence one worker queue:
    /// submission order is preserved end-to-end unless the network itself
    /// is configured `OutOfOrder`.
    ///
    /// Steady state (warm route cache, warm payload pool) acquires no
    /// `RwLock` and performs no heap allocation beyond the pooled payload
    /// copy; a put of at most one MTU additionally skips the fragment
    /// vector entirely and crosses the ring as a single message.
    ///
    /// If the destination shard's ring is full, the submission **blocks**
    /// (spin, then yield) until the wire worker frees a slot — the
    /// backpressure contract of the module docs. It never drops.
    pub fn put_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.submit(dest, vaddr, offset, data, None)
    }

    /// Notified put at offset 0: flag-the-future and data in one
    /// submission. See [`put_notify_at`](AsyncInitiator::put_notify_at).
    pub fn put_notify(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<PutFuture> {
        self.put_notify_at(dest, vaddr, 0, data)
    }

    /// Asynchronous `RVMA_Put` that returns a [`PutFuture`] resolving when
    /// every fragment of **this** put reaches its final wire disposition
    /// (delivered to the destination endpoint, or NACKed). One extra `Arc`
    /// rides the put's single wire message; the submission path is
    /// otherwise identical to [`put_at`](AsyncInitiator::put_at), and the
    /// completion side is a lock-free countdown + waker handoff — no
    /// condvar, no spinning.
    pub fn put_notify_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutFuture> {
        let fragments = mtu_ranges(data.len(), self.shared.mtu).len() as u64;
        let notify = PutNotify::new(fragments);
        self.submit(dest, vaddr, offset, data, Some(notify.clone()))?;
        Ok(PutFuture::from_notify(notify, fragments, None))
    }

    /// `RVMA_Put` of an owned payload with a size-adaptive lane choice.
    ///
    /// At or below the endpoint config's `eager_threshold` this behaves
    /// exactly like [`put_at`](AsyncInitiator::put_at): the payload is
    /// copied into pooled staging storage, cut at the MTU, and the
    /// caller's `Bytes` is dropped. Above the threshold the put is a
    /// **rendezvous**: the whole `Bytes` crosses the ring as one
    /// descriptor — never sliced, whatever the MTU — and the receiver
    /// places it with one reservation and one gather into the posted
    /// buffer, the put's only copy (copies-per-byte on this lane is
    /// exactly 1). The descriptor is the unit of everything downstream:
    /// one roll of the fault dice, one dedup entry, one NACK, and an
    /// overhanging put is refused whole — the same contract as the shm
    /// backend's `REQ_BULK` lane.
    pub fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        if data.len() <= self.shared.endpoint_config.eager_threshold {
            return self.submit(dest, vaddr, offset, &data, None);
        }
        self.submit_shared(dest, vaddr, offset, data, None)
    }

    /// Notified [`put_bytes_at`](AsyncInitiator::put_bytes_at): the
    /// [`PutFuture`] resolves at the put's final wire disposition. A
    /// rendezvous put is one descriptor and reports `fragments == 1`
    /// (as `ShmClient::put_from_extent` does); an eager one reports its
    /// MTU fragment count.
    pub fn put_bytes_notify_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<PutFuture> {
        if data.len() <= self.shared.endpoint_config.eager_threshold {
            return self.put_notify_at(dest, vaddr, offset, &data);
        }
        let notify = PutNotify::new(1);
        self.submit_shared(dest, vaddr, offset, data, Some(notify.clone()))?;
        Ok(PutFuture::from_notify(notify, 1, None))
    }

    /// Rendezvous submission: the caller's shared allocation rides one
    /// `WireMsg::Deliver` whole. There is no fragment vector and nothing
    /// to shuffle on an `OutOfOrder` network — reordering happens between
    /// descriptors (fault-layer retransmits), never inside one.
    fn submit_shared(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        payload: Bytes,
        notify: Option<Arc<PutNotify>>,
    ) -> Result<()> {
        let (queue_idx, op_id) = self.begin_op(dest, vaddr, payload.len())?;
        let frag = Fragment {
            initiator: self.src,
            op_id,
            dst_vaddr: vaddr,
            op_total_len: payload.len() as u64,
            offset,
            data: payload,
        };
        self.push_one(queue_idx, dest, frag, notify)
    }

    /// Common head of every submission: resolve the worker queue, draw the
    /// op id, stamp `Submit`.
    #[inline]
    fn begin_op(&self, dest: NodeAddr, vaddr: VirtAddr, len: usize) -> Result<(usize, u64)> {
        let queue_idx = self.resolve_route(dest, vaddr)?;
        let op_id = self.next_op.fetch_add(1, Ordering::Relaxed);
        telemetry::record(
            &self.shared.telemetry,
            EventKind::Submit,
            telemetry::initiator_key(self.src.nid, self.src.pid),
            op_id,
            len as u64,
        );
        Ok((queue_idx, op_id))
    }

    /// One ring crossing carrying one fragment — an eager put of at most
    /// one MTU, or a whole rendezvous descriptor.
    ///
    /// The `nacks` Arc travels with the message because the wire worker
    /// that eventually discards a fragment must publish the NACK into
    /// *this* initiator's sink without holding any reference to the
    /// initiator itself, which may be long gone by delivery time.
    #[inline]
    fn push_one(
        &self,
        queue_idx: usize,
        dest: NodeAddr,
        frag: Fragment,
        notify: Option<Arc<PutNotify>>,
    ) -> Result<()> {
        let op_id = frag.op_id;
        self.shared.queues[queue_idx]
            .push(WireMsg::Deliver {
                dest,
                frag,
                nacks: self.nacks.clone(),
                attempt: 0,
                notify,
            })
            .map_err(|_| RvmaError::UnknownDestination)?;
        telemetry::record(
            &self.shared.telemetry,
            EventKind::RingEnqueue,
            telemetry::initiator_key(self.src.nid, self.src.pid),
            op_id,
            queue_idx as u64,
        );
        Ok(())
    }

    fn submit(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
        notify: Option<Arc<PutNotify>>,
    ) -> Result<()> {
        let (queue_idx, op_id) = self.begin_op(dest, vaddr, data.len())?;
        if data.len() <= self.shared.mtu {
            // Inline fast path: one fragment, no fragment vector, no
            // shuffle. Zero-length puts take this path too.
            self.staged.fetch_add(data.len() as u64, Ordering::Relaxed);
            let frag = Fragment {
                initiator: self.src,
                op_id,
                dst_vaddr: vaddr,
                op_total_len: data.len() as u64,
                offset,
                data: self.pool.acquire(data),
            };
            return self.push_one(queue_idx, dest, frag, notify);
        }
        let frags = self.fragment(vaddr, op_id, offset, data);
        self.shared.queues[queue_idx]
            .push(WireMsg::DeliverBatch {
                dest,
                frags,
                nacks: self.nacks.clone(),
                notify,
            })
            .map_err(|_| RvmaError::UnknownDestination)?;
        telemetry::record(
            &self.shared.telemetry,
            EventKind::RingEnqueue,
            telemetry::initiator_key(self.src.nid, self.src.pid),
            op_id,
            queue_idx as u64,
        );
        Ok(())
    }

    /// Split a multi-MTU payload into fragments (pooled copy, zero-copy
    /// slices), shuffled when the network is `OutOfOrder`.
    fn fragment(&self, vaddr: VirtAddr, op_id: u64, offset: usize, data: &[u8]) -> Vec<Fragment> {
        self.staged.fetch_add(data.len() as u64, Ordering::Relaxed);
        let payload = self.pool.acquire(data);
        let mut frags = Fragment::split(self.src, op_id, vaddr, offset, &payload, self.shared.mtu);
        if let DeliveryOrder::OutOfOrder { .. } = self.shared.order {
            frags.shuffle(&mut *self.shared.rng.lock());
        }
        frags
    }

    /// Start a submission batch with the default doorbell threshold
    /// ([`DEFAULT_DOORBELL_FRAGS`] pending fragments).
    pub fn batch(&self) -> PutBatch<'_> {
        self.batch_with(DEFAULT_DOORBELL_FRAGS)
    }

    /// Start a submission batch that auto-flushes once `doorbell_frags`
    /// fragments are pending (clamped to at least 1).
    pub fn batch_with(&self, doorbell_frags: usize) -> PutBatch<'_> {
        PutBatch {
            init: self,
            groups: Vec::new(),
            memo: None,
            pending: 0,
            doorbell: doorbell_frags.max(1),
        }
    }

    /// Drain the asynchronous NACK notifications received so far.
    pub fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        std::mem::take(&mut *self.nacks.lock())
    }

    /// Route-cache counters (hits resolve with no lock and no rehash).
    pub fn route_stats(&self) -> RouteStats {
        RouteStats {
            hits: self.route_hits.load(Ordering::Relaxed),
            misses: self.route_misses.load(Ordering::Relaxed),
        }
    }

    /// Payload-pool counters (hits reuse a retired allocation).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Total payload bytes this initiator copied into staging storage
    /// (eager-lane pool acquisitions); the zero-copy lane adds nothing.
    pub fn staged_bytes(&self) -> u64 {
        self.staged.load(Ordering::Relaxed)
    }
}

impl crate::transport::Transport for AsyncInitiator {
    fn backend(&self) -> &'static str {
        "threaded"
    }

    fn put_at(&self, dest: NodeAddr, vaddr: VirtAddr, offset: usize, data: &[u8]) -> Result<()> {
        AsyncInitiator::put_at(self, dest, vaddr, offset, data)
    }

    fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        AsyncInitiator::put_bytes_at(self, dest, vaddr, offset, data)
    }

    fn flush(&self) -> Result<()> {
        quiesce_shared(&self.shared)
    }

    fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        AsyncInitiator::take_nacks(self)
    }

    fn staged_bytes(&self) -> u64 {
        AsyncInitiator::staged_bytes(self)
    }
}

/// A coalescing submission batch (the software doorbell).
///
/// Puts append fragments to per-(worker shard, destination) groups held in
/// the batch; nothing crosses a channel until [`flush`](PutBatch::flush)
/// is called or the pending-fragment count reaches the doorbell
/// threshold, at which point each group crosses as **one**
/// `DeliverBatch` message. Dropping the batch flushes it.
///
/// Ordering: fragments for one mailbox are delivered in the order they
/// were appended, but a batch is its own submission stream — puts issued
/// directly on the initiator while a batch holds undelivered fragments
/// for the same mailbox may be delivered ahead of them.
pub struct PutBatch<'a> {
    init: &'a AsyncInitiator,
    /// (queue index, destination, fragments) groups; linear scan — a
    /// batch rarely targets more than a handful of destinations.
    groups: Vec<(usize, NodeAddr, Vec<Fragment>)>,
    /// Last (dest, vaddr) resolved → (generation, queue, group index).
    /// Messaging loops hammer one route; the memo skips even the route
    /// cache and the group scan on consecutive same-route puts.
    memo: Option<(NodeAddr, VirtAddr, u64, usize, usize)>,
    pending: usize,
    doorbell: usize,
}

impl PutBatch<'_> {
    /// Append a put at offset 0 to the batch.
    pub fn put(&mut self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<()> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// Append a put to the batch; auto-flushes at the doorbell threshold.
    pub fn put_at(
        &mut self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let generation = self.init.shared.generation.load(Ordering::Acquire);
        let group_idx = match self.memo {
            Some((d, v, g, _, gi)) if d == dest && v == vaddr && g == generation => gi,
            _ => {
                let queue_idx = self.init.resolve_route(dest, vaddr)?;
                let gi = match self
                    .groups
                    .iter()
                    .position(|(q, d, _)| *q == queue_idx && *d == dest)
                {
                    Some(i) => i,
                    None => {
                        self.groups.push((queue_idx, dest, Vec::new()));
                        self.groups.len() - 1
                    }
                };
                self.memo = Some((dest, vaddr, generation, queue_idx, gi));
                gi
            }
        };
        let op_id = self.init.next_op.fetch_add(1, Ordering::Relaxed);
        telemetry::record(
            &self.init.shared.telemetry,
            EventKind::Submit,
            telemetry::initiator_key(self.init.src.nid, self.init.src.pid),
            op_id,
            data.len() as u64,
        );
        let group = &mut self.groups[group_idx].2;
        if data.len() <= self.init.shared.mtu {
            self.init
                .staged
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            group.push(Fragment {
                initiator: self.init.src,
                op_id,
                dst_vaddr: vaddr,
                op_total_len: data.len() as u64,
                offset,
                data: self.init.pool.acquire(data),
            });
            self.pending += 1;
        } else {
            let mut frags = self.init.fragment(vaddr, op_id, offset, data);
            self.pending += frags.len();
            group.append(&mut frags);
        }
        if self.pending >= self.doorbell {
            self.flush()?;
        }
        Ok(())
    }

    /// Fragments appended and not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Ring the doorbell: every non-empty group crosses its worker queue
    /// as a single `DeliverBatch` message (one NACK-sink Arc clone each).
    pub fn flush(&mut self) -> Result<()> {
        self.pending = 0;
        let mut result = Ok(());
        let doorbell = self.doorbell;
        for (queue_idx, dest, frags) in &mut self.groups {
            if frags.is_empty() {
                continue;
            }
            // Replace with a pre-sized vector: the group refills to the
            // doorbell threshold, and regrowing from empty would pay
            // several reallocations per batch.
            let batch = std::mem::replace(frags, Vec::with_capacity(doorbell));
            // One RingEnqueue per op: a multi-fragment op's fragments sit
            // contiguously in the group, so deduping consecutive op ids
            // yields exactly one event per put crossing the ring.
            if self.init.shared.telemetry.is_some() {
                let mut last = None;
                for f in &batch {
                    let key = telemetry::initiator_key(f.initiator.nid, f.initiator.pid);
                    if last != Some((key, f.op_id)) {
                        telemetry::record(
                            &self.init.shared.telemetry,
                            EventKind::RingEnqueue,
                            key,
                            f.op_id,
                            *queue_idx as u64,
                        );
                        last = Some((key, f.op_id));
                    }
                }
            }
            let sent = self.init.shared.queues[*queue_idx].push(WireMsg::DeliverBatch {
                dest: *dest,
                frags: batch,
                nacks: self.init.nacks.clone(),
                notify: None,
            });
            if sent.is_err() && result.is_ok() {
                result = Err(RvmaError::UnknownDestination);
            }
        }
        result
    }
}

impl Drop for PutBatch<'_> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;
    use crate::mailbox::MailboxMode;
    use crate::retry::FaultModel;
    use crate::transport::Transport;

    #[test]
    fn async_put_completes_cross_thread() {
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(5), Threshold::bytes(4096))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 4096]).unwrap();
        client
            .put(NodeAddr::node(1), VirtAddr::new(5), &[3; 4096])
            .unwrap();
        // The caller returned before delivery; wait() parks until the wire
        // worker's completing write.
        let buf = note.wait();
        assert_eq!(buf.data(), vec![3u8; 4096].as_slice());
    }

    #[test]
    fn out_of_order_async_delivery_is_correct() {
        let net = AsyncNetwork::new(64, DeliveryOrder::OutOfOrder { seed: 3 }, Duration::ZERO);
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(5), Threshold::bytes(1024))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 1024]).unwrap();
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 250) as u8).collect();
        client
            .put(NodeAddr::node(1), VirtAddr::new(5), &payload)
            .unwrap();
        assert_eq!(note.wait().data(), payload.as_slice());
    }

    #[test]
    fn nacks_arrive_asynchronously() {
        let net = AsyncNetwork::default_network();
        let _server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        client
            .put(NodeAddr::node(1), VirtAddr::new(99), &[0; 8])
            .unwrap(); // returns Ok: the NACK is asynchronous
        net.quiesce();
        let nacks = client.take_nacks();
        assert_eq!(nacks, vec![(VirtAddr::new(99), NackReason::NoSuchMailbox)]);
        assert!(client.take_nacks().is_empty(), "drained");
    }

    #[test]
    fn unknown_destination_fails_fast() {
        let net = AsyncNetwork::default_network();
        let client = net.initiator(NodeAddr::node(2));
        assert_eq!(
            client.put(NodeAddr::node(9), VirtAddr::new(1), &[0; 8]),
            Err(RvmaError::UnknownDestination)
        );
    }

    #[test]
    fn added_latency_delays_completion() {
        let net = AsyncNetwork::new(
            DEFAULT_MTU,
            DeliveryOrder::InOrder,
            Duration::from_millis(10),
        );
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(5), Threshold::ops(1))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 64]).unwrap();
        let t0 = std::time::Instant::now();
        client
            .put(NodeAddr::node(1), VirtAddr::new(5), &[1; 64])
            .unwrap();
        let submitted = t0.elapsed();
        let _ = note.wait();
        let completed = t0.elapsed();
        assert!(submitted < Duration::from_millis(5), "put must not block");
        assert!(completed >= Duration::from_millis(10));
    }

    #[test]
    fn many_async_senders() {
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(0));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::ops(64))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 64 * 16]).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let init = net.initiator(NodeAddr::node(t + 1));
                s.spawn(move || {
                    for k in 0..8usize {
                        init.put_at(
                            NodeAddr::node(0),
                            VirtAddr::new(1),
                            (t as usize * 8 + k) * 16,
                            &[t as u8 + 1; 16],
                        )
                        .unwrap();
                    }
                });
            }
        });
        let buf = note.wait();
        assert_eq!(buf.len(), 64 * 16);
        for t in 0..8usize {
            assert_eq!(buf.full_buffer()[t * 8 * 16], t as u8 + 1);
        }
    }

    #[test]
    fn drop_joins_wire_thread() {
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(5), Threshold::ops(1))
            .unwrap();
        let _note = win.post_buffer(vec![0; 8]).unwrap();
        client
            .put(NodeAddr::node(1), VirtAddr::new(5), &[1; 8])
            .unwrap();
        drop(net); // must not hang
    }

    #[test]
    fn flush_after_network_drop_errors() {
        // Once the network is gone its rings are closed: a flush marker
        // cannot be enqueued and nobody is left to ack one, so the barrier
        // must report the dead backend instead of waiting. Run on a helper
        // thread so a regression shows as a failure, not a stuck job.
        let net =
            AsyncNetwork::with_options(DEFAULT_MTU, DeliveryOrder::InOrder, Duration::ZERO, 2);
        let _server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        drop(net);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(client.flush()));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5))
                .expect("flush on a dropped network must return"),
            Err(RvmaError::UnknownDestination)
        );
    }

    #[test]
    fn worker_pool_fans_out_incast() {
        // 8 senders to 8 disjoint mailboxes through a 4-worker pool; every
        // epoch completes with the right bytes.
        let net = AsyncNetwork::with_options(64, DeliveryOrder::InOrder, Duration::ZERO, 4);
        assert_eq!(net.worker_count(), 4);
        let server = net.add_endpoint(NodeAddr::node(0));
        let mut notes = Vec::new();
        for i in 0..8u64 {
            let win = server
                .init_window(VirtAddr::new(i), Threshold::bytes(1024))
                .unwrap();
            notes.push(win.post_buffer(vec![0; 1024]).unwrap());
        }
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let init = net.initiator(NodeAddr::node(i as u32 + 1));
                s.spawn(move || {
                    init.put(NodeAddr::node(0), VirtAddr::new(i), &[i as u8 + 1; 1024])
                        .unwrap();
                });
            }
        });
        for (i, n) in notes.iter_mut().enumerate() {
            assert_eq!(n.wait().data(), vec![i as u8 + 1; 1024].as_slice());
        }
        assert_eq!(server.stats().epochs_completed, 8);
    }

    #[test]
    fn worker_pool_preserves_per_mailbox_ordering() {
        // A Managed (cursor-append) mailbox is the strictest ordering
        // consumer: bytes must land in submission order. Eight workers must
        // not reorder one mailbox's stream, because all its fragments hash
        // to one FIFO queue.
        let net = AsyncNetwork::with_options(16, DeliveryOrder::InOrder, Duration::ZERO, 8);
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window_mode(
                VirtAddr::new(7),
                Threshold::bytes(256),
                MailboxMode::Managed,
            )
            .unwrap();
        let mut note = win.post_buffer(vec![0; 256]).unwrap();
        let expected: Vec<u8> = (0..=255u8).collect();
        // 16 puts of 16 bytes each; each put further fragments at MTU 16.
        for chunk in expected.chunks(16) {
            client
                .put(NodeAddr::node(1), VirtAddr::new(7), chunk)
                .unwrap();
        }
        assert_eq!(note.wait().data(), expected.as_slice());
    }

    #[test]
    fn quiesce_flushes_every_worker_queue() {
        let net = AsyncNetwork::with_options(
            DEFAULT_MTU,
            DeliveryOrder::InOrder,
            Duration::from_micros(200),
            4,
        );
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(9));
        // One put per mailbox so traffic lands on several queues.
        for i in 0..8u64 {
            let win = server
                .init_window(VirtAddr::new(i), Threshold::bytes(32))
                .unwrap();
            let _ = win.post_buffer(vec![0; 32]).unwrap();
            client
                .put(NodeAddr::node(0), VirtAddr::new(i), &[1; 32])
                .unwrap();
        }
        net.quiesce();
        assert_eq!(server.stats().epochs_completed, 8);
    }

    #[test]
    fn drop_drains_all_shard_queues() {
        // Queue traffic across a 4-worker pool, then drop immediately: the
        // Stop markers sit behind the traffic, so every fragment still
        // delivers before the workers exit.
        let server;
        {
            let net = AsyncNetwork::with_options(
                DEFAULT_MTU,
                DeliveryOrder::InOrder,
                Duration::from_micros(100),
                4,
            );
            server = net.add_endpoint(NodeAddr::node(0));
            let client = net.initiator(NodeAddr::node(9));
            for i in 0..8u64 {
                let win = server
                    .init_window(VirtAddr::new(i), Threshold::bytes(16))
                    .unwrap();
                let _ = win.post_buffer(vec![0; 16]).unwrap();
                client
                    .put(NodeAddr::node(0), VirtAddr::new(i), &[2; 16])
                    .unwrap();
            }
            // net dropped here with fragments still queued.
        }
        assert_eq!(server.stats().epochs_completed, 8);
    }

    #[test]
    fn route_cache_steady_state_is_lockless_and_pooled() {
        // After one warm-up put, every subsequent put to the same route is
        // a cache hit, and (with deliveries drained between puts) every
        // payload copy is a pool hit.
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(5), Threshold::ops(1))
            .unwrap();
        let mut notes = win.post_buffers(vec![vec![0; 64]; 17]).unwrap();
        client
            .put(NodeAddr::node(1), VirtAddr::new(5), &[0; 64])
            .unwrap();
        net.quiesce();
        for k in 0..16u8 {
            client
                .put(NodeAddr::node(1), VirtAddr::new(5), &[k; 64])
                .unwrap();
            net.quiesce();
        }
        let routes = client.route_stats();
        assert_eq!(routes.misses, 1, "only the cold put misses");
        assert_eq!(routes.hits, 16);
        let pool = client.pool_stats();
        assert_eq!(pool.misses, 1, "only the cold put allocates");
        assert_eq!(pool.hits, 16);
        assert_eq!(pool.hit_rate() + routes.hit_rate(), 2.0 * 16.0 / 17.0);
        for n in notes.iter_mut() {
            assert_eq!(n.wait().len(), 64);
        }
    }

    #[test]
    fn route_cache_invalidated_by_endpoint_removal() {
        let net = AsyncNetwork::default_network();
        let _server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        client
            .put(NodeAddr::node(1), VirtAddr::new(7), &[0; 8])
            .unwrap();
        client
            .put(NodeAddr::node(1), VirtAddr::new(7), &[0; 8])
            .unwrap();
        assert_eq!(client.route_stats().hits, 1, "route cached");
        assert!(net.remove_endpoint(NodeAddr::node(1)));
        assert!(!net.remove_endpoint(NodeAddr::node(1)), "already gone");
        // The generation bump makes the cached route stale: the put misses,
        // re-checks the table, and fails fast.
        assert_eq!(
            client.put(NodeAddr::node(1), VirtAddr::new(7), &[0; 8]),
            Err(RvmaError::UnknownDestination)
        );
        assert_eq!(client.route_stats().misses, 2);
    }

    #[test]
    fn batch_coalesces_and_flushes_explicitly() {
        let net = AsyncNetwork::with_options(64, DeliveryOrder::InOrder, Duration::ZERO, 4);
        let server = net.add_endpoint(NodeAddr::node(0));
        let mut notes = Vec::new();
        for i in 0..4u64 {
            let win = server
                .init_window(VirtAddr::new(i), Threshold::ops(4))
                .unwrap();
            notes.push(win.post_buffer(vec![0; 256]).unwrap());
        }
        let client = net.initiator(NodeAddr::node(9));
        let mut batch = client.batch();
        for k in 0..4usize {
            for i in 0..4u64 {
                batch
                    .put_at(
                        NodeAddr::node(0),
                        VirtAddr::new(i),
                        k * 16,
                        &[i as u8 + 1; 16],
                    )
                    .unwrap();
            }
        }
        assert_eq!(batch.pending(), 16, "nothing crossed before the doorbell");
        batch.flush().unwrap();
        assert_eq!(batch.pending(), 0);
        for (i, n) in notes.iter_mut().enumerate() {
            let buf = n.wait();
            assert_eq!(buf.data()[..16], [i as u8 + 1; 16]);
        }
        assert_eq!(server.stats().epochs_completed, 4);
    }

    #[test]
    fn batch_auto_flushes_at_doorbell_threshold() {
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(0));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::ops(4))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 64]).unwrap();
        let client = net.initiator(NodeAddr::node(9));
        let mut batch = client.batch_with(4);
        for k in 0..3usize {
            batch
                .put_at(NodeAddr::node(0), VirtAddr::new(1), k * 16, &[7; 16])
                .unwrap();
        }
        assert_eq!(batch.pending(), 3);
        batch
            .put_at(NodeAddr::node(0), VirtAddr::new(1), 48, &[7; 16])
            .unwrap();
        assert_eq!(batch.pending(), 0, "doorbell rang at 4 fragments");
        assert_eq!(note.wait().data(), vec![7; 64].as_slice());
    }

    #[test]
    fn batch_drop_flushes_pending_puts() {
        let net = AsyncNetwork::default_network();
        let server = net.add_endpoint(NodeAddr::node(0));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::ops(2))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 32]).unwrap();
        let client = net.initiator(NodeAddr::node(9));
        {
            let mut batch = client.batch();
            batch
                .put_at(NodeAddr::node(0), VirtAddr::new(1), 0, &[1; 16])
                .unwrap();
            batch
                .put_at(NodeAddr::node(0), VirtAddr::new(1), 16, &[2; 16])
                .unwrap();
            // Dropped with 2 pending fragments.
        }
        assert_eq!(note.wait().len(), 32);
    }

    #[test]
    fn batch_multi_fragment_puts_and_nacks() {
        // A batched multi-MTU put fragments correctly, and batched NACKs
        // (missing mailbox) all surface, one sink lock per batch.
        let net = AsyncNetwork::new(16, DeliveryOrder::InOrder, Duration::ZERO);
        let server = net.add_endpoint(NodeAddr::node(0));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::bytes(64))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 64]).unwrap();
        let client = net.initiator(NodeAddr::node(9));
        let payload: Vec<u8> = (0..64u8).collect();
        let mut batch = client.batch();
        batch
            .put(NodeAddr::node(0), VirtAddr::new(1), &payload)
            .unwrap();
        batch
            .put(NodeAddr::node(0), VirtAddr::new(99), &[0; 32])
            .unwrap();
        batch.flush().unwrap();
        net.quiesce();
        assert_eq!(note.wait().data(), payload.as_slice());
        let nacks = client.take_nacks();
        assert_eq!(nacks.len(), 2, "one NACK per missing-mailbox fragment");
        assert!(nacks
            .iter()
            .all(|(va, r)| *va == VirtAddr::new(99) && *r == NackReason::NoSuchMailbox));
    }

    #[test]
    fn batch_to_unknown_destination_fails_fast() {
        let net = AsyncNetwork::default_network();
        let client = net.initiator(NodeAddr::node(2));
        let mut batch = client.batch();
        assert_eq!(
            batch.put(NodeAddr::node(9), VirtAddr::new(1), &[0; 8]),
            Err(RvmaError::UnknownDestination)
        );
    }

    #[test]
    fn take_nacks_observes_all_shards_exactly_once() {
        // Concurrent failing puts from one shared initiator, spread across
        // many mailboxes (hence many worker queues): every NACK is
        // observed, none duplicated.
        let net = AsyncNetwork::with_options(64, DeliveryOrder::InOrder, Duration::ZERO, 8);
        let _server = net.add_endpoint(NodeAddr::node(0));
        let client = Arc::new(net.initiator(NodeAddr::node(1)));
        const THREADS: u64 = 4;
        const PUTS: u64 = 32;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let client = client.clone();
                s.spawn(move || {
                    for k in 0..PUTS {
                        // Distinct vaddrs spread over the queue shards; no
                        // mailbox exists, so every put NACKs.
                        client
                            .put(NodeAddr::node(0), VirtAddr::new(t * PUTS + k), &[0; 8])
                            .unwrap();
                    }
                });
            }
        });
        net.quiesce();
        let mut nacks = client.take_nacks();
        assert_eq!(nacks.len(), (THREADS * PUTS) as usize);
        nacks.sort_by_key(|(va, _)| va.raw());
        for (i, (va, reason)) in nacks.iter().enumerate() {
            assert_eq!(va.raw(), i as u64, "every failing put NACKed once");
            assert_eq!(*reason, NackReason::NoSuchMailbox);
        }
        assert!(client.take_nacks().is_empty(), "drained");
    }

    #[test]
    fn zero_length_and_mtu_boundary_puts() {
        // MTU-cut boundaries through both the inline fast path
        // (len <= mtu, including len == 0) and the batched fragment path
        // (len > mtu), via put_at and via PutBatch.
        const MTU: usize = 16;
        let net = AsyncNetwork::new(MTU, DeliveryOrder::InOrder, Duration::ZERO);
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(9));
        let sizes = [0usize, 1, MTU - 1, MTU, MTU + 1, 2 * MTU, 2 * MTU + 1];
        for (i, &len) in sizes.iter().enumerate() {
            let vaddr = VirtAddr::new(i as u64);
            let win = server.init_window(vaddr, Threshold::ops(2)).unwrap();
            let mut note = win.post_buffer(vec![0xFF; 2 * MTU + 1]).unwrap();
            let payload: Vec<u8> = (0..len).map(|b| b as u8 + 1).collect();
            // Once directly, once through a batch.
            client
                .put_at(NodeAddr::node(0), vaddr, 0, &payload)
                .unwrap();
            let mut batch = client.batch();
            batch.put_at(NodeAddr::node(0), vaddr, 0, &payload).unwrap();
            batch.flush().unwrap();
            let buf = note.wait();
            assert_eq!(&buf.full_buffer()[..len], payload.as_slice(), "len={len}");
            assert_eq!(
                server.stats().epochs_completed,
                i as u64 + 1,
                "both ops (even zero-length) counted at len={len}"
            );
        }
        net.quiesce();
        assert!(client.take_nacks().is_empty());
    }

    #[test]
    fn exactly_mtu_put_is_single_fragment() {
        // An exactly-MTU put must take the inline path: one fragment, not
        // one full + one empty (the MTU-cut off-by-one this test pins).
        const MTU: usize = 32;
        let net = AsyncNetwork::new(MTU, DeliveryOrder::InOrder, Duration::ZERO);
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(9));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::bytes(MTU as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0; MTU]).unwrap();
        client
            .put(NodeAddr::node(0), VirtAddr::new(1), &[5; MTU])
            .unwrap();
        assert_eq!(note.wait().data(), vec![5; MTU].as_slice());
        assert_eq!(server.stats().fragments_accepted, 1);
    }

    #[test]
    fn fault_injected_network_completes_under_loss() {
        // Drops retransmit, duplicates are suppressed by the receiver's
        // dedup window, reorders arrive late but land at their offsets:
        // the epoch still completes byte-exact, and quiesce waits out
        // every pending retry.
        let config = EndpointConfig {
            dedup_window: 256,
            fault_model: FaultModel {
                drop_p: 0.2,
                dup_p: 0.1,
                reorder_p: 0.05,
                ..FaultModel::NONE
            },
            fault_seed: 42,
            wire_workers: 4,
            ..EndpointConfig::default()
        };
        let net =
            AsyncNetwork::for_endpoint_config(32, DeliveryOrder::InOrder, Duration::ZERO, &config);
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(1));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::bytes(4096))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 4096]).unwrap();
        let payload: Vec<u8> = (0..4096usize).map(|i| (i % 251) as u8).collect();
        client
            .put(NodeAddr::node(0), VirtAddr::new(1), &payload)
            .unwrap();
        net.quiesce();
        assert_eq!(note.wait().data(), payload.as_slice());
        let stats = net.fault_stats().expect("faults active");
        assert!(stats.dropped() > 0, "128 fragments at 20% loss");
        assert_eq!(
            server.stats().duplicates_dropped,
            stats.duplicated(),
            "every duplicated copy was suppressed by the dedup window"
        );
        assert!(client.take_nacks().is_empty());
    }

    #[test]
    fn async_crash_fault_black_holes_the_endpoint() {
        // The 4th network-wide transmission crashes the destination: the
        // endpoint vanishes, and everything after it surfaces asynchronous
        // NoSuchMailbox NACKs (or fails fast at submission) instead of
        // hanging quiesce or teardown.
        let config = EndpointConfig {
            dedup_window: 64,
            fault_model: FaultModel {
                crash_after_frags: Some(4),
                ..FaultModel::NONE
            },
            fault_seed: 7,
            wire_workers: 1,
            ..EndpointConfig::default()
        };
        let net =
            AsyncNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, Duration::ZERO, &config);
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(1));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::bytes(256))
            .unwrap();
        let _note = win.post_buffer(vec![0; 256]).unwrap();
        for k in 0..16usize {
            // Submission races the crash: a put after the removal fails
            // fast, one before it is NACKed by the wire worker.
            let _ = client.put_at(
                NodeAddr::node(0),
                VirtAddr::new(1),
                k * 16,
                &[k as u8 + 1; 16],
            );
        }
        net.quiesce();
        assert_eq!(
            server.stats().fragments_accepted,
            3,
            "only the pre-crash fragments landed"
        );
        assert!(client
            .take_nacks()
            .iter()
            .all(|(_, r)| *r == NackReason::NoSuchMailbox));
    }

    #[test]
    fn zero_length_put_bypasses_async_fault_dice() {
        // A zero-length put carries no payload to corrupt: it must count
        // its op without ever touching the fault dice — even at 100% loss.
        let config = EndpointConfig {
            dedup_window: 16,
            fault_model: FaultModel {
                drop_p: 1.0,
                ..FaultModel::NONE
            },
            wire_workers: 1,
            ..EndpointConfig::default()
        };
        let net = AsyncNetwork::for_endpoint_config(
            DEFAULT_MTU,
            DeliveryOrder::InOrder,
            Duration::ZERO,
            &config,
        );
        let server = net.add_endpoint(NodeAddr::node(0));
        let client = net.initiator(NodeAddr::node(1));
        let win = server
            .init_window(VirtAddr::new(1), Threshold::ops(1))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 8]).unwrap();
        client
            .put(NodeAddr::node(0), VirtAddr::new(1), &[])
            .unwrap();
        net.quiesce();
        assert_eq!(note.wait().len(), 0);
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.transmitted(), 0, "the dice never rolled");
    }
}
