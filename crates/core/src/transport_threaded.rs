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
//! The initiator is the crate's one send engine (`crate::link`) over these
//! rings. This wire's part: a small lock-free route cache of (destination,
//! mailbox) → ring, validated against the network's endpoint generation (a
//! miss consults the endpoint table, and fails fast with
//! [`RvmaError::UnknownDestination`]); eager payloads copied once into the
//! initiator's [`PayloadPool`], crossing as one [`Fragment`] or one
//! `DeliverBatch`; and [`AsyncInitiator::batch`], one crossing per (ring,
//! destination) for many puts. A flush puts a marker on every ring and
//! parks on their one countdown. Dropping the network closes every ring,
//! then joins each worker, which drains its ring to the index the close
//! fixed: a racing put is refused ([`RvmaError::TransportFailed`]) or
//! delivered, never stranded.
//!
//! # Fault injection (the link-level reliability layer)
//!
//! [`AsyncNetwork::for_endpoint_config`] with a non-trivial
//! [`EndpointConfig::fault_model`](crate::endpoint::EndpointConfig) turns
//! each wire worker into a lossy link with its own seeded dice (seeds
//! derived from [`fault_seed`](crate::endpoint::EndpointConfig), counters
//! shared in one [`FaultStats`]), under
//! [the link discipline](crate::retry#the-link-discipline) shared with the
//! shm backend. This transport's part is only that a retransmission goes
//! to the back of the *same* worker's ring (kept by the worker while the
//! ring is full), and that a crash removes the endpoint from the network
//! exactly as [`AsyncNetwork::remove_endpoint`] does.

use crate::addr::{NodeAddr, VirtAddr};
use crate::csync::{self, AtomicU64 as CheckedU64, Mutation};
use crate::endpoint::{EndpointConfig, Fragment, RvmaEndpoint};
use crate::error::{NackReason, Result, RvmaError};
use crate::link::{self, notified, refused, Initiator, Link, NackSink, Op, PutNotify, Unit};
pub use crate::link::{PutDelivery, PutFuture};
use crate::pool::{PayloadPool, PoolStats};
use crate::retry::FaultStats;
use crate::ring::{PushError, Ring, RingQueue, RingStats, RingStatsSnapshot};
use crate::telemetry::Telemetry;
use crate::transport::{DeliveryOrder, DEFAULT_MTU};
use crate::wire::{Fabric, Wire, WireMsg, WireWorker};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default doorbell threshold of [`AsyncInitiator::batch`]: a batch
/// auto-flushes once this many fragments are pending.
pub const DEFAULT_DOORBELL_FRAGS: usize = 256;

/// Slots in an initiator's route cache (direct-mapped).
const ROUTE_SLOTS: usize = 8;

/// Where a threaded message's NACKs and delivery countdown go.
///
/// The `nacks` Arc travels with the message because the wire worker that
/// eventually discards a fragment must publish the NACK into *its
/// initiator's* sink without holding any reference to the initiator
/// itself, which may be long gone by delivery time.
#[derive(Clone)]
struct Reply {
    nacks: NackSink,
    /// Delivery countdown of a notified put; retransmissions carry it
    /// forward so the decrement happens exactly once per fragment.
    notify: Option<Arc<PutNotify>>,
}

type RingMsg = WireMsg<RingWire>;

/// The threaded backend's [`Wire`]: one worker's bounded ring.
struct RingWire(Arc<RingQueue<RingMsg>>);

impl Wire for RingWire {
    /// A rendezvous put carries the caller's shared allocation whole as
    /// its `frag.data`; the marker only says it is a descriptor.
    type Desc = ();
    type Reply = Reply;
    /// The flush's countdown, one step per ring.
    type Ack = Arc<PutNotify>;

    fn pop(&mut self) -> Option<RingMsg> {
        self.0.try_pop()
    }

    fn park(&mut self) {
        self.0.park_consumer();
    }

    fn closed(&self) -> bool {
        self.0.is_drained()
    }

    fn requeue(&mut self, msg: RingMsg) -> std::result::Result<(), RingMsg> {
        self.0
            .try_push(msg)
            .map_err(|(PushError::Full(m) | PushError::Closed(m))| m)
    }

    fn reply(&self, reply: Reply, frags: usize, nacks: &[(usize, VirtAddr, NackReason)]) {
        if !nacks.is_empty() {
            let mut sink = reply.nacks.lock();
            sink.extend(nacks.iter().map(|&(_, vaddr, reason)| (vaddr, reason)));
        }
        if let Some(n) = reply.notify {
            n.fragments_done(frags as u64, !nacks.is_empty());
        }
    }

    fn flush_ack(&self, done: Arc<PutNotify>) {
        done.fragments_done(1, false);
    }

    fn gather<'w>(&'w self, frag: &'w Fragment, _: &()) -> Option<&'w [u8]> {
        Some(&frag.data)
    }
}

struct Shared {
    fabric: Fabric,
    mtu: usize,
    order: DeliveryOrder,
    rng: Mutex<StdRng>,
    /// One bounded FIFO ring per wire worker (see the module docs'
    /// backpressure contract).
    queues: Vec<Arc<RingQueue<RingMsg>>>,
    /// Depth/backpressure counters shared by every ring of this network.
    ring_stats: Arc<RingStats>,
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
    /// A flush's markers, one per ring, and their countdown. A closed
    /// ring takes none: its step ends failed at once, as no ack will come.
    fn push_markers(&self) -> Arc<PutNotify> {
        let done = PutNotify::new(self.queues.len() as u64);
        for q in &self.queues {
            if q.push(WireMsg::Flush(done.clone())).is_err() {
                done.fragments_done(1, true);
            }
        }
        done
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

fn wire_worker(shared: Arc<Shared>, idx: usize, latency: Duration) {
    let ring = shared.queues[idx].clone();
    ring.register_consumer();
    WireWorker::new(RingWire(ring), &shared.fabric, idx, latency).run();
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
        let queues: Vec<Arc<RingQueue<RingMsg>>> = (0..workers)
            .map(|_| {
                Arc::new(RingQueue::with_stats(
                    endpoint_config.wire_queue_cap,
                    ring_stats.clone(),
                ))
            })
            .collect();
        let shared = Arc::new(Shared {
            fabric: Fabric::new(endpoint_config),
            mtu,
            order,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            queues,
            ring_stats,
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
        let ep = RvmaEndpoint::with_config(addr, self.shared.fabric.config.clone());
        self.register(ep.clone());
        ep
    }

    /// Attach an existing endpoint.
    pub fn register(&self, endpoint: Arc<RvmaEndpoint>) {
        endpoint.attach_wire_stats(self.shared.ring_stats.clone());
        self.shared.fabric.register(endpoint);
    }

    /// Detach the endpoint at `addr`. Bumps the route generation, so every
    /// initiator's cached routes to it go stale and the next submission
    /// fails fast. Fragments already queued race the removal the way they
    /// would on a real fabric: workers that process them afterwards publish
    /// asynchronous `NoSuchMailbox` NACKs.
    pub fn remove_endpoint(&self, addr: NodeAddr) -> bool {
        self.shared.fabric.remove(addr)
    }

    /// An asynchronous initiator bound to `src`.
    pub fn initiator(&self, src: NodeAddr) -> AsyncInitiator {
        let link = RingLink {
            shared: self.shared.clone(),
            routes: Default::default(),
            route_hits: AtomicU64::new(0),
            route_misses: AtomicU64::new(0),
            pool: PayloadPool::new(),
        };
        let lanes = (self.shared.mtu, self.shared.fabric.config.eager_threshold);
        let mut engine = Initiator::new(link, src, lanes);
        engine.telemetry = self.shared.fabric.telemetry.clone();
        AsyncInitiator { engine }
    }

    /// Block until every fragment submitted so far has been delivered:
    /// a flush marker goes onto every worker queue (each is FIFO, so the
    /// ack implies everything ahead of it was processed), and the caller
    /// parks until all are acked. With fault injection active a worker
    /// holds its ack until its own link-level retransmissions — which
    /// land *behind* the marker — are done.
    pub fn quiesce(&self) {
        // The rings close only in `Drop`, so the barrier cannot fail here.
        let _ = link::flush(self.shared.push_markers(), None);
    }

    /// The network-wide fault counters, when fault injection is active.
    pub fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.shared.fabric.fault_stats()
    }

    /// The network-wide telemetry recorder, when
    /// [`EndpointConfig::telemetry`] is enabled. Drain it with
    /// [`Telemetry::snapshot`] after a [`quiesce`](AsyncNetwork::quiesce).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.fabric.telemetry.clone()
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
        // Close first: a submission racing this drop either claimed its
        // slot before the close, and its worker drains it before exiting,
        // or fails fast. No accepted fragment is stranded.
        for q in &self.shared.queues {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The threaded backend's [`Link`]: the network's rings, and one
/// initiator's route cache and payload pool.
struct RingLink {
    shared: Arc<Shared>,
    /// The route cache: direct-mapped by [`route_hash`].
    routes: [RouteSlot; ROUTE_SLOTS],
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    pool: PayloadPool,
}

impl RingLink {
    /// A put longer than one MTU: one pooled copy, cut at the MTU,
    /// shuffled on an `OutOfOrder` network.
    fn cut(
        &self,
        src: NodeAddr,
        id: u64,
        vaddr: VirtAddr,
        at: usize,
        data: &[u8],
    ) -> Vec<Fragment> {
        let payload = self.pool.acquire(data);
        let mut frags = Fragment::split(src, id, vaddr, at, &payload, self.shared.mtu);
        if let DeliveryOrder::OutOfOrder { .. } = self.shared.order {
            frags.shuffle(&mut *self.shared.rng.lock());
        }
        frags
    }
}

impl Link for RingLink {
    type Route = usize;
    /// A rendezvous put's descriptor is the caller's shared allocation.
    type Desc = Bytes;

    /// Resolve the worker queue for (dest, vaddr).
    ///
    /// Steady state is the lock-free cache hit. A miss (cold route, or the
    /// endpoint generation moved) checks that `dest` exists — under the
    /// endpoint table's read lock, once — so an unknown destination still
    /// fails fast. That check is advisory, not load-bearing: an endpoint
    /// removed *after* it (or after a hit) is caught by the wire worker,
    /// which publishes an asynchronous `NoSuchMailbox` NACK. Correctness
    /// never depends on the initiator-side existence check.
    #[inline]
    fn route(&self, dest: NodeAddr, vaddr: VirtAddr) -> Result<usize> {
        let packed = pack_addr(dest);
        let generation = self.shared.fabric.generation();
        let hash = route_hash(packed, vaddr.raw()) as usize;
        let slot = &self.routes[hash % ROUTE_SLOTS];
        if let Some(queue) = slot.read(packed, vaddr.raw(), generation) {
            self.route_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(queue);
        }
        self.route_misses.fetch_add(1, Ordering::Relaxed);
        if !self.shared.fabric.contains(dest) {
            return Err(RvmaError::UnknownDestination);
        }
        // One mailbox's traffic always lands on one FIFO queue.
        let queue = hash % self.shared.queues.len();
        slot.publish(packed, vaddr.raw(), generation, queue);
        Ok(queue)
    }

    fn lend(&self, data: Bytes) -> std::result::Result<Bytes, Bytes> {
        Ok(data)
    }

    /// One ring crossing, `RingEnqueue`d with the ring's index. A
    /// descriptor is one `Deliver` carrying the whole allocation, never
    /// sliced — reordering happens between descriptors (fault-layer
    /// retransmits), never inside one.
    #[inline(always)]
    fn push(
        &self,
        queue: usize,
        op: &Op<'_>,
        unit: Unit<'_, Bytes>,
        notify: Option<Arc<PutNotify>>,
    ) -> std::result::Result<(), PushError<()>> {
        let (ring, dest) = (&self.shared.queues[queue], op.dest);
        let reply = || Reply {
            nacks: op.nacks.clone(),
            notify,
        };
        // Each arm pushes its own message: merging them into one value
        // first costs every put a copy of it, and a sender that slow lets
        // the worker catch up and poll the slot it writes next.
        let pushed = match unit {
            // At most one MTU (zero-length puts too): one pooled copy and
            // one fragment, no vector.
            Unit::Eager(data) if data.len() <= self.shared.mtu => ring.push(WireMsg::Deliver {
                dest,
                frag: op.fragment(0, self.pool.acquire(data)),
                desc: None,
                reply: reply(),
                attempt: 0,
            }),
            Unit::Eager(data) => ring.push(WireMsg::DeliverBatch {
                dest,
                frags: self.cut(op.src, op.id, op.vaddr, op.offset, data),
                reply: reply(),
            }),
            // A descriptor is the whole allocation.
            Unit::Desc(data) => ring.push(WireMsg::Deliver {
                dest,
                frag: op.fragment(0, data),
                desc: Some(()),
                reply: reply(),
                attempt: 0,
            }),
        };
        pushed.map_err(|_| PushError::Closed(()))?;
        op.enqueued(queue as u64);
        Ok(())
    }

    fn push_flush(&self) -> Arc<PutNotify> {
        self.shared.push_markers()
    }
}

/// Asynchronous initiator handle: the send engine over the network's
/// rings.
///
/// Lanes: [`put_at`](AsyncInitiator::put_at) is eager at any size, one
/// pooled copy; [`put_bytes_at`](AsyncInitiator::put_bytes_at) above the
/// eager threshold lends the caller's `Bytes` as one descriptor. Steady
/// state takes no `RwLock` and allocates nothing beyond the pooled copy.
/// Thread-safe; a single initiator shared across threads funnels all its
/// NACKs into one [`take_nacks`](AsyncInitiator::take_nacks) sink.
pub struct AsyncInitiator {
    engine: Initiator<RingLink>,
}

link::initiator_api!(AsyncInitiator, "threaded");

impl AsyncInitiator {
    /// `RVMA_Put` of an owned payload. At or below the endpoint config's
    /// `eager_threshold` it is [`put_at`](AsyncInitiator::put_at). Above,
    /// it is a **rendezvous**: the whole `Bytes` crosses the ring as one
    /// descriptor, never sliced, and the receiver gathers it into the
    /// posted buffer — the put's only copy. The descriptor is the unit of
    /// everything downstream: one roll of the fault dice, one dedup entry,
    /// one NACK, and an overhanging put is refused whole (as the shm
    /// backend's `REQ_BULK` lane).
    pub fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        let at = (dest, vaddr, offset);
        self.engine.put_bytes(at, data, false).map(drop)
    }

    /// Notified [`put_bytes_at`](AsyncInitiator::put_bytes_at): a
    /// rendezvous put is one descriptor and reports `fragments == 1`, an
    /// eager one its MTU fragment count.
    pub fn put_bytes_notify_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<PutFuture> {
        notified(self.engine.put_bytes((dest, vaddr, offset), data, true))
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
            init: &self.engine,
            groups: Vec::new(),
            memo: None,
            pending: 0,
            doorbell: doorbell_frags.max(1),
        }
    }

    /// Route-cache counters (hits resolve with no lock and no rehash).
    pub fn route_stats(&self) -> RouteStats {
        RouteStats {
            hits: self.engine.link.route_hits.load(Ordering::Relaxed),
            misses: self.engine.link.route_misses.load(Ordering::Relaxed),
        }
    }

    /// Payload-pool counters (hits reuse a retired allocation).
    pub fn pool_stats(&self) -> PoolStats {
        self.engine.link.pool.stats()
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
    init: &'a Initiator<RingLink>,
    /// (queue index, destination, fragments) groups; linear scan — a
    /// batch rarely targets more than a handful of destinations.
    groups: Vec<(usize, NodeAddr, Vec<Fragment>)>,
    /// Last (dest, vaddr) resolved → (generation, group index).
    /// Messaging loops hammer one route; the memo skips even the route
    /// cache and the group scan on consecutive same-route puts.
    memo: Option<(NodeAddr, VirtAddr, u64, usize)>,
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
        let link = &self.init.link;
        let generation = link.shared.fabric.generation();
        let group_idx = match self.memo {
            Some((d, v, g, gi)) if d == dest && v == vaddr && g == generation => gi,
            _ => {
                let queue_idx = link.route(dest, vaddr)?;
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
                self.memo = Some((dest, vaddr, generation, gi));
                gi
            }
        };
        let op = self.init.begin((dest, vaddr, offset), data.len(), true);
        let group = &mut self.groups[group_idx].2;
        if data.len() <= link.shared.mtu {
            group.push(op.fragment(0, link.pool.acquire(data)));
            self.pending += 1;
        } else {
            let mut frags = link.cut(op.src, op.id, op.vaddr, op.offset, data);
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
            if self.init.telemetry.is_some() {
                let mut last = None;
                for f in &batch {
                    if last != Some(f.op_id) {
                        self.init.enqueued(f.op_id, *queue_idx as u64);
                        last = Some(f.op_id);
                    }
                }
            }
            let (nacks, notify) = (self.init.nacks.clone(), None);
            let (dest, frags, reply) = (*dest, batch, Reply { nacks, notify });
            let msg = WireMsg::DeliverBatch { dest, frags, reply };
            if self.init.link.shared.queues[*queue_idx].push(msg).is_err() && result.is_ok() {
                result = Err(refused(PushError::Closed(())));
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
            Err(RvmaError::TransportFailed("link closed".into()))
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
        // Queue traffic across a 4-worker pool, then drop immediately: each
        // worker drains its closed ring to the final index, so every
        // fragment still delivers before the workers exit.
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
