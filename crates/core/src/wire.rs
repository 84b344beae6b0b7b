//! The wire worker: one receive loop for every wire backend.
//!
//! The paper's NIC has one receive pipeline whatever the link: LUT lookup
//! → place → count → at threshold, the completing write. Here that is
//! [`WireWorker`], run once per ring by the threaded pool and once on its
//! request ring by the shared-memory server. [`Wire`] lists all that
//! differs between the two; the worker is generic over it, so the
//! per-message path is statically dispatched.
//!
//! * **Runs.** On a fault-free link, the eager message popped and the
//!   eager messages already queued behind it (up to [`RUN_FRAGS`]
//!   fragments; it never waits for more) are one
//!   [`RvmaEndpoint::deliver_batch`] run: one LUT lookup per same-mailbox
//!   stretch, one lock hold per
//!   [`DELIVER_CHUNK`](crate::endpoint::DELIVER_CHUNK) fragments. Each
//!   message still gets its own NACKs and countdown.
//! * **Units.** A rendezvous descriptor, and every message on a lossy
//!   link, goes alone through the
//!   [link discipline](crate::retry#the-link-discipline). A descriptor is
//!   known by its `desc`, never by its payload length: an shm RTS's
//!   `frag.data` is empty.
//! * **Flush.** The message that ends a run's gathering is processed
//!   next, so a flush marker is acked after the replies of the run it was
//!   popped behind. A worker acks a marker once none of *its own*
//!   retransmissions is pending, and until then puts it back behind them;
//!   retransmissions never change worker, so no worker waits on another's.
//! * **Teardown.** The worker exits once its wire is closed and drained and
//!   it holds nothing; the retry budget bounds the retransmissions.

use crate::addr::{NodeAddr, VirtAddr};
use crate::csync::Idle;
use crate::endpoint::{DeliverResult, EndpointConfig, Fragment, RvmaEndpoint};
use crate::error::NackReason;
use crate::retry::{Admit, FaultInjector, FaultStats, LinkFaults};
use crate::telemetry::{self, EventKind, Telemetry};
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a network's wire workers serve, whatever the backend: the config
/// its endpoints are built with, its telemetry recorder and link faults,
/// and its endpoint registry — the map plus a generation counter, bumped
/// on every attach and detach (`remove_endpoint` and the crash fault
/// alike), that route and endpoint caches revalidate against. The
/// generation starts at 1, so a zeroed cache slot never matches.
pub(crate) struct Fabric {
    pub(crate) config: EndpointConfig,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    pub(crate) faults: Option<LinkFaults>,
    endpoints: RwLock<HashMap<NodeAddr, Arc<RvmaEndpoint>>>,
    generation: AtomicU64,
}

impl Fabric {
    pub(crate) fn new(config: EndpointConfig) -> Fabric {
        let telemetry = config.telemetry.then(|| Arc::new(Telemetry::new()));
        Fabric {
            faults: LinkFaults::from_config(&config, &telemetry),
            config,
            telemetry,
            endpoints: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(1),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    pub(crate) fn contains(&self, addr: NodeAddr) -> bool {
        self.endpoints.read().contains_key(&addr)
    }

    /// Attach `ep`, reporting to the fabric's telemetry.
    pub(crate) fn register(&self, ep: Arc<RvmaEndpoint>) {
        if let Some(t) = &self.telemetry {
            ep.attach_telemetry(t.clone());
        }
        self.endpoints.write().insert(ep.addr(), ep);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Detach the endpoint at `addr`. Messages already queued for it NACK
    /// `NoSuchMailbox` at the worker.
    pub(crate) fn remove(&self, addr: NodeAddr) -> bool {
        let removed = self.endpoints.write().remove(&addr).is_some();
        if removed {
            self.generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    pub(crate) fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.faults.as_ref().map(LinkFaults::stats)
    }
}

/// A wire worker's generation-validated endpoint cache: steady-state
/// delivery resolves destinations from a thread-local map instead of the
/// registry's `RwLock`. Negative results are not cached.
#[derive(Default)]
struct EndpointCache {
    generation: u64,
    map: HashMap<NodeAddr, Arc<RvmaEndpoint>>,
}

impl EndpointCache {
    fn get(&mut self, fabric: &Fabric, dest: NodeAddr) -> Option<Arc<RvmaEndpoint>> {
        let current = fabric.generation();
        if current != self.generation {
            self.map.clear();
            self.generation = current;
        }
        if let Some(ep) = self.map.get(&dest) {
            return Some(ep.clone());
        }
        let ep = fabric.endpoints.read().get(&dest).cloned();
        if let Some(ep) = &ep {
            self.map.insert(dest, ep.clone());
        }
        ep
    }
}

/// One message on a wire, in the form the worker handles it.
pub(crate) enum WireMsg<W: Wire> {
    /// One wire unit: an eager fragment, or — with `desc` — a whole
    /// rendezvous descriptor, whose payload [`Wire::gather`] finds.
    Deliver {
        dest: NodeAddr,
        frag: Fragment,
        desc: Option<W::Desc>,
        reply: W::Reply,
        /// Fault-layer attempts already burned on this unit.
        attempt: u32,
    },
    /// Eager fragments for one endpoint — one multi-fragment put, or many
    /// coalesced puts — crossing as one message with one reply handle.
    DeliverBatch {
        dest: NodeAddr,
        frags: Vec<Fragment>,
        reply: W::Reply,
    },
    /// Flush barrier (see the module docs' flush rule).
    Flush(W::Ack),
}

/// What one backend's wire does differently; everything else is the
/// [`WireWorker`]'s.
pub(crate) trait Wire: Sized {
    /// What marks a rendezvous descriptor and locates its payload.
    type Desc;
    /// Where a message's NACKs and delivery countdown go.
    type Reply: Clone;
    /// Where a flush marker's ack goes.
    type Ack;

    /// The next message, without waiting.
    fn pop(&mut self) -> Option<WireMsg<Self>>;
    /// Sleep until `pop` may find a message or the wire closes; may
    /// return spuriously.
    fn park(&mut self);
    /// Closed, and everything accepted before the close popped. Polled
    /// on every empty pop, so it must not read a line producers write.
    fn closed(&self) -> bool;
    /// Queue `msg` behind the traffic on the wire, or hand it back.
    fn requeue(&mut self, msg: WireMsg<Self>) -> Result<(), WireMsg<Self>>;
    /// A message of `frags` fragments reached its final disposition with
    /// `nacks` (run index, vaddr, reason), in order.
    fn reply(&self, reply: Self::Reply, frags: usize, nacks: &[(usize, VirtAddr, NackReason)]);
    /// Ack a flush marker.
    fn flush_ack(&self, ack: Self::Ack);
    /// Descriptor `desc`'s payload, about to be placed for `frag`; `None`
    /// when it names no valid memory (refused `OutOfBounds`).
    fn gather<'w>(&'w self, frag: &'w Fragment, desc: &'w Self::Desc) -> Option<&'w [u8]>;
}

/// Most fragments one run gathers before it is delivered. A message is
/// never split, so one large `DeliverBatch` may exceed it on its own.
const RUN_FRAGS: usize = 256;

/// Eager messages popped back to back and delivered as one
/// [`RvmaEndpoint::deliver_batch`] call per same-destination stretch.
/// Owned by the worker and emptied after each run, so steady state
/// allocates nothing.
struct Run<R> {
    /// Every fragment of the run, in pop order.
    frags: Vec<Fragment>,
    /// One entry per message, in pop order.
    units: Vec<RunUnit<R>>,
    /// The run's refusals, tagged with the refused fragment's index in
    /// `frags` (ascending). A unit delivered alone collects its own here.
    nacks: Vec<(usize, VirtAddr, NackReason)>,
}

/// What a message of a run must get back: its NACKs and its countdown.
struct RunUnit<R> {
    dest: NodeAddr,
    /// One past the message's last fragment in [`Run::frags`].
    end: usize,
    reply: R,
}

impl<R> Run<R> {
    fn push<W: Wire<Reply = R>>(&mut self, msg: WireMsg<W>) {
        let (dest, reply) = match msg {
            WireMsg::Deliver {
                dest, frag, reply, ..
            } => {
                self.frags.push(frag);
                (dest, reply)
            }
            WireMsg::DeliverBatch {
                dest,
                mut frags,
                reply,
            } => {
                self.frags.append(&mut frags);
                (dest, reply)
            }
            WireMsg::Flush(_) => unreachable!("markers never join a run"),
        };
        self.units.push(RunUnit {
            dest,
            end: self.frags.len(),
            reply,
        });
    }

    /// Deliver the fragments, one `deliver_batch` per stretch of messages
    /// to the same endpoint, collecting every refusal into `nacks`.
    fn deliver(&mut self, fabric: &Fabric, cache: &mut EndpointCache) {
        if fabric.telemetry.is_some() {
            for f in &self.frags {
                telemetry::record(
                    &fabric.telemetry,
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
            match cache.get(fabric, stretch[0].dest) {
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

    /// Give each message its own NACKs, then its countdown, and empty the
    /// run for reuse.
    fn settle<W: Wire<Reply = R>>(&mut self, wire: &W) {
        let (mut start, mut k) = (0, 0);
        for unit in self.units.drain(..) {
            let first = k;
            while k < self.nacks.len() && self.nacks[k].0 < unit.end {
                k += 1;
            }
            wire.reply(unit.reply, unit.end - start, &self.nacks[first..k]);
            start = unit.end;
        }
        self.nacks.clear();
    }
}

/// One wire worker: the single consumer of its wire, its endpoint cache,
/// and — on a lossy link — its own seeded dice.
pub(crate) struct WireWorker<'a, W: Wire> {
    wire: W,
    fabric: &'a Fabric,
    /// Charged per fragment before delivery (a run sleeps once for all).
    latency: Duration,
    cache: EndpointCache,
    link: Option<(&'a LinkFaults, FaultInjector)>,
    /// This worker's retransmissions not yet fully processed.
    retries: u64,
    /// Messages the wire could not take back (see [`Self::requeue`]).
    deferred: VecDeque<WireMsg<W>>,
    /// The message that ended the last run's gathering; processed next.
    held: Option<WireMsg<W>>,
    run: Run<W::Reply>,
}

impl<'a, W: Wire> WireWorker<'a, W> {
    /// Worker `idx` of a network (it seeds the worker's fault dice).
    pub(crate) fn new(wire: W, fabric: &'a Fabric, idx: usize, latency: Duration) -> Self {
        WireWorker {
            wire,
            fabric,
            latency,
            cache: EndpointCache::default(),
            link: fabric.faults.as_ref().map(|f| (f, f.injector(idx))),
            retries: 0,
            deferred: VecDeque::new(),
            held: None,
            run: Run {
                frags: Vec::new(),
                units: Vec::new(),
                nacks: Vec::new(),
            },
        }
    }

    /// Process messages until the wire is closed and drained.
    pub(crate) fn run(mut self) {
        while let Some(msg) = self.next_msg() {
            self.handle(msg);
        }
    }

    /// Queue `msg` behind the traffic on this worker's own wire without
    /// blocking (the worker IS its consumer). What the wire cannot take
    /// waits in `deferred`, which drains as the wire has room or runs dry.
    fn requeue(&mut self, msg: WireMsg<W>) {
        if let Err(m) = self.wire.requeue(msg) {
            self.deferred.push_back(m);
        }
    }

    /// The next message without waiting: the one the last run held back,
    /// then the wire, then deferred messages once the wire runs dry.
    fn pop(&mut self) -> Option<WireMsg<W>> {
        self.held
            .take()
            .or_else(|| self.wire.pop())
            .or_else(|| self.deferred.pop_front())
    }

    /// The receive step: [`pop`](Self::pop), spinning under the thread's
    /// [`Idle`] budget, then parking on the wire. `None` once the wire is
    /// closed and drained.
    fn next_msg(&mut self) -> Option<WireMsg<W>> {
        // Move one deferred message back behind the queued traffic, so the
        // list drains even while the wire stays busy.
        if let Some(m) = self.deferred.pop_front() {
            if let Err(m) = self.wire.requeue(m) {
                self.deferred.push_front(m);
            }
        }
        if let Some(m) = self.pop() {
            return Some(m);
        }
        // `held` and `deferred` are this worker's own: only the wire can
        // fill while it idles.
        let mut idle = Idle::new();
        loop {
            if let Some(m) = self.wire.pop() {
                idle.done();
                return Some(m);
            }
            if self.wire.closed() {
                return None;
            }
            if !idle.spin() {
                self.wire.park();
            }
        }
    }

    #[inline]
    fn handle(&mut self, msg: WireMsg<W>) {
        match msg {
            WireMsg::Flush(ack) if self.retries > 0 => self.requeue(WireMsg::Flush(ack)),
            WireMsg::Flush(ack) => self.wire.flush_ack(ack),
            msg if self.joins_run(&msg) => self.deliver_run(msg),
            WireMsg::Deliver {
                dest,
                frag,
                desc,
                reply,
                attempt,
            } => self.deliver_unit(dest, frag, desc, reply, attempt),
            WireMsg::DeliverBatch { dest, frags, reply } => {
                // A lossy link carries each fragment as its own unit.
                for frag in frags {
                    self.deliver_unit(dest, frag, None, reply.clone(), 0);
                }
            }
        }
    }

    /// Whether `msg` joins a run: eager traffic on a fault-free link. A
    /// descriptor stays alone so `EpochProgress` paces per descriptor (in
    /// runs it advanced 8 MiB at a time; `bulk_large` p99 went 140 → ~1,000
    /// µs).
    fn joins_run(&self, msg: &WireMsg<W>) -> bool {
        self.link.is_none()
            && match msg {
                WireMsg::Deliver { desc, .. } => desc.is_none(),
                WireMsg::DeliverBatch { .. } => true,
                WireMsg::Flush(_) => false,
            }
    }

    /// Deliver `first` and the eager messages already queued behind it as
    /// one run; the first message that cannot join is held.
    fn deliver_run(&mut self, first: WireMsg<W>) {
        self.run.push(first);
        while self.run.frags.len() < RUN_FRAGS {
            match self.wire.pop() {
                Some(msg) if self.joins_run(&msg) => self.run.push(msg),
                other => {
                    self.held = other;
                    break;
                }
            }
        }
        if !self.latency.is_zero() {
            // Every fragment pays the latency, in one sleep.
            std::thread::sleep(self.latency * self.run.frags.len() as u32);
        }
        self.run.deliver(self.fabric, &mut self.cache);
        self.run.settle(&self.wire);
    }

    /// One wire unit through the link ([`LinkFaults::admit`]) to its final
    /// disposition.
    fn deliver_unit(
        &mut self,
        dest: NodeAddr,
        frag: Fragment,
        desc: Option<W::Desc>,
        reply: W::Reply,
        attempt: u32,
    ) {
        let fabric = self.fabric;
        let copies = match self.link.as_mut() {
            None => 1,
            Some((faults, injector)) => {
                let len = match desc {
                    Some(_) => frag.op_total_len as usize,
                    None => frag.data.len(),
                };
                let on_crash = || {
                    fabric.remove(dest);
                };
                match faults.admit(injector, &frag, len, attempt, on_crash) {
                    Admit::Deliver { copies } => copies,
                    Admit::Retransmit => {
                        // The retried copy carries the reply handle on.
                        self.retries += 1;
                        self.requeue(WireMsg::Deliver {
                            dest,
                            frag,
                            desc,
                            reply,
                            attempt: attempt + 1,
                        });
                        self.retire(attempt);
                        return;
                    }
                }
            }
        };
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        // However many copies the link made, one `WireDeliver` event and
        // one disposition; a lookup miss is a `NoSuchMailbox` refusal.
        telemetry::record(
            &fabric.telemetry,
            EventKind::WireDeliver,
            telemetry::initiator_key(frag.initiator.nid, frag.initiator.pid),
            frag.op_id,
            frag.offset as u64,
        );
        let nacks = &mut self.run.nacks;
        match self.cache.get(fabric, dest) {
            None => nacks.push((0, frag.dst_vaddr, NackReason::NoSuchMailbox)),
            Some(ep) => {
                let payload = match &desc {
                    Some(d) => self.wire.gather(&frag, d),
                    None => Some(&frag.data[..]),
                };
                for _ in 0..copies {
                    let placed = match payload {
                        Some(data) => ep.deliver_slice(
                            frag.initiator,
                            frag.op_id,
                            frag.dst_vaddr,
                            frag.op_total_len,
                            frag.offset,
                            data,
                        ),
                        // A corrupt or hostile descriptor NACKs instead of
                        // faulting the process.
                        None => DeliverResult::Nack(NackReason::OutOfBounds),
                    };
                    if let DeliverResult::Nack(reason) = placed {
                        nacks.push((0, frag.dst_vaddr, reason));
                    }
                }
            }
        }
        self.wire.reply(reply, 1, &self.run.nacks);
        self.run.nacks.clear();
        self.retire(attempt);
    }

    /// This transmission of the unit is fully processed (see
    /// [`LinkFaults::retire`]).
    fn retire(&mut self, attempt: u32) {
        if let Some((faults, _)) = &self.link {
            faults.retire(attempt);
            if attempt > 0 {
                self.retries -= 1;
            }
        }
    }
}
