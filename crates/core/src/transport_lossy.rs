//! The inline network — and RVMA's reliability boundary, with the lab
//! bench for the recovery layer above it.
//!
//! [`LossyNetwork`] is a registry of [`RvmaEndpoint`]s plus a wire model:
//! puts are fragmented at an MTU and delivered to the target endpoint on
//! the calling thread (the "NIC datapath" runs inline, which is faithful —
//! the target host CPU is never involved), in transmit order. No ordering
//! is enforced *across* operations or initiators: puts from many threads
//! interleave at the target. Out-of-order delivery within a put is the
//! threaded network's
//! [`DeliveryOrder::OutOfOrder`](crate::transport::DeliveryOrder).
//!
//! RVMA (like RDMA) is specified over a **reliable** fabric: HPC networks
//! retransmit at the link layer, so the NIC never sees drops or duplicates.
//! With [`FaultModel::NONE`] this network is that fabric. The
//! threshold-counting completion rule is only sound under that assumption,
//! and a non-trivial [`FaultModel`] makes the failures testable:
//!
//! * a **dropped** fragment means the byte/op counter never reaches the
//!   threshold — the epoch simply never completes (detectable with
//!   [`Notification::wait_timeout`], recoverable with
//!   [`Window::recover_timeout`]);
//! * a **duplicated** fragment is counted twice — the epoch can complete
//!   *early*, before all distinct bytes have arrived (prevented by the
//!   receiver-side [`DedupWindow`](crate::retry::DedupWindow) when
//!   [`EndpointConfig::dedup_window`] is set);
//! * a **reordered/delayed** fragment arrives behind younger traffic —
//!   harmless to Steered-mode placement, but it can race a retransmitted
//!   copy of itself (again absorbed by dedup);
//! * a **crashed** endpoint black-holes everything — the initiator's retry
//!   budget turns the silence into [`RvmaError::RetryExhausted`].
//!
//! Use [`LossyNetwork::initiator`] for the raw initiator (`RVMA_Put`: one
//! transmission per fragment, faults land where they land) and
//! [`LossyNetwork::reliable_initiator`] for the retransmitting one, whose
//! recovery paths live in [`crate::retry`].
//!
//! [`Notification::wait_timeout`]: crate::notify::Notification::wait_timeout
//! [`Window::recover_timeout`]: crate::window::Window::recover_timeout
//! [`EndpointConfig::dedup_window`]: crate::endpoint::EndpointConfig
//! [`RvmaError::RetryExhausted`]: crate::error::RvmaError::RetryExhausted

use crate::addr::{NodeAddr, VirtAddr};
use crate::buffer::CompletedBuffer;
use crate::endpoint::{DeliverResult, EndpointConfig, Fragment, RvmaEndpoint};
use crate::error::{NackReason, Result, RvmaError};
pub use crate::retry::FaultModel;
use crate::retry::{FaultDecision, FaultInjector, FaultStats, ReliableInitiator, RetryConfig};
use crate::telemetry::{self, EventKind, Telemetry};
use crate::transport::{PutResult, Transport};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fragment held back by a reorder/delay fault, released after
/// `remaining` further transmissions.
#[derive(Debug)]
struct HeldFragment {
    dest: NodeAddr,
    frag: Fragment,
    remaining: u32,
}

/// What one call to [`LossyNetwork::transmit`] did with the fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransmitOutcome {
    /// Delivered to the endpoint; the second result is present when a
    /// duplication fault delivered the fragment twice.
    Delivered(DeliverResult, Option<DeliverResult>),
    /// Dropped by the fabric (loss fault, or the destination crashed).
    /// The initiator sees nothing — only a retry budget or a timeout can
    /// surface this.
    Lost,
    /// Held back by a reorder/delay fault; it will be delivered after
    /// later transmissions age it out (or at [`LossyNetwork::flush_delayed`]).
    Held,
}

/// The inline in-process network: MTU-fragmenting, in order, and reliable
/// under [`FaultModel::NONE`]; otherwise fragments are dropped, duplicated,
/// reordered or delayed with seeded randomness, and endpoints can crash.
#[derive(Debug)]
pub struct LossyNetwork {
    endpoints: RwLock<HashMap<NodeAddr, Arc<RvmaEndpoint>>>,
    mtu: usize,
    model: FaultModel,
    injector: Mutex<FaultInjector>,
    /// Fragments parked by reorder/delay faults, aged by later transmits.
    held: Mutex<Vec<HeldFragment>>,
    /// Destinations that crashed (explicitly or via the fault model):
    /// everything sent to them — including already-held fragments — is
    /// silently dropped.
    crashed: RwLock<HashSet<NodeAddr>>,
    stats: Arc<FaultStats>,
    endpoint_config: EndpointConfig,
    /// Fabric-wide event recorder, present iff
    /// `endpoint_config.telemetry`: every endpoint this network creates
    /// (and every initiator bound to it) stamps into this one instance,
    /// so a single snapshot covers the whole put lifecycle.
    telemetry: Option<Arc<Telemetry>>,
}

impl LossyNetwork {
    /// Build with an MTU, fault model, and RNG seed; endpoints get the
    /// default [`EndpointConfig`] (dedup off — the unprotected boundary).
    ///
    /// # Panics
    /// Panics if `mtu` is zero or a probability is outside `[0, 1]`.
    pub fn new(mtu: usize, model: FaultModel, seed: u64) -> Arc<Self> {
        Self::with_config(mtu, model, seed, EndpointConfig::default())
    }

    /// Build with an explicit endpoint configuration — set
    /// `endpoint_config.dedup_window > 0` to arm the receiver half of the
    /// reliability layer on every endpoint this network creates.
    ///
    /// # Panics
    /// Panics if `mtu` is zero or a probability is outside `[0, 1]`.
    pub fn with_config(
        mtu: usize,
        model: FaultModel,
        seed: u64,
        endpoint_config: EndpointConfig,
    ) -> Arc<Self> {
        assert!(mtu > 0, "MTU must be positive");
        let stats = Arc::new(FaultStats::default());
        let telemetry = endpoint_config
            .telemetry
            .then(|| Arc::new(Telemetry::new()));
        Arc::new(LossyNetwork {
            endpoints: RwLock::new(HashMap::new()),
            mtu,
            model,
            injector: Mutex::new(FaultInjector::new(model, seed, stats.clone())),
            held: Mutex::new(Vec::new()),
            crashed: RwLock::new(HashSet::new()),
            stats,
            endpoint_config,
            telemetry,
        })
    }

    /// Create and attach an endpoint (configured per the network's
    /// [`EndpointConfig`]).
    pub fn add_endpoint(&self, addr: NodeAddr) -> Arc<RvmaEndpoint> {
        let ep = RvmaEndpoint::with_config(addr, self.endpoint_config.clone());
        if let Some(t) = &self.telemetry {
            ep.attach_telemetry(t.clone());
        }
        self.endpoints.write().insert(addr, ep.clone());
        ep
    }

    /// The fabric's shared event recorder (`None` unless the network was
    /// built with `endpoint_config.telemetry`).
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.telemetry.clone()
    }

    /// True when `addr` has an attached endpoint (crashed or not).
    pub fn has_endpoint(&self, addr: NodeAddr) -> bool {
        self.endpoints.read().contains_key(&addr)
    }

    /// The network's MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// The endpoint configuration this network applies to every endpoint
    /// it creates (also carries the initiator-side `eager_threshold`).
    pub fn endpoint_config(&self) -> &EndpointConfig {
        &self.endpoint_config
    }

    /// The fault model in force.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// Fragments dropped so far (including black-holed by crashes).
    pub fn dropped(&self) -> u64 {
        self.stats.dropped()
    }

    /// Fragments duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.stats.duplicated()
    }

    /// Fragments reordered or delayed so far.
    pub fn deferred(&self) -> u64 {
        self.stats.deferred()
    }

    /// The shared fault counters.
    pub fn fault_stats(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// Crash an endpoint: from now on every fragment addressed to it —
    /// including ones already held by reorder/delay faults — is silently
    /// dropped. The endpoint stays attached (its LUT and mailboxes are
    /// intact), modelling a NIC that stopped responding, not one that was
    /// deregistered.
    pub fn crash_endpoint(&self, addr: NodeAddr) {
        self.crashed.write().insert(addr);
    }

    /// True when `addr` has crashed.
    pub fn is_crashed(&self, addr: NodeAddr) -> bool {
        self.crashed.read().contains(&addr)
    }

    /// Push one fragment through the fault dice and (maybe) deliver it.
    /// Every call first ages the held-fragment queue, releasing fragments
    /// whose deferral has expired — that is what makes a deferral a
    /// *reorder*: younger transmissions overtake it.
    ///
    /// Zero-length fragments bypass the dice entirely (they are pure
    /// control traffic — one countable op, no payload — and PR 2 fixed the
    /// threaded transport to treat them deterministically; a "dropped"
    /// empty put returning `Ok` indistinguishably from a delivered one was
    /// the bug). They still black-hole against a crashed destination.
    pub(crate) fn transmit(&self, dest: NodeAddr, frag: Fragment) -> TransmitOutcome {
        self.age_held();
        if self.is_crashed(dest) {
            self.stats.note_blackhole();
            return TransmitOutcome::Lost;
        }
        let decision = if frag.data.is_empty() {
            FaultDecision::CLEAN
        } else {
            self.injector.lock().roll()
        };
        if decision.crash {
            self.crashed.write().insert(dest);
            return TransmitOutcome::Lost;
        }
        if decision.drop {
            return TransmitOutcome::Lost;
        }
        if decision.defer_spans > 0 {
            self.held.lock().push(HeldFragment {
                dest,
                frag,
                remaining: decision.defer_spans,
            });
            return TransmitOutcome::Held;
        }
        let first = self.deliver_to(dest, &frag);
        let second = decision.duplicate.then(|| self.deliver_to(dest, &frag));
        TransmitOutcome::Delivered(first, second)
    }

    /// Deliver every held fragment immediately, regardless of remaining
    /// deferral (the "link finally drained" event). Returns how many were
    /// delivered (crashed destinations still swallow theirs).
    pub fn flush_delayed(&self) -> usize {
        let all: Vec<HeldFragment> = self.held.lock().drain(..).collect();
        let mut delivered = 0;
        for h in all {
            if self.is_crashed(h.dest) {
                self.stats.note_dropped_in_flight();
                continue;
            }
            self.deliver_to(h.dest, &h.frag);
            delivered += 1;
        }
        delivered
    }

    /// Age the held queue by one transmission; deliver what expired.
    fn age_held(&self) {
        let due: Vec<HeldFragment> = {
            let mut held = self.held.lock();
            for h in held.iter_mut() {
                h.remaining = h.remaining.saturating_sub(1);
            }
            let mut due = Vec::new();
            held.retain_mut(|h| {
                if h.remaining == 0 {
                    due.push(HeldFragment {
                        dest: h.dest,
                        frag: h.frag.clone(),
                        remaining: 0,
                    });
                    false
                } else {
                    true
                }
            });
            due
        };
        for h in due {
            if self.is_crashed(h.dest) {
                self.stats.note_dropped_in_flight();
                continue;
            }
            // Released fragments deliver as-is: their fault was already
            // rolled (and counted) when they were deferred.
            self.deliver_to(h.dest, &h.frag);
        }
    }

    fn deliver_to(&self, dest: NodeAddr, frag: &Fragment) -> DeliverResult {
        telemetry::record(
            &self.telemetry,
            EventKind::WireDeliver,
            telemetry::initiator_key(frag.initiator.nid, frag.initiator.pid),
            frag.op_id,
            frag.offset as u64,
        );
        match self.endpoint(dest) {
            Some(ep) => ep.deliver(frag),
            None => DeliverResult::Nack(NackReason::NoSuchMailbox),
        }
    }

    fn endpoint(&self, addr: NodeAddr) -> Option<Arc<RvmaEndpoint>> {
        self.endpoints.read().get(&addr).cloned()
    }

    /// An initiator bound to `src` (paper: the initiator-side API) — raw
    /// puts with the fault model applied and no recovery. Op ids drawn
    /// from it are unique per handle; use one handle per initiating
    /// thread.
    pub fn initiator(self: &Arc<Self>, src: NodeAddr) -> LossyInitiator {
        LossyInitiator {
            net: self.clone(),
            src,
            next_op: AtomicU64::new(1),
        }
    }

    /// A retransmitting initiator bound to `src` (default
    /// [`RetryConfig`]).
    ///
    /// # Panics
    /// Panics unless the network was built with
    /// `endpoint_config.dedup_window > 0`: retransmission without
    /// receiver-side dedup re-introduces the duplicate-overcount bug the
    /// reliability layer exists to fix (a deferred copy and its retransmit
    /// would both count).
    pub fn reliable_initiator(self: &Arc<Self>, src: NodeAddr) -> ReliableInitiator {
        self.reliable_initiator_with(src, RetryConfig::default())
    }

    /// A retransmitting initiator with an explicit retry policy.
    ///
    /// # Panics
    /// See [`reliable_initiator`](Self::reliable_initiator).
    pub fn reliable_initiator_with(
        self: &Arc<Self>,
        src: NodeAddr,
        retry: RetryConfig,
    ) -> ReliableInitiator {
        assert!(
            self.endpoint_config.dedup_window > 0,
            "reliable initiator requires receiver-side dedup \
             (LossyNetwork::with_config with dedup_window > 0)"
        );
        ReliableInitiator::new(self.clone(), src, retry)
    }

    /// A [`Transport`]-conformant channel over this network: a
    /// [`ReliableInitiator`] whose synchronous NACK results are re-surfaced
    /// asynchronously, so the cross-transport conformance suite can drive
    /// the inline backend through the same contract as the threaded and
    /// shared-memory ones.
    ///
    /// # Panics
    /// See [`reliable_initiator`](Self::reliable_initiator).
    pub fn inline_channel(self: &Arc<Self>, src: NodeAddr) -> InlineChannel {
        InlineChannel {
            net: self.clone(),
            init: self.reliable_initiator(src),
            nacks: Mutex::new(Vec::new()),
        }
    }
}

/// [`Transport`] adapter over [`ReliableInitiator`] — see
/// [`LossyNetwork::inline_channel`].
pub struct InlineChannel {
    net: Arc<LossyNetwork>,
    init: ReliableInitiator,
    nacks: Mutex<Vec<(VirtAddr, NackReason)>>,
}

impl Transport for InlineChannel {
    fn backend(&self) -> &'static str {
        "inline-lossy"
    }

    fn put_at(&self, dest: NodeAddr, vaddr: VirtAddr, offset: usize, data: &[u8]) -> Result<()> {
        match self.init.put_at(dest, vaddr, offset, data) {
            Ok(_) => Ok(()),
            // The inline initiator learns of the refusal synchronously;
            // the Transport contract reports it like the async backends do.
            Err(RvmaError::Nacked(r)) => {
                self.nacks.lock().push((vaddr, r));
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        match self.init.put_bytes_at(dest, vaddr, offset, data) {
            Ok(_) => Ok(()),
            Err(RvmaError::Nacked(r)) => {
                self.nacks.lock().push((vaddr, r));
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn flush(&self) -> Result<()> {
        // The reliable put already blocked until delivery; the only state
        // parked inside the backend is reorder/delay-deferred copies.
        self.net.flush_delayed();
        Ok(())
    }

    fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        std::mem::take(&mut *self.nacks.lock())
    }

    fn staged_bytes(&self) -> u64 {
        self.init.staged_bytes()
    }
}

/// Raw initiator over a [`LossyNetwork`]: issues `put` (paper:
/// `RVMA_Put`) and the `get` extension, one transmission per fragment.
/// Under faults they land where they land; use
/// [`LossyNetwork::reliable_initiator`] for delivery guarantees.
#[derive(Debug)]
pub struct LossyInitiator {
    net: Arc<LossyNetwork>,
    src: NodeAddr,
    next_op: AtomicU64,
}

impl LossyInitiator {
    /// The initiator's source address.
    pub fn src(&self) -> NodeAddr {
        self.src
    }

    /// `RVMA_Put`: send `data` to mailbox `vaddr` on `dest`, at offset 0 of
    /// the target's active buffer. No handshake, no remote address
    /// exchange.
    pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<PutResult> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// [`put`](LossyInitiator::put) at byte `offset` of the target's active
    /// buffer (paper Sec. III-B: offsets assemble one contiguous payload
    /// within a single mailbox's buffer). Stops at the first NACK: the
    /// target refused the operation, so transmitting its remaining
    /// fragments would only waste fabric and mis-count. Dropped and held
    /// fragments report nothing.
    pub fn put_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutResult> {
        if !self.net.has_endpoint(dest) {
            return Err(RvmaError::UnknownDestination);
        }
        let op_id = self.next_op.fetch_add(1, Ordering::Relaxed);
        let payload = Bytes::copy_from_slice(data);
        let frags = Fragment::split(self.src, op_id, vaddr, offset, &payload, self.net.mtu);
        let fragments = frags.len();
        let mut completed_epoch = false;
        for frag in frags {
            if let TransmitOutcome::Delivered(first, second) = self.net.transmit(dest, frag) {
                for r in std::iter::once(first).chain(second) {
                    match r {
                        DeliverResult::Ok { completed_epoch: c } => completed_epoch |= c,
                        DeliverResult::Nack(r) => return Err(RvmaError::Nacked(r)),
                        // Deduped at the receiver (an ack), or NACKs
                        // disabled there (a silent discard).
                        DeliverResult::Duplicate | DeliverResult::Dropped(_) => {}
                    }
                }
            }
        }
        Ok(PutResult {
            fragments,
            completed_epoch,
        })
    }

    /// The `RVMA_Get`-style read extension: fetch the buffer the target
    /// mailbox completed `back` epochs ago (`back = 1` = most recent).
    /// Reading *completed* epochs (never the in-progress one) keeps gets
    /// race-free without target-side coordination.
    pub fn get_retired(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        back: u64,
    ) -> Result<CompletedBuffer> {
        let ep = self
            .net
            .endpoint(dest)
            .ok_or(RvmaError::UnknownDestination)?;
        let mb = ep.mailbox(vaddr).ok_or(RvmaError::UnknownMailbox(vaddr))?;
        let mb = mb.lock();
        mb.rewind(back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;
    use std::time::Duration;

    fn setup(model: FaultModel, seed: u64) -> (Arc<LossyNetwork>, Arc<RvmaEndpoint>) {
        let net = LossyNetwork::new(64, model, seed);
        let ep = net.add_endpoint(NodeAddr::node(0));
        (net, ep)
    }

    fn setup_dedup(model: FaultModel, seed: u64) -> (Arc<LossyNetwork>, Arc<RvmaEndpoint>) {
        let net = LossyNetwork::with_config(
            64,
            model,
            seed,
            EndpointConfig {
                dedup_window: 64,
                ..Default::default()
            },
        );
        let ep = net.add_endpoint(NodeAddr::node(0));
        (net, ep)
    }

    #[test]
    fn no_faults_behaves_reliably() {
        let (net, ep) = setup(FaultModel::NONE, 1);
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(256))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 256]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        let r = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[7; 256])
            .unwrap();
        assert_eq!(r.fragments, 4);
        assert!(r.completed_epoch);
        assert_eq!(ep.stats().fragments_accepted, 4);
        assert_eq!(net.dropped(), 0);
        assert_eq!(n.poll().unwrap().data(), vec![7u8; 256].as_slice());
    }

    #[test]
    fn drops_prevent_completion_detectably() {
        // 100% drop: the epoch never completes; wait_timeout surfaces it
        // and inc_epoch recovers the partial (here: empty) buffer.
        let (net, ep) = setup(
            FaultModel {
                drop_p: 1.0,
                ..FaultModel::NONE
            },
            2,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(128))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 128]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        let r = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[7; 128])
            .unwrap();
        assert_eq!(r.fragments, 2);
        assert!(!r.completed_epoch);
        assert_eq!(ep.stats().fragments_accepted, 0);
        assert_eq!(net.dropped(), 2);
        assert!(n.wait_timeout(Duration::from_millis(5)).is_none());
        // Application-level recovery: hand the partial epoch to software.
        win.inc_epoch().unwrap();
        let buf = n.poll().unwrap();
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn duplicates_overcount_and_complete_early() {
        // 100% duplication WITHOUT dedup: the byte counter doubles, so the
        // threshold is reached after half the distinct payload — the
        // documented reason RVMA requires a reliable (dedup-ing) fabric.
        let (net, ep) = setup(
            FaultModel {
                dup_p: 1.0,
                ..FaultModel::NONE
            },
            3,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(128))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 128]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        // Send only the first half (64 B = one 64-B fragment, duplicated).
        init.put(NodeAddr::node(0), VirtAddr::new(1), &[7; 64])
            .unwrap();
        assert_eq!(net.duplicated(), 1);
        let buf = n.poll().expect("early completion from overcounting");
        // The buffer completed with only the first 64 distinct bytes.
        assert_eq!(&buf.full_buffer()[..64], &[7; 64]);
        assert_eq!(&buf.full_buffer()[64..], &[0; 64]);
    }

    #[test]
    fn dedup_window_prevents_early_completion() {
        // The same duplication storm as above, with the receiver half of
        // the reliability layer armed: byte-exact, no early completion.
        let (net, ep) = setup_dedup(
            FaultModel {
                dup_p: 1.0,
                ..FaultModel::NONE
            },
            3,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(128))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 128]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        init.put(NodeAddr::node(0), VirtAddr::new(1), &[7; 64])
            .unwrap();
        assert!(n.poll().is_none(), "half the payload is not an epoch");
        init.put_at(NodeAddr::node(0), VirtAddr::new(1), 64, &[8; 64])
            .unwrap();
        let buf = n.poll().expect("epoch completes on distinct bytes only");
        assert_eq!(&buf.full_buffer()[..64], &[7; 64]);
        assert_eq!(&buf.full_buffer()[64..], &[8; 64]);
        assert_eq!(ep.stats().duplicates_dropped, net.duplicated());
    }

    #[test]
    fn partial_drop_rates_are_seed_deterministic() {
        let run = |seed| {
            let (net, ep) = setup(
                FaultModel {
                    drop_p: 0.3,
                    dup_p: 0.1,
                    ..FaultModel::NONE
                },
                seed,
            );
            let win = ep
                .init_window(VirtAddr::new(1), Threshold::bytes(1 << 16))
                .unwrap();
            let _n = win.post_buffer(vec![0; 1 << 16]).unwrap();
            let init = net.initiator(NodeAddr::node(1));
            let _ = init.put(NodeAddr::node(0), VirtAddr::new(1), &vec![1; 1 << 16]);
            (net.dropped(), net.duplicated())
        };
        assert_eq!(run(9), run(9));
        let (d, dup) = run(9);
        assert!(d > 100 && d < 900, "drop count {d} wildly off 30% of 1024");
        assert!(dup > 10, "dup count {dup}");
    }

    #[test]
    #[should_panic(expected = "drop_p")]
    fn invalid_probability_rejected() {
        LossyNetwork::new(
            64,
            FaultModel {
                drop_p: 1.5,
                ..FaultModel::NONE
            },
            0,
        );
    }

    #[test]
    fn zero_length_put_bypasses_fault_dice() {
        // Regression: an empty put used to roll the dice on its single
        // empty fragment, making a "dropped" zero-byte put return Ok(0)
        // indistinguishable from a delivered one. Now it is deterministic
        // (matching the threaded transport's zero-length semantics).
        let (net, ep) = setup(
            FaultModel {
                drop_p: 1.0,
                ..FaultModel::NONE
            },
            5,
        );
        let win = ep.init_window(VirtAddr::new(1), Threshold::ops(1)).unwrap();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        let r = init.put(NodeAddr::node(0), VirtAddr::new(1), &[]).unwrap();
        assert_eq!((r.fragments, r.completed_epoch), (1, true));
        assert_eq!(net.dropped(), 0, "no dice rolled for the empty fragment");
        assert_eq!(n.poll().unwrap().len(), 0, "zero-byte put counts one op");
    }

    #[test]
    fn reordered_fragments_are_released_behind_younger_traffic() {
        let (net, ep) = setup_dedup(
            FaultModel {
                reorder_p: 1.0,
                ..FaultModel::NONE
            },
            6,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(128))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 128]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        // Two fragments, both deferred by one span: transmitting the
        // second releases the first; the second stays parked until flush.
        let r = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[7; 128])
            .unwrap();
        assert!(!r.completed_epoch, "nothing completes synchronously");
        assert_eq!(
            ep.stats().fragments_accepted,
            1,
            "the second transmission released the first fragment"
        );
        assert_eq!(net.deferred(), 2);
        assert!(n.poll().is_none());
        assert_eq!(net.flush_delayed(), 1, "one fragment still parked");
        let buf = n.poll().expect("epoch completes once the queue drains");
        assert_eq!(buf.data(), vec![7u8; 128].as_slice());
    }

    #[test]
    fn reliable_put_retransmits_through_heavy_loss() {
        let (net, ep) = setup_dedup(
            FaultModel {
                drop_p: 0.5,
                dup_p: 0.2,
                reorder_p: 0.1,
                ..FaultModel::NONE
            },
            7,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(512))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 512]).unwrap();
        let init = net.reliable_initiator(NodeAddr::node(1));
        let report = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[9; 512])
            .unwrap();
        assert_eq!(report.fragments, 8);
        assert!(
            report.transmissions > report.fragments,
            "50% loss must force retransmissions"
        );
        net.flush_delayed();
        let buf = n.poll().expect("every fragment eventually acked");
        assert_eq!(buf.data(), vec![9u8; 512].as_slice());
    }

    #[test]
    fn reliable_put_nack_aborts_immediately() {
        let (net, ep) = setup_dedup(FaultModel::NONE, 8);
        let _win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(256))
            .unwrap();
        let init = net.reliable_initiator(NodeAddr::node(1));
        let err = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[7; 256])
            .unwrap_err();
        assert_eq!(err, RvmaError::Nacked(NackReason::NoBufferPosted));
    }

    #[test]
    fn crashed_endpoint_exhausts_retry_budget() {
        let (net, ep) = setup_dedup(FaultModel::NONE, 9);
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(128))
            .unwrap();
        let _n = win.post_buffer(vec![0; 128]).unwrap();
        net.crash_endpoint(NodeAddr::node(0));
        let init = net.reliable_initiator(NodeAddr::node(1));
        let err = init
            .put(NodeAddr::node(0), VirtAddr::new(1), &[7; 128])
            .unwrap_err();
        assert_eq!(
            err,
            RvmaError::RetryExhausted {
                attempts: crate::retry::DEFAULT_RETRY_BUDGET,
                acked: 0,
                total: 2,
            }
        );
        assert_eq!(
            net.dropped(),
            u64::from(crate::retry::DEFAULT_RETRY_BUDGET) * 2
        );
    }

    #[test]
    fn crash_fault_fires_mid_stream() {
        // crash_after_frags = 3: fragments 1–2 land, the 3rd crashes the
        // destination, and everything after is black-holed.
        let (net, ep) = setup(
            FaultModel {
                crash_after_frags: Some(3),
                ..FaultModel::NONE
            },
            10,
        );
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::bytes(256))
            .unwrap();
        let mut n = win.post_buffer(vec![0; 256]).unwrap();
        let init = net.initiator(NodeAddr::node(1));
        init.put(NodeAddr::node(0), VirtAddr::new(1), &[7; 256])
            .unwrap();
        assert_eq!(ep.stats().fragments_accepted, 2);
        assert!(net.is_crashed(NodeAddr::node(0)));
        assert!(n.wait_timeout(Duration::from_millis(5)).is_none());
    }

    /// The raw initiator's contract on the fault-free network, one row per
    /// case: a 4-byte MTU, a 10-byte window at 7, an op-counted window at
    /// 9, and a window at 8 with nothing posted.
    #[test]
    fn raw_initiator_contract() {
        struct Row {
            case: &'static str,
            dest: u32,
            vaddr: u64,
            len: usize,
            want: Result<PutResult>,
            /// Fragments the endpoint refused: a NACK stops the put, so its
            /// remaining fragments never reach the endpoint.
            refused: u64,
        }
        let ok = |fragments, completed_epoch| {
            Ok(PutResult {
                fragments,
                completed_epoch,
            })
        };
        let nack = |r| Err(RvmaError::Nacked(r));
        #[rustfmt::skip]
        let rows = [
            Row { case: "tiny MTU fragments", dest: 1, vaddr: 7, len: 10, want: ok(3, true), refused: 0 },
            Row { case: "exactly one MTU", dest: 1, vaddr: 7, len: 4, want: ok(1, false), refused: 0 },
            Row { case: "zero bytes are one op", dest: 1, vaddr: 9, len: 0, want: ok(1, true), refused: 0 },
            Row { case: "unknown destination", dest: 42, vaddr: 7, len: 1, want: Err(RvmaError::UnknownDestination), refused: 0 },
            Row { case: "unknown mailbox", dest: 1, vaddr: 123, len: 12, want: nack(NackReason::NoSuchMailbox), refused: 1 },
            Row { case: "nothing posted", dest: 1, vaddr: 8, len: 12, want: nack(NackReason::NoBufferPosted), refused: 1 },
        ];
        for row in rows {
            let net = LossyNetwork::new(4, FaultModel::NONE, 0);
            let ep = net.add_endpoint(NodeAddr::node(1));
            let win = ep
                .init_window(VirtAddr::new(7), Threshold::bytes(10))
                .unwrap();
            let mut note = win.post_buffer(vec![0; 10]).unwrap();
            let ops = ep.init_window(VirtAddr::new(9), Threshold::ops(1)).unwrap();
            let mut op_note = ops.post_buffer(vec![0; 4]).unwrap();
            let _empty = ep
                .init_window(VirtAddr::new(8), Threshold::bytes(10))
                .unwrap();
            let init = net.initiator(NodeAddr::node(2));
            assert_eq!(init.src(), NodeAddr::node(2));

            let data: Vec<u8> = (1..=row.len as u8).collect();
            let got = init.put(NodeAddr::node(row.dest), VirtAddr::new(row.vaddr), &data);
            assert_eq!(got, row.want, "{}", row.case);
            assert_eq!(ep.stats().fragments_discarded, row.refused, "{}", row.case);
            if let Ok(r) = got {
                let done = if row.vaddr == 9 {
                    op_note.poll()
                } else {
                    note.poll()
                };
                assert_eq!(done.is_some(), r.completed_epoch, "{}", row.case);
                if let Some(buf) = done {
                    assert_eq!(buf.data(), data.as_slice(), "{}", row.case);
                }
            }
        }
    }

    #[test]
    fn get_retired_reads_completed_epochs() {
        let (net, ep) = setup(FaultModel::NONE, 13);
        let init = net.initiator(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(7), Threshold::bytes(4))
            .unwrap();
        let _ns = win.post_buffers(vec![vec![0; 4], vec![0; 4]]).unwrap();
        init.put(NodeAddr::node(0), VirtAddr::new(7), &[1; 4])
            .unwrap();
        init.put(NodeAddr::node(0), VirtAddr::new(7), &[2; 4])
            .unwrap();
        let get = |back| init.get_retired(NodeAddr::node(0), VirtAddr::new(7), back);
        assert_eq!(get(2).unwrap().data(), &[1; 4]);
        assert_eq!(get(1).unwrap().data(), &[2; 4]);
        assert_eq!(
            init.get_retired(NodeAddr::node(0), VirtAddr::new(8), 1)
                .err(),
            Some(RvmaError::UnknownMailbox(VirtAddr::new(8)))
        );
        assert_eq!(
            init.get_retired(NodeAddr::node(5), VirtAddr::new(7), 1)
                .err(),
            Some(RvmaError::UnknownDestination)
        );
    }

    #[test]
    fn many_to_one_concurrent_senders() {
        // The paper's many-to-one motivation: N initiators target one
        // mailbox; receiver needs no per-client resources.
        let (net, ep) = setup(FaultModel::NONE, 14);
        let win = ep
            .init_window(VirtAddr::new(1), Threshold::ops(16))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 16 * 8]).unwrap();
        std::thread::scope(|s| {
            for t in 0..16u32 {
                let init = net.initiator(NodeAddr::node(t + 1));
                s.spawn(move || {
                    init.put_at(
                        NodeAddr::node(0),
                        VirtAddr::new(1),
                        (t as usize) * 8,
                        &[t as u8; 8],
                    )
                    .unwrap();
                });
            }
        });
        let buf = note.wait();
        for t in 0..16usize {
            assert_eq!(&buf.full_buffer()[t * 8..(t + 1) * 8], &[t as u8; 8]);
        }
    }
}
