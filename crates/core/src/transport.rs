//! In-process transport: connects endpoints so RVMA is usable for real
//! (multi-threaded) communication, and emulates network properties.
//!
//! [`LoopbackNetwork`] is a registry of [`RvmaEndpoint`]s plus a wire model:
//! puts are fragmented at an MTU and delivered to the target endpoint on the
//! calling thread (the "NIC datapath" runs inline, which is faithful — the
//! target host CPU is never involved). The [`DeliveryOrder`] knob emulates
//! routing:
//!
//! * [`DeliveryOrder::InOrder`] — a statically-routed network: fragments of
//!   a put arrive in transmit order.
//! * [`DeliveryOrder::OutOfOrder`] — an adaptively-routed network: fragment
//!   order is shuffled per-operation with a seeded RNG. RVMA's threshold
//!   completion must (and does) produce identical results either way — the
//!   paper's central correctness claim.
//!
//! No ordering is enforced *across* operations or initiators; concurrent
//! puts from many threads interleave arbitrarily at the target, exercising
//! the endpoint's locking.

use crate::addr::{NodeAddr, VirtAddr};
use crate::buffer::CompletedBuffer;
use crate::endpoint::{DeliverResult, Fragment, RvmaEndpoint};
use crate::error::{NackReason, Result, RvmaError};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default MTU: 2 KiB payload per fragment, a typical HPC-network packet
/// payload size.
pub const DEFAULT_MTU: usize = 2048;

/// Fragment delivery order policy — the routing emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Static routing: fragments arrive in transmit order.
    InOrder,
    /// Adaptive routing: fragments of each operation are delivered in a
    /// (seeded, reproducible) random order.
    OutOfOrder {
        /// RNG seed; the same seed reproduces the same permutations.
        seed: u64,
    },
}

/// Summary the initiator sees after a put's fragments are all delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutResult {
    /// Fragments the operation was split into.
    pub fragments: usize,
    /// True if any fragment of this put completed a target epoch.
    pub completed_epoch: bool,
}

/// Initiator-side surface every transport backend offers — the contract the
/// cross-transport conformance suite (`tests/transport_conformance.rs`)
/// drives identically over the inline-lossy, threaded, and shared-memory
/// backends.
///
/// The semantics are the asynchronous ones (the lowest common denominator
/// all three backends can honour):
///
/// * [`put_at`](Transport::put_at) may return before delivery; it errors
///   only on *local* conditions (unknown destination, closed link).
/// * Target-side refusals surface as **asynchronous NACKs** through
///   [`take_nacks`](Transport::take_nacks) — even on backends that learn
///   of the NACK synchronously.
/// * [`flush`](Transport::flush) is the drain barrier: when it returns,
///   every previously submitted fragment has reached its final disposition
///   (delivered or NACKed) at the target, *including* link-level
///   retransmissions still pending inside the backend — so a subsequent
///   `take_nacks` is complete for everything submitted before the flush.
pub trait Transport: Send + Sync {
    /// Backend name for diagnostics/parametrised assertions.
    fn backend(&self) -> &'static str;

    /// `RVMA_Put` of `data` into the mailbox at `vaddr` on `dest`, writing
    /// at byte `offset` of the active buffer.
    fn put_at(&self, dest: NodeAddr, vaddr: VirtAddr, offset: usize, data: &[u8]) -> Result<()>;

    /// `RVMA_Put` at offset 0.
    fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<()> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// `RVMA_Put` of an owned, reference-counted payload.
    ///
    /// Puts larger than the backend's configured
    /// [`eager_threshold`](crate::endpoint::EndpointConfig::eager_threshold)
    /// take the zero-copy lane, which makes no initiator-side staging
    /// copy. On the threaded and shared-memory backends that lane is a
    /// rendezvous: the put travels as **one** descriptor (this shared
    /// handle itself, or a bulk-region extent) and the target places it
    /// with one gather — so it is accepted or refused whole, and faulted,
    /// deduplicated and NACKed as a unit. The inline-lossy backend keeps
    /// per-MTU slices of the handle, because per-packet loss recovery is
    /// what it models. Smaller puts keep the eager fragment path,
    /// byte-for-byte identical to [`put_at`](Self::put_at). The default
    /// implementation *is* the eager path — backends without a zero-copy
    /// lane stay correct.
    fn put_bytes_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: Bytes,
    ) -> Result<()> {
        self.put_at(dest, vaddr, offset, &data)
    }

    /// Payload bytes this initiator staged (memcpy'd into a private
    /// buffer, ring slot, or bulk extent) before handing them to the
    /// wire. `staged_bytes + endpoint bytes_copied` over
    /// `bytes_accepted` is the datapath's copies-per-delivered-byte; the
    /// in-process zero-copy lanes contribute 0 here.
    fn staged_bytes(&self) -> u64 {
        0
    }

    /// Block until every previously submitted fragment reached its final
    /// disposition at the target (the quiesce/drain barrier).
    ///
    /// A link that is gone cannot run the barrier, and says so instead of
    /// waiting for acks nobody will send: both wire backends return
    /// [`RvmaError::TransportFailed`] — the threaded one once its
    /// `AsyncNetwork` has been dropped, the shm one once the server has
    /// stopped, or dies before acking the marker — the same error a put
    /// into the closed link gets. ([`RvmaError::UnknownDestination`] stays
    /// for a destination absent from the fabric.) The inline backend keeps
    /// its network alive through the channel itself, has no peer to lose,
    /// and always returns `Ok`.
    fn flush(&self) -> Result<()>;

    /// Drain the asynchronously collected NACKs observed so far.
    fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)>;
}

/// The in-process network connecting RVMA endpoints.
#[derive(Debug)]
pub struct LoopbackNetwork {
    endpoints: RwLock<HashMap<NodeAddr, Arc<RvmaEndpoint>>>,
    mtu: usize,
    order: DeliveryOrder,
    rng: Mutex<StdRng>,
}

impl LoopbackNetwork {
    /// An in-order network with the default MTU.
    pub fn new() -> Arc<Self> {
        Self::with_options(DEFAULT_MTU, DeliveryOrder::InOrder)
    }

    /// A network with explicit MTU and delivery-order policy.
    ///
    /// # Panics
    /// Panics if `mtu` is zero.
    pub fn with_options(mtu: usize, order: DeliveryOrder) -> Arc<Self> {
        assert!(mtu > 0, "MTU must be positive");
        let seed = match order {
            DeliveryOrder::OutOfOrder { seed } => seed,
            DeliveryOrder::InOrder => 0,
        };
        Arc::new(LoopbackNetwork {
            endpoints: RwLock::new(HashMap::new()),
            mtu,
            order,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        })
    }

    /// The configured MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// The configured delivery-order policy.
    pub fn order(&self) -> DeliveryOrder {
        self.order
    }

    /// Attach an endpoint. Replaces any previous endpoint at that address.
    pub fn register(&self, endpoint: Arc<RvmaEndpoint>) {
        self.endpoints.write().insert(endpoint.addr(), endpoint);
    }

    /// Create *and* attach a fresh endpoint at `addr`.
    pub fn add_endpoint(&self, addr: NodeAddr) -> Arc<RvmaEndpoint> {
        let ep = RvmaEndpoint::new(addr);
        self.register(ep.clone());
        ep
    }

    /// Look up an attached endpoint.
    pub fn endpoint(&self, addr: NodeAddr) -> Option<Arc<RvmaEndpoint>> {
        self.endpoints.read().get(&addr).cloned()
    }

    /// An initiator handle bound to source address `src` (paper: the
    /// initiator-side API). Op ids drawn from it are unique per handle;
    /// use one handle per initiating thread/process.
    pub fn initiator(self: &Arc<Self>, src: NodeAddr) -> Initiator {
        Initiator {
            net: self.clone(),
            src,
            next_op: AtomicU64::new(1),
        }
    }
}

/// Initiator-side handle: issues `put` (paper: `RVMA_Put`) and the `get`
/// extension against remote endpoints.
#[derive(Debug)]
pub struct Initiator {
    net: Arc<LoopbackNetwork>,
    src: NodeAddr,
    next_op: AtomicU64,
}

impl Initiator {
    /// The initiator's source address.
    pub fn src(&self) -> NodeAddr {
        self.src
    }

    /// `RVMA_Put`: send `data` to mailbox `vaddr` on `dest`, at offset 0 of
    /// the target's active buffer. No handshake, no remote address exchange.
    pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<PutResult> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// `RVMA_Put` with an explicit offset into the target's active buffer
    /// (paper Sec. III-B: offsets assemble one contiguous payload within a
    /// single mailbox's buffer).
    pub fn put_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutResult> {
        let ep = self
            .net
            .endpoint(dest)
            .ok_or(RvmaError::UnknownDestination)?;
        let op_id = self.next_op.fetch_add(1, Ordering::Relaxed);
        let payload = Bytes::copy_from_slice(data);
        let mut frags = Fragment::split(self.src, op_id, vaddr, offset, &payload, self.net.mtu);

        if let DeliveryOrder::OutOfOrder { .. } = self.net.order {
            frags.shuffle(&mut *self.net.rng.lock());
        }

        let fragments = frags.len();
        let mut completed = false;
        let mut nack: Option<NackReason> = None;
        for f in &frags {
            match ep.deliver(f) {
                DeliverResult::Ok { completed_epoch } => completed |= completed_epoch,
                // The loopback never duplicates, but an endpoint with a
                // dedup window can report one if the application replays
                // an op id; it is an ack, not a failure.
                DeliverResult::Duplicate => {}
                DeliverResult::Nack(r) => nack = nack.or(Some(r)),
                DeliverResult::Dropped(_) => {
                    // NACKs disabled at the target: initiator learns nothing.
                }
            }
        }
        match nack {
            Some(r) => Err(RvmaError::Nacked(r)),
            None => Ok(PutResult {
                fragments,
                completed_epoch: completed,
            }),
        }
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

    fn net_pair(order: DeliveryOrder) -> (Arc<LoopbackNetwork>, Arc<RvmaEndpoint>, Initiator) {
        let net = LoopbackNetwork::with_options(4, order); // tiny MTU: forces fragmentation
        let target = net.add_endpoint(NodeAddr::node(1));
        let init = net.initiator(NodeAddr::node(2));
        (net, target, init)
    }

    #[test]
    fn put_without_handshake() {
        let (_n, target, init) = net_pair(DeliveryOrder::InOrder);
        let win = target
            .init_window(VirtAddr::new(7), Threshold::bytes(10))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 10]).unwrap();
        let r = init
            .put(
                NodeAddr::node(1),
                VirtAddr::new(7),
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            )
            .unwrap();
        assert_eq!(r.fragments, 3); // 4+4+2 bytes
        assert!(r.completed_epoch);
        assert_eq!(
            note.poll().unwrap().data(),
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        );
    }

    #[test]
    fn out_of_order_delivery_matches_in_order_result() {
        let payload: Vec<u8> = (0..64).collect();
        let run = |order| {
            let (_n, target, init) = net_pair(order);
            let win = target
                .init_window(VirtAddr::new(7), Threshold::bytes(64))
                .unwrap();
            let mut note = win.post_buffer(vec![0; 64]).unwrap();
            init.put(NodeAddr::node(1), VirtAddr::new(7), &payload)
                .unwrap();
            note.poll().unwrap().data().to_vec()
        };
        assert_eq!(run(DeliveryOrder::InOrder), payload);
        assert_eq!(run(DeliveryOrder::OutOfOrder { seed: 99 }), payload);
    }

    #[test]
    fn ooo_is_reproducible_per_seed() {
        // Same seed must produce the same fragment permutation (verified
        // indirectly: deliver onto an ops-counted window and compare the
        // bytes-in-progress trace via stats).
        let trace = |seed| {
            let (_n, target, init) = net_pair(DeliveryOrder::OutOfOrder { seed });
            let win = target
                .init_window(VirtAddr::new(7), Threshold::bytes(16))
                .unwrap();
            let _note = win.post_buffer(vec![0; 16]).unwrap();
            init.put(
                NodeAddr::node(1),
                VirtAddr::new(7),
                &(0..16).collect::<Vec<u8>>(),
            )
            .unwrap();
            target.stats()
        };
        assert_eq!(trace(5), trace(5));
    }

    #[test]
    fn unknown_destination_errors() {
        let (net, _t, _i) = net_pair(DeliveryOrder::InOrder);
        let init = net.initiator(NodeAddr::node(3));
        assert_eq!(
            init.put(NodeAddr::node(42), VirtAddr::new(1), &[0]),
            Err(RvmaError::UnknownDestination)
        );
    }

    #[test]
    fn nack_propagates_to_initiator() {
        let (_n, _target, init) = net_pair(DeliveryOrder::InOrder);
        let err = init
            .put(NodeAddr::node(1), VirtAddr::new(123), &[0; 4])
            .unwrap_err();
        assert_eq!(err, RvmaError::Nacked(NackReason::NoSuchMailbox));
    }

    #[test]
    fn zero_byte_put_counts_one_op() {
        let (_n, target, init) = net_pair(DeliveryOrder::InOrder);
        let win = target
            .init_window(VirtAddr::new(7), Threshold::ops(1))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 4]).unwrap();
        let r = init.put(NodeAddr::node(1), VirtAddr::new(7), &[]).unwrap();
        assert_eq!(r.fragments, 1);
        assert!(r.completed_epoch);
        assert_eq!(note.poll().unwrap().len(), 0);
    }

    #[test]
    fn offsets_assemble_contiguous_payload() {
        // Paper Sec. III-B: a contiguous 64-byte message = two 32-byte puts
        // to the SAME mailbox with offsets 0 and 32.
        let (_n, target, init) = net_pair(DeliveryOrder::InOrder);
        let win = target
            .init_window(VirtAddr::new(0x11FF0011), Threshold::bytes(64))
            .unwrap();
        let mut note = win.post_buffer(vec![0; 64]).unwrap();
        init.put_at(NodeAddr::node(1), VirtAddr::new(0x11FF0011), 0, &[0xAA; 32])
            .unwrap();
        init.put_at(
            NodeAddr::node(1),
            VirtAddr::new(0x11FF0011),
            32,
            &[0xBB; 32],
        )
        .unwrap();
        let buf = note.poll().unwrap();
        assert_eq!(&buf.data()[..32], &[0xAA; 32]);
        assert_eq!(&buf.data()[32..], &[0xBB; 32]);
    }

    #[test]
    fn distinct_mailboxes_separate_messages() {
        // Paper Sec. III-B: puts to different mailbox addresses land in
        // different buckets, never assembling into one buffer.
        let (_n, target, init) = net_pair(DeliveryOrder::InOrder);
        let w1 = target
            .init_window(VirtAddr::new(0x11FF0011), Threshold::bytes(32))
            .unwrap();
        let w2 = target
            .init_window(VirtAddr::new(0x11FF0031), Threshold::bytes(32))
            .unwrap();
        let mut n1 = w1.post_buffer(vec![0; 32]).unwrap();
        let mut n2 = w2.post_buffer(vec![0; 32]).unwrap();
        init.put(NodeAddr::node(1), VirtAddr::new(0x11FF0011), &[1; 32])
            .unwrap();
        init.put(NodeAddr::node(1), VirtAddr::new(0x11FF0031), &[2; 32])
            .unwrap();
        assert_eq!(n1.poll().unwrap().data(), &[1; 32]);
        assert_eq!(n2.poll().unwrap().data(), &[2; 32]);
    }

    #[test]
    fn get_retired_reads_completed_epochs() {
        let (_n, target, init) = net_pair(DeliveryOrder::InOrder);
        let win = target
            .init_window(VirtAddr::new(7), Threshold::bytes(4))
            .unwrap();
        let _ns = win.post_buffers(vec![vec![0; 4], vec![0; 4]]).unwrap();
        init.put(NodeAddr::node(1), VirtAddr::new(7), &[1; 4])
            .unwrap();
        init.put(NodeAddr::node(1), VirtAddr::new(7), &[2; 4])
            .unwrap();
        let got = init
            .get_retired(NodeAddr::node(1), VirtAddr::new(7), 2)
            .unwrap();
        assert_eq!(got.data(), &[1; 4]);
    }

    #[test]
    fn many_to_one_concurrent_senders() {
        // The paper's many-to-one motivation: N initiators target one
        // mailbox; receiver needs no per-client resources.
        let net = LoopbackNetwork::with_options(64, DeliveryOrder::InOrder);
        let target = net.add_endpoint(NodeAddr::node(0));
        let win = target
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
