//! The transport contract every in-process backend shares.
//!
//! [`Transport`] is the initiator-side surface of the three backends: the
//! inline [`LossyNetwork`](crate::transport_lossy::LossyNetwork) (through
//! its [`InlineChannel`](crate::transport_lossy::InlineChannel)), the
//! threaded [`AsyncNetwork`](crate::transport_threaded::AsyncNetwork) and
//! the cross-process shm pair. [`PutResult`] is what the inline raw
//! initiator reports per put, and [`DeliveryOrder`] is the threaded
//! network's routing emulation.

use crate::addr::{NodeAddr, VirtAddr};
use crate::error::{NackReason, Result};
use bytes::Bytes;

/// Default MTU: 2 KiB payload per fragment, a typical HPC-network packet
/// payload size.
pub const DEFAULT_MTU: usize = 2048;

/// Fragment delivery order policy of an
/// [`AsyncNetwork`](crate::transport_threaded::AsyncNetwork) — the routing
/// emulation. Threshold completion yields identical buffers under either.
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

/// Summary the inline raw initiator
/// ([`LossyInitiator`](crate::transport_lossy::LossyInitiator)) returns once
/// a put's fragments have all been transmitted.
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
    /// [`TransportFailed`](crate::error::RvmaError::TransportFailed) — the
    /// threaded one once its `AsyncNetwork` has been dropped, the shm one
    /// once the server has stopped, or dies before acking the marker — the
    /// same error a put into the closed link gets.
    /// ([`UnknownDestination`](crate::error::RvmaError::UnknownDestination)
    /// stays for a destination absent from the fabric.) The inline backend
    /// keeps its network alive through the channel itself, has no peer to
    /// lose, and always returns `Ok`.
    fn flush(&self) -> Result<()>;

    /// Drain the asynchronously collected NACKs observed so far.
    fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)>;
}
