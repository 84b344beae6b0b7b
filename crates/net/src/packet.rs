//! Packets and the fabric event type.
//!
//! The fabric moves [`Packet`]s between terminals (NICs). A packet carries a
//! flat, hardware-like header ([`PacketHeader`]) whose fields the NIC
//! protocol layer interprets — the fabric itself only reads `dst` and the
//! routing scratch state. Payload bytes are not materialized; only sizes
//! travel through the simulator (timing is what we measure).

use rvma_sim::SimTime;

/// Per-packet wire header overhead, bytes. Covers PHY/LLR/route headers of a
/// typical HPC fabric.
pub const HEADER_BYTES: u32 = 40;

/// Protocol-level packet kinds, interpreted by the NIC layer. The fabric
/// treats them opaquely, except that `kind` participates in nothing —
/// routing uses only `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// RDMA buffer-registration request (handshake step 1).
    RdmaSetupReq,
    /// RDMA buffer-registration response carrying the remote address
    /// (handshake step 2).
    RdmaSetupResp,
    /// Receiver-side "ready to receive" notification (per-message buffer
    /// coordination an RDMA sender must await before writing).
    RdmaRtr,
    /// RDMA put payload fragment.
    RdmaData,
    /// The trailing send/recv completion fence RDMA needs on
    /// adaptively-routed networks.
    RdmaFence,
    /// RVMA put payload fragment (carries vaddr + offset; no handshake).
    RvmaData,
    /// One-sided read request (RVMA get needs no handshake; RDMA read
    /// needs the registered channel's rkey).
    GetReq,
    /// Read-response payload fragment, counted at the *initiator*.
    GetResp,
    /// Generic small control message used by application logic.
    Ctrl,
}

/// The protocol header the NIC layer stamps on each packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Protocol discriminant.
    pub kind: PacketKind,
    /// Message id, unique per (initiator, message).
    pub msg_id: u64,
    /// Total payload bytes of the message this packet belongs to.
    pub msg_bytes: u64,
    /// Byte offset of this fragment within the message/buffer.
    pub offset: u64,
    /// RVMA virtual mailbox address, or RDMA rkey/buffer tag.
    pub vaddr: u64,
    /// Extra protocol field (e.g. epoch, app tag).
    pub tag: u64,
}

/// Scratch state the routing algorithm carries across hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteState {
    /// Hops taken so far.
    pub hops: u8,
    /// Valiant intermediate destination (dragonfly: group id), chosen once
    /// at the source switch.
    pub via: Option<u32>,
    /// True once the packet has reached its Valiant intermediate (or chose
    /// the minimal path outright).
    pub via_reached: bool,
}

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Fabric-unique packet id (for tracing).
    pub id: u64,
    /// Source terminal index.
    pub src: u32,
    /// Destination terminal index.
    pub dst: u32,
    /// Payload bytes carried by this packet (excluding header).
    pub payload_bytes: u32,
    /// Protocol header.
    pub header: PacketHeader,
    /// Routing scratch state.
    pub route: RouteState,
    /// Injection timestamp (set by the sending terminal).
    pub injected_at: SimTime,
}

impl Packet {
    /// Total bytes this packet occupies on a wire.
    pub fn wire_bytes(&self) -> u32 {
        self.payload_bytes + HEADER_BYTES
    }
}

/// The engine event type for the fabric and everything above it.
#[derive(Debug)]
pub enum NetEvent {
    /// A packet arrives at a component (switch or terminal).
    Packet(Packet),
    /// A component-local event (host commands, NIC pipeline timers): a
    /// token naming the pending event in a slab the scheduling component
    /// owns. Only that component interprets it.
    Local(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(payload: u32) -> Packet {
        Packet {
            id: 1,
            src: 0,
            dst: 1,
            payload_bytes: payload,
            header: PacketHeader {
                kind: PacketKind::RvmaData,
                msg_id: 0,
                msg_bytes: payload as u64,
                offset: 0,
                vaddr: 0,
                tag: 0,
            },
            route: RouteState::default(),
            injected_at: SimTime::ZERO,
        }
    }

    #[test]
    fn wire_bytes_includes_header() {
        assert_eq!(pkt(2048).wire_bytes(), 2048 + HEADER_BYTES);
        assert_eq!(pkt(0).wire_bytes(), HEADER_BYTES);
    }

    #[test]
    fn debug_formatting() {
        assert!(format!("{:?}", NetEvent::Local(1)).contains("Local"));
        assert!(format!("{:?}", NetEvent::Packet(pkt(10))).contains("Packet"));
    }
}
