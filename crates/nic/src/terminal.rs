//! The simulated NIC + host terminal.
//!
//! One [`Terminal`] per node. It owns the node's uplink to its switch, the
//! host↔NIC bus (PCIe) timing, the protocol state machines, and the host
//! application logic. The two protocols differ exactly where the paper says
//! they do:
//!
//! **RDMA send path** (per channel = `(peer, tag)`):
//! 1. First use: registration handshake — `SetupReq` → receiver host pins
//!    and registers a buffer (`reg_latency`) → `SetupResp` carrying the
//!    remote address and the initial RTR credit(s).
//! 2. Every message consumes an RTR credit (the receiver's single
//!    pre-negotiated buffer must be free); with no credit the send queues.
//! 3. Data packets; on *unordered* (adaptively-routed) networks a trailing
//!    send/recv **fence** packet follows, per the InfiniBand specification.
//! 4. Receive completion: ordered networks poll the last byte (data DMA
//!    visibility only); unordered networks complete at
//!    `max(all data, fence)` + CQ write.
//! 5. After the host consumes a message it re-posts the buffer, returning
//!    an RTR credit to the sender.
//!
//! **RVMA send path**: packetize and go. The receiver counts bytes against
//! the message total (the threshold known a priori), completing in any
//! arrival order; the completion-pointer write rides the host bus with the
//! final data DMA. No handshake, no credits, no fence.

use crate::config::{NicConfig, Protocol};
use crate::host::{HostCmd, HostLogic, RecvInfo, TermApi};
use rvma_net::link::LinkParams;
use rvma_net::packet::{NetEvent, Packet, PacketHeader, PacketKind, RouteState};
use rvma_sim::{Component, ComponentId, Ctx, FastMap, SimTime, Slab};
use std::collections::VecDeque;

/// A message the host asked the NIC to send.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutMsg {
    pub dst: u32,
    pub tag: u64,
    pub bytes: u64,
    pub msg_id: u64,
}

/// Terminal-local events (scheduled by the terminal to itself). A pending
/// one waits in the terminal's slab; the engine carries only its token
/// ([`NetEvent::Local`]).
#[derive(Debug)]
pub(crate) enum NicLocal {
    /// Kick the host logic's `on_start`.
    Start,
    /// A host send command arrived at the NIC (crossed the host bus).
    NicSend(OutMsg),
    /// A host compute block finished.
    ComputeDone { tag: u64 },
    /// A receive completion became visible to the host.
    HostRecv(RecvInfo),
    /// A send-side completion became visible to the host.
    HostSendComplete { msg_id: u64 },
    /// The host finished registering a buffer for a setup request; the NIC
    /// should now emit the SetupResp.
    EmitSetupResp { dst: u32, tag: u64 },
    /// The host re-posted a consumed RDMA buffer; emit the RTR credit.
    EmitRtr { dst: u32, tag: u64 },
    /// A host get command arrived at the NIC.
    NicGet(OutMsg),
    /// The target NIC finished the local DMA read for a GetReq; stream the
    /// response data back to the requester.
    EmitGetResp {
        dst: u32,
        tag: u64,
        msg_id: u64,
        bytes: u64,
    },
    /// A get's response data fully arrived; notify the host.
    HostGetComplete { msg_id: u64 },
}

/// RDMA sender-side channel state.
#[derive(Debug)]
enum ChanState {
    /// SetupReq sent; messages queue here until the SetupResp.
    HandshakePending { queued: VecDeque<OutMsg> },
    /// Registered; `credits` RTRs available.
    Ready {
        credits: u32,
        queued: VecDeque<OutMsg>,
    },
}

/// Receive-side progress of one in-flight message.
#[derive(Debug)]
struct RecvProgress {
    expected: u64,
    got: u64,
    tag: u64,
    data_done: bool,
    fence_seen: bool,
    /// RVMA counter spilled to host memory (capacity exceeded at creation).
    spilled: bool,
    /// True for get-response tracking (completion goes to `on_get_complete`).
    is_get: bool,
}

/// A simulated node: NIC + host.
pub struct Terminal {
    id: u32,
    cfg: NicConfig,
    proto: Protocol,
    /// Does the network deliver per-flow in order? (From the router.)
    ordered: bool,
    switch: ComponentId,
    uplink: LinkParams,
    uplink_free: SimTime,
    next_msg_id: u64,
    next_pkt_id: u64,
    channels: FastMap<(u32, u64), ChanState>,
    recvs: FastMap<(u32, u64), RecvProgress>,
    /// RDMA gets waiting for their channel's registration handshake.
    pending_gets: FastMap<(u32, u64), Vec<OutMsg>>,
    /// Pending self-scheduled events, by the token their `NetEvent::Local`
    /// carries. Slot 0 holds `Start` from construction on.
    locals: Slab<NicLocal>,
    logic: Option<Box<dyn HostLogic>>,
}

impl Terminal {
    /// The event that kicks a terminal's host logic off (`on_start`): the
    /// token of the `Start` every terminal is built holding.
    pub const START: NetEvent = NetEvent::Local(0);

    /// Build a terminal. `ordered` must reflect the fabric router's
    /// delivery-order guarantee.
    pub fn new(
        id: u32,
        cfg: NicConfig,
        proto: Protocol,
        ordered: bool,
        switch: ComponentId,
        uplink: LinkParams,
        logic: Box<dyn HostLogic>,
    ) -> Self {
        let mut locals = Slab::new();
        let start = locals.insert(NicLocal::Start);
        debug_assert!(matches!(Self::START, NetEvent::Local(t) if t == start));
        Terminal {
            id,
            cfg,
            proto,
            ordered,
            switch,
            uplink,
            uplink_free: SimTime::ZERO,
            next_msg_id: 1,
            next_pkt_id: 1,
            channels: FastMap::default(),
            recvs: FastMap::default(),
            pending_gets: FastMap::default(),
            locals,
            logic: Some(logic),
        }
    }

    /// Terminal id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Park `ev` until it fires; the returned event carries its token.
    fn local(&mut self, ev: NicLocal) -> NetEvent {
        NetEvent::Local(self.locals.insert(ev))
    }

    /// True when RDMA may skip the completion fence: the spec-violating
    /// last-byte-poll optimization is enabled *and* the network delivers
    /// in order.
    fn last_byte_poll_active(&self) -> bool {
        self.cfg.rdma_last_byte_poll && self.ordered
    }

    /// Inject one packet onto the uplink; returns the serialization-finish
    /// instant (when the last bit leaves the NIC).
    #[allow(clippy::too_many_arguments)] // mirrors the wire-header fields
    fn inject(
        &mut self,
        ctx: &mut Ctx<'_, NetEvent>,
        kind: PacketKind,
        dst: u32,
        payload: u32,
        msg_id: u64,
        msg_bytes: u64,
        offset: u64,
        tag: u64,
    ) -> SimTime {
        let pkt = Packet {
            id: self.next_pkt_id,
            src: self.id,
            dst,
            payload_bytes: payload,
            header: PacketHeader {
                kind,
                msg_id,
                msg_bytes,
                offset,
                vaddr: tag,
                tag,
            },
            route: RouteState::default(),
            injected_at: ctx.now(),
        };
        self.next_pkt_id += 1;
        let start = ctx.now().max(self.uplink_free);
        let finish = start + self.uplink.serialize(pkt.wire_bytes());
        self.uplink_free = finish;
        ctx.schedule_at(
            finish + self.uplink.latency,
            self.switch,
            NetEvent::Packet(pkt),
        );
        ctx.stats().counter("nic.packets_injected").inc();
        finish
    }

    /// Emit a message's data packets (plus the RDMA fence on unordered
    /// networks) and schedule the sender-side completion.
    fn send_data(&mut self, ctx: &mut Ctx<'_, NetEvent>, m: OutMsg) {
        let kind = match self.proto {
            Protocol::Rdma => PacketKind::RdmaData,
            Protocol::Rvma => PacketKind::RvmaData,
        };
        let mtu = self.cfg.mtu as u64;
        let mut finish = SimTime::ZERO;
        if m.bytes == 0 {
            finish = self.inject(ctx, kind, m.dst, 0, m.msg_id, 0, 0, m.tag);
        } else {
            let mut off = 0u64;
            while off < m.bytes {
                let chunk = mtu.min(m.bytes - off) as u32;
                finish = self.inject(ctx, kind, m.dst, chunk, m.msg_id, m.bytes, off, m.tag);
                off += chunk as u64;
            }
        }
        if self.proto == Protocol::Rdma && !self.last_byte_poll_active() {
            // Spec-compliant RDMA completion: trailing send/recv fence per
            // put. (On ordered networks the spec-violating last-byte-poll
            // optimization may skip it — see `NicConfig::rdma_last_byte_poll`.)
            finish = self.inject(
                ctx,
                PacketKind::RdmaFence,
                m.dst,
                self.cfg.ctrl_bytes,
                m.msg_id,
                m.bytes,
                0,
                m.tag,
            );
            ctx.stats().counter("nic.fences_sent").inc();
        }
        ctx.stats().counter("nic.msgs_sent").inc();
        let me = ctx.self_id();
        ctx.schedule_at(
            finish + self.cfg.pcie_latency,
            me,
            self.local(NicLocal::HostSendComplete { msg_id: m.msg_id }),
        );
    }

    /// RDMA: drain a channel's queue while credits remain.
    fn flush_channel(&mut self, ctx: &mut Ctx<'_, NetEvent>, key: (u32, u64)) {
        loop {
            let Some(ChanState::Ready { credits, queued }) = self.channels.get_mut(&key) else {
                return;
            };
            if *credits == 0 || queued.is_empty() {
                return;
            }
            *credits -= 1;
            let m = queued.pop_front().expect("checked non-empty");
            self.send_data(ctx, m);
        }
    }

    /// Run a host-logic callback and execute the commands it issued.
    fn with_logic(
        &mut self,
        ctx: &mut Ctx<'_, NetEvent>,
        f: impl FnOnce(&mut dyn HostLogic, &mut TermApi<'_, '_>),
    ) {
        let mut logic = self.logic.take().expect("logic re-entered");
        let mut api = TermApi {
            node: self.id,
            cmds: Vec::new(),
            next_msg_id: &mut self.next_msg_id,
            ctx,
        };
        f(logic.as_mut(), &mut api);
        let cmds = api.cmds;
        self.logic = Some(logic);
        let me = ctx.self_id();
        for cmd in cmds {
            match cmd {
                HostCmd::Send {
                    dst,
                    tag,
                    bytes,
                    msg_id,
                } => {
                    // Host command crosses the host bus to the NIC.
                    ctx.schedule_in(
                        self.cfg.pcie_latency,
                        me,
                        self.local(NicLocal::NicSend(OutMsg {
                            dst,
                            tag,
                            bytes,
                            msg_id,
                        })),
                    );
                }
                HostCmd::Get {
                    dst,
                    tag,
                    bytes,
                    msg_id,
                } => {
                    ctx.schedule_in(
                        self.cfg.pcie_latency,
                        me,
                        self.local(NicLocal::NicGet(OutMsg {
                            dst,
                            tag,
                            bytes,
                            msg_id,
                        })),
                    );
                }
                HostCmd::Compute { dur, tag } => {
                    ctx.schedule_in(dur, me, self.local(NicLocal::ComputeDone { tag }));
                }
            }
        }
    }

    fn on_nic_send(&mut self, ctx: &mut Ctx<'_, NetEvent>, m: OutMsg) {
        match self.proto {
            Protocol::Rvma => self.send_data(ctx, m),
            Protocol::Rdma => {
                let key = (m.dst, m.tag);
                match self.channels.get_mut(&key) {
                    None => {
                        // First touch: start the registration handshake.
                        self.channels.insert(
                            key,
                            ChanState::HandshakePending {
                                queued: VecDeque::from([m]),
                            },
                        );
                        self.inject(
                            ctx,
                            PacketKind::RdmaSetupReq,
                            m.dst,
                            self.cfg.ctrl_bytes,
                            0,
                            0,
                            0,
                            m.tag,
                        );
                        ctx.stats().counter("nic.handshakes").inc();
                    }
                    Some(ChanState::HandshakePending { queued })
                    | Some(ChanState::Ready { queued, .. }) => {
                        queued.push_back(m);
                        self.flush_channel(ctx, key);
                    }
                }
            }
        }
    }

    fn emit_get_req(&mut self, ctx: &mut Ctx<'_, NetEvent>, m: OutMsg) {
        self.inject(
            ctx,
            PacketKind::GetReq,
            m.dst,
            self.cfg.ctrl_bytes,
            m.msg_id,
            m.bytes,
            0,
            m.tag,
        );
        ctx.stats().counter("nic.gets_sent").inc();
    }

    fn on_nic_get(&mut self, ctx: &mut Ctx<'_, NetEvent>, m: OutMsg) {
        match self.proto {
            // RVMA: the mailbox address is all a read needs.
            Protocol::Rvma => self.emit_get_req(ctx, m),
            // RDMA: a read needs the channel's rkey — registered state.
            Protocol::Rdma => {
                let key = (m.dst, m.tag);
                match self.channels.get_mut(&key) {
                    Some(ChanState::Ready { .. }) => self.emit_get_req(ctx, m),
                    Some(ChanState::HandshakePending { .. }) => {
                        self.pending_gets.entry(key).or_default().push(m);
                    }
                    None => {
                        self.channels.insert(
                            key,
                            ChanState::HandshakePending {
                                queued: VecDeque::new(),
                            },
                        );
                        self.pending_gets.entry(key).or_default().push(m);
                        self.inject(
                            ctx,
                            PacketKind::RdmaSetupReq,
                            m.dst,
                            self.cfg.ctrl_bytes,
                            0,
                            0,
                            0,
                            m.tag,
                        );
                        ctx.stats().counter("nic.handshakes").inc();
                    }
                }
            }
        }
    }

    fn flush_pending_gets(&mut self, ctx: &mut Ctx<'_, NetEvent>, key: (u32, u64)) {
        if let Some(gets) = self.pending_gets.remove(&key) {
            for g in gets {
                self.emit_get_req(ctx, g);
            }
        }
    }

    /// Handle an arriving data or fence packet; fire the completion when
    /// the protocol's condition is met.
    fn on_wire_recv(&mut self, ctx: &mut Ctx<'_, NetEvent>, pkt: &Packet) {
        let key = (pkt.src, pkt.header.msg_id);
        let spill_cap = self.cfg.rvma_counter_capacity;
        let active = self.recvs.len();
        let is_get = pkt.header.kind == PacketKind::GetResp;
        let fenced = self.proto == Protocol::Rdma && !self.last_byte_poll_active() && !is_get;
        let entry = self.recvs.entry(key).or_insert_with(|| RecvProgress {
            expected: pkt.header.msg_bytes,
            got: 0,
            tag: pkt.header.tag,
            data_done: false,
            fence_seen: false,
            spilled: spill_cap.is_some_and(|cap| active >= cap),
            is_get,
        });
        match pkt.header.kind {
            PacketKind::RdmaData | PacketKind::RvmaData | PacketKind::GetResp => {
                entry.got += pkt.payload_bytes as u64;
                if entry.got >= entry.expected {
                    entry.data_done = true;
                }
            }
            PacketKind::RdmaFence => {
                entry.fence_seen = true;
                ctx.stats().counter("nic.fences_recv").inc();
            }
            _ => unreachable!("on_wire_recv only handles data/fence"),
        }

        // RVMA: threshold reached, any order. RDMA with last-byte polling:
        // data visibility. Spec-compliant RDMA: data AND fence.
        let complete = entry.data_done && (!fenced || entry.fence_seen);
        if !complete {
            return;
        }
        let spilled = entry.spilled;
        let completed_get = entry.is_get;
        let info = RecvInfo {
            src: pkt.src,
            tag: entry.tag,
            bytes: entry.expected,
            msg_id: pkt.header.msg_id,
        };
        self.recvs.remove(&key);
        if spilled {
            ctx.stats().counter("nic.counter_spills").inc();
        }
        // Data DMA visibility (+ host-memory counter round trip if spilled;
        // + recv/CQE host processing for fenced completions).
        let mut delay = self.cfg.pcie_latency;
        if spilled {
            delay += self.cfg.spill_penalty();
        }
        if fenced {
            delay += self.cfg.fence_cq_overhead;
        }
        let me = ctx.self_id();
        if completed_get {
            ctx.schedule_in(
                delay,
                me,
                self.local(NicLocal::HostGetComplete {
                    msg_id: info.msg_id,
                }),
            );
        } else {
            ctx.schedule_in(delay, me, self.local(NicLocal::HostRecv(info)));
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, NetEvent>, pkt: Packet) {
        debug_assert_eq!(pkt.dst, self.id, "packet delivered to wrong terminal");
        match pkt.header.kind {
            PacketKind::RvmaData
            | PacketKind::RdmaData
            | PacketKind::RdmaFence
            | PacketKind::GetResp => {
                self.on_wire_recv(ctx, &pkt);
            }
            PacketKind::GetReq => {
                // One-sided read service, entirely on the NIC: local DMA
                // read (one bus crossing), then stream the response.
                let me = ctx.self_id();
                ctx.schedule_in(
                    self.cfg.pcie_latency,
                    me,
                    self.local(NicLocal::EmitGetResp {
                        dst: pkt.src,
                        tag: pkt.header.tag,
                        msg_id: pkt.header.msg_id,
                        bytes: pkt.header.msg_bytes,
                    }),
                );
            }
            PacketKind::RdmaSetupReq => {
                // Cross to the host, register (pin) the buffer, respond.
                let me = ctx.self_id();
                ctx.schedule_in(
                    self.cfg.pcie_latency + self.cfg.reg_latency,
                    me,
                    self.local(NicLocal::EmitSetupResp {
                        dst: pkt.src,
                        tag: pkt.header.tag,
                    }),
                );
            }
            PacketKind::RdmaSetupResp => {
                let key = (pkt.src, pkt.header.tag);
                let prev = self.channels.insert(
                    key,
                    ChanState::Ready {
                        credits: self.cfg.rdma_credits,
                        queued: VecDeque::new(),
                    },
                );
                if let Some(ChanState::HandshakePending { queued }) = prev {
                    if let Some(ChanState::Ready { queued: q, .. }) = self.channels.get_mut(&key) {
                        *q = queued;
                    }
                }
                self.flush_channel(ctx, key);
                self.flush_pending_gets(ctx, key);
            }
            PacketKind::RdmaRtr => {
                let key = (pkt.src, pkt.header.tag);
                if let Some(ChanState::Ready { credits, .. }) = self.channels.get_mut(&key) {
                    *credits += 1;
                }
                self.flush_channel(ctx, key);
            }
            PacketKind::Ctrl => {
                // Small app-level message: deliver directly.
                let info = RecvInfo {
                    src: pkt.src,
                    tag: pkt.header.tag,
                    bytes: pkt.payload_bytes as u64,
                    msg_id: pkt.header.msg_id,
                };
                let me = ctx.self_id();
                ctx.schedule_in(
                    self.cfg.pcie_latency,
                    me,
                    self.local(NicLocal::HostRecv(info)),
                );
            }
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_, NetEvent>, ev: NicLocal) {
        match ev {
            NicLocal::Start => self.with_logic(ctx, |l, api| l.on_start(api)),
            NicLocal::NicSend(m) => self.on_nic_send(ctx, m),
            NicLocal::ComputeDone { tag } => {
                self.with_logic(ctx, |l, api| l.on_compute_done(tag, api))
            }
            NicLocal::HostRecv(info) => {
                self.with_logic(ctx, |l, api| l.on_recv(info, api));
                if self.proto == Protocol::Rdma {
                    // The host re-posts the consumed buffer; the RTR credit
                    // crosses the host bus and then the wire.
                    let me = ctx.self_id();
                    ctx.schedule_in(
                        self.cfg.pcie_latency,
                        me,
                        self.local(NicLocal::EmitRtr {
                            dst: info.src,
                            tag: info.tag,
                        }),
                    );
                }
            }
            NicLocal::HostSendComplete { msg_id } => {
                self.with_logic(ctx, |l, api| l.on_send_complete(msg_id, api))
            }
            NicLocal::EmitSetupResp { dst, tag } => {
                self.inject(
                    ctx,
                    PacketKind::RdmaSetupResp,
                    dst,
                    self.cfg.ctrl_bytes,
                    0,
                    0,
                    0,
                    tag,
                );
            }
            NicLocal::EmitRtr { dst, tag } => {
                self.inject(
                    ctx,
                    PacketKind::RdmaRtr,
                    dst,
                    self.cfg.ctrl_bytes,
                    0,
                    0,
                    0,
                    tag,
                );
                ctx.stats().counter("nic.rtrs_sent").inc();
            }
            NicLocal::NicGet(m) => self.on_nic_get(ctx, m),
            NicLocal::EmitGetResp {
                dst,
                tag,
                msg_id,
                bytes,
            } => {
                // Stream the read data back, fragmented at the MTU.
                let mtu = self.cfg.mtu as u64;
                if bytes == 0 {
                    self.inject(ctx, PacketKind::GetResp, dst, 0, msg_id, 0, 0, tag);
                } else {
                    let mut off = 0u64;
                    while off < bytes {
                        let chunk = mtu.min(bytes - off) as u32;
                        self.inject(
                            ctx,
                            PacketKind::GetResp,
                            dst,
                            chunk,
                            msg_id,
                            bytes,
                            off,
                            tag,
                        );
                        off += chunk as u64;
                    }
                }
                ctx.stats().counter("nic.get_resps_served").inc();
            }
            NicLocal::HostGetComplete { msg_id } => {
                self.with_logic(ctx, |l, api| l.on_get_complete(msg_id, api));
            }
        }
    }
}

impl Component<NetEvent> for Terminal {
    fn handle(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        match ev {
            NetEvent::Packet(pkt) => self.on_packet(ctx, pkt),
            NetEvent::Local(token) => {
                let local = self.locals.take(token);
                self.on_local(ctx, local);
            }
        }
    }
}
