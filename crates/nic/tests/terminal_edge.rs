//! Terminal edge cases, driven by hand-crafted packet sequences scheduled
//! straight into a terminal component — conditions a fabric only produces
//! under rare interleavings.

use rvma_net::link::LinkParams;
use rvma_net::packet::{NetEvent, Packet, PacketHeader, PacketKind, RouteState};
use rvma_nic::{HostLogic, NicConfig, Protocol, RecvInfo, TermApi, Terminal};
use rvma_sim::{Component, ComponentId, Ctx, ParEngine, SimConfig, SimTime};

/// Absorbs anything the terminal transmits (it believes this is its switch).
struct Blackhole;
impl Component<NetEvent> for Blackhole {
    fn handle(&mut self, _ev: NetEvent, _ctx: &mut Ctx<'_, NetEvent>) {}
}

struct Recorder;
impl HostLogic for Recorder {
    fn on_start(&mut self, _api: &mut TermApi<'_, '_>) {}
    fn on_recv(&mut self, m: RecvInfo, api: &mut TermApi<'_, '_>) {
        let now = api.now();
        api.record_time("edge.recv_ns", now);
        api.record("edge.recv_bytes", m.bytes as f64);
        api.count("edge.recvs");
    }
}

fn pkt(
    kind: PacketKind,
    dst: u32,
    msg_id: u64,
    msg_bytes: u64,
    offset: u64,
    payload: u32,
) -> Packet {
    Packet {
        id: 1,
        src: 7,
        dst,
        payload_bytes: payload,
        header: PacketHeader {
            kind,
            msg_id,
            msg_bytes,
            offset,
            vaddr: 3,
            tag: 3,
        },
        route: RouteState::default(),
        injected_at: SimTime::ZERO,
    }
}

/// An engine with a blackhole switch (component 0) and one terminal
/// (component 1).
fn receiver(proto: Protocol, ordered: bool) -> (ParEngine<NetEvent>, ComponentId) {
    let mut engine: ParEngine<NetEvent> = ParEngine::new(1, SimConfig::default());
    let bh = engine.add_component(Blackhole);
    let term = engine.add_component(Terminal::new(
        1,
        NicConfig::default(),
        proto,
        ordered,
        bh,
        LinkParams::gbps_ns(100, 100),
        Box::new(Recorder),
    ));
    (engine, term)
}

#[test]
fn fence_overtaking_data_does_not_complete_early() {
    // Adaptive routing can deliver the fence before the data it fences.
    // The spec-compliant completion must wait for BOTH.
    let (mut engine, term) = receiver(Protocol::Rdma, false);
    engine.schedule(
        SimTime::from_ns(10),
        term,
        NetEvent::Packet(pkt(PacketKind::RdmaFence, 1, 5, 4096, 0, 16)),
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 0);

    engine.schedule(
        SimTime::from_us(1),
        term,
        NetEvent::Packet(pkt(PacketKind::RdmaData, 1, 5, 4096, 0, 4096)),
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 1);
    // Completion timestamp is after the (late) data arrival, not the fence.
    let t = engine
        .stats()
        .get_histogram("edge.recv_ns")
        .unwrap()
        .min()
        .unwrap();
    assert!(t >= 1000.0, "completed at {t} ns, before the data arrived");
}

#[test]
fn stray_rtr_for_unknown_channel_is_ignored() {
    let (mut engine, term) = receiver(Protocol::Rdma, true);
    engine.schedule(
        SimTime::ZERO,
        term,
        NetEvent::Packet(pkt(PacketKind::RdmaRtr, 1, 0, 0, 0, 16)),
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 0);
}

#[test]
fn duplicate_setup_resp_is_tolerated() {
    let (mut engine, term) = receiver(Protocol::Rdma, true);
    for t in [0u64, 100] {
        engine.schedule(
            SimTime::from_ns(t),
            term,
            NetEvent::Packet(pkt(PacketKind::RdmaSetupResp, 1, 0, 0, 0, 16)),
        );
    }
    engine.run_to_completion(); // must not panic or livelock
}

#[test]
fn interleaved_messages_from_one_source_complete_independently() {
    // Fragments of two messages interleave; each completes on its own
    // byte count.
    let (mut engine, term) = receiver(Protocol::Rvma, false);
    let frags = [
        (1u64, 0u64, 2048u32),
        (2, 0, 2048),
        (1, 2048, 2048),
        (2, 2048, 2048),
    ];
    for (i, (msg, off, len)) in frags.iter().enumerate() {
        engine.schedule(
            SimTime::from_ns(i as u64 * 50),
            term,
            NetEvent::Packet(pkt(PacketKind::RvmaData, 1, *msg, 4096, *off, *len)),
        );
    }
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 2);
}

#[test]
fn rvma_ignores_fence_requirement_entirely() {
    // An RVMA receiver on an unordered network completes on data alone.
    let (mut engine, term) = receiver(Protocol::Rvma, false);
    engine.schedule(
        SimTime::ZERO,
        term,
        NetEvent::Packet(pkt(PacketKind::RvmaData, 1, 9, 1024, 0, 1024)),
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 1);
    // Completion = arrival + pcie only (150 ns), no fence_cq.
    let t = engine
        .stats()
        .get_histogram("edge.recv_ns")
        .unwrap()
        .min()
        .unwrap();
    assert!((t - 150.0).abs() < 1.0, "RVMA completion at {t} ns");
}

#[test]
fn get_req_is_served_without_host_logic_involvement() {
    // A GetReq arriving at a terminal is answered purely by the NIC; the
    // host logic sees nothing.
    let (mut engine, term) = receiver(Protocol::Rvma, false);
    engine.schedule(
        SimTime::ZERO,
        term,
        NetEvent::Packet(pkt(PacketKind::GetReq, 1, 11, 10_000, 0, 16)),
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("edge.recvs"), 0);
    assert_eq!(engine.stats().counter_value("nic.get_resps_served"), 1);
    // 10_000 B at MTU 2048 = 5 response packets.
    assert_eq!(engine.stats().counter_value("nic.packets_injected"), 5);
}
