//! Congestion behaviour: adaptive routing must spread load that static
//! routing serializes — the property that makes adaptive networks worth
//! their loss of ordering, and hence makes RVMA's order-independence
//! valuable.

use rvma_net::fabric::{build_fabric, FabricConfig};
use rvma_net::packet::{NetEvent, Packet, PacketHeader, PacketKind, RouteState};
use rvma_net::router::RoutingKind;
use rvma_net::topology::{fattree, FatTreeParams};
use rvma_sim::{Component, Ctx, ParEngine, SimConfig, SimTime};

/// Terminal that records the arrival time of each packet.
struct Sink {
    last_arrival: SimTime,
    received: u64,
}

impl Component<NetEvent> for Sink {
    fn handle(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        if let NetEvent::Packet(_) = ev {
            self.received += 1;
            self.last_arrival = ctx.now();
            ctx.stats().counter("sink.received").inc();
            let now_ns = ctx.now().as_ns_f64() as u64;
            let prev = ctx.stats().counter_value("sink.finish_ns");
            if now_ns > prev {
                ctx.stats().counter("sink.finish_ns").add(now_ns - prev);
            }
        }
    }
}

fn pkt(id: u64, src: u32, dst: u32, bytes: u32) -> Packet {
    Packet {
        id,
        src,
        dst,
        payload_bytes: bytes,
        header: PacketHeader {
            kind: PacketKind::RvmaData,
            msg_id: id,
            msg_bytes: bytes as u64,
            offset: 0,
            vaddr: 0,
            tag: 0,
        },
        route: RouteState::default(),
        injected_at: SimTime::ZERO,
    }
}

/// Burst 64 packets from 4 same-pod sources toward 4 destinations whose
/// d-mod-k hashes collide on one up-port; return (finish time, queue-wait).
fn run_burst(kind: RoutingKind) -> (SimTime, u64) {
    let spec = fattree(FatTreeParams { k: 4 }, kind);
    let mut engine: ParEngine<NetEvent> = ParEngine::new(3, SimConfig::default());
    let fabric = build_fabric(&mut engine, &spec, &FabricConfig::at_gbps(100));
    for _ in 0..spec.terminals {
        engine.add_component(Sink {
            last_arrival: SimTime::ZERO,
            received: 0,
        });
    }
    fabric.assert_terminals_added(&engine);

    // Sources 0..4 (pod 0); destinations 8, 10, 12, 14: all even, so the
    // static d-mod-k up-port hash (dst % 2) sends every flow up the SAME
    // edge->agg link. Adaptive up-routing can use both.
    let dsts = [8u32, 10, 12, 14];
    let mut id = 0;
    for (s, &d) in dsts.iter().enumerate() {
        let src_switch = fabric.terminal_attach[s.min(3)];
        for k in 0..16 {
            id += 1;
            // Inject directly at the source's switch, as a terminal would.
            engine.schedule(
                SimTime::from_ns(k * 10),
                src_switch,
                NetEvent::Packet(pkt(id, s as u32, d, 2048)),
            );
        }
    }
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("sink.received"), 64);
    (
        engine.now(),
        engine.stats().counter_value("net.queue_wait_ns"),
    )
}

#[test]
fn adaptive_up_routing_spreads_colliding_flows() {
    let (static_finish, static_wait) = run_burst(RoutingKind::Static);
    let (adaptive_finish, adaptive_wait) = run_burst(RoutingKind::Adaptive);
    assert!(
        adaptive_finish < static_finish,
        "adaptive should finish sooner: {adaptive_finish} vs {static_finish}"
    );
    assert!(
        adaptive_wait < static_wait,
        "adaptive should queue less: {adaptive_wait} vs {static_wait} ns"
    );
}

#[test]
fn wire_byte_accounting_matches_hops() {
    // A single packet from terminal 0 to terminal 15 in a k=4 fat-tree
    // crosses 5 switches; each forwards wire_bytes = payload + header.
    let spec = fattree(FatTreeParams { k: 4 }, RoutingKind::Static);
    let mut engine: ParEngine<NetEvent> = ParEngine::new(1, SimConfig::default());
    let fabric = build_fabric(&mut engine, &spec, &FabricConfig::at_gbps(100));
    for _ in 0..spec.terminals {
        engine.add_component(Sink {
            last_arrival: SimTime::ZERO,
            received: 0,
        });
    }
    engine.schedule(
        SimTime::ZERO,
        fabric.terminal_attach[0],
        NetEvent::Packet(pkt(1, 0, 15, 1000)),
    );
    engine.run_to_completion();
    let wire = 1000 + rvma_net::HEADER_BYTES as u64;
    assert_eq!(engine.stats().counter_value("net.switch_forwarded"), 5);
    assert_eq!(engine.stats().counter_value("net.wire_bytes"), 5 * wire);
    // Uncontended: zero queueing.
    assert_eq!(engine.stats().counter_value("net.queue_wait_ns"), 0);
}
