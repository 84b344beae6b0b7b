//! Protocol-behaviour tests: the NIC models must reproduce the paper's
//! qualitative claims before any figure is trusted.

use rvma_net::fabric::FabricConfig;
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::topology::star;
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol, RecvInfo, TermApi};
use rvma_sim::{ParEngine, SimConfig};

/// Sends `count` messages of `bytes` to node 1 at start.
struct Sender {
    count: usize,
    bytes: u64,
}

impl HostLogic for Sender {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        for _ in 0..self.count {
            api.send(1, 0xAB, self.bytes);
        }
    }
    fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
}

/// Records every completion time into the `recv_ns` histogram.
struct Receiver;

impl HostLogic for Receiver {
    fn on_start(&mut self, _api: &mut TermApi<'_, '_>) {}
    fn on_recv(&mut self, _m: RecvInfo, api: &mut TermApi<'_, '_>) {
        let now = api.now();
        api.record_time("recv_ns", now);
        api.count("recvs");
    }
}

fn run(
    proto: Protocol,
    kind: RoutingKind,
    count: usize,
    bytes: u64,
    ncfg: NicConfig,
) -> ParEngine<NetEvent> {
    let spec = star(2, kind);
    let mut engine = ParEngine::new(42, SimConfig::default());
    let _cluster = build_cluster(
        &mut engine,
        &spec,
        &FabricConfig::at_gbps(100),
        ncfg,
        proto,
        |node| -> Box<dyn HostLogic> {
            if node == 0 {
                Box::new(Sender { count, bytes })
            } else {
                Box::new(Receiver)
            }
        },
    );
    engine.run_to_completion();
    engine
}

fn first_recv_ns(e: &ParEngine<NetEvent>) -> f64 {
    e.stats()
        .get_histogram("recv_ns")
        .expect("at least one recv")
        .min()
        .unwrap()
}

fn last_recv_ns(e: &ParEngine<NetEvent>) -> f64 {
    e.stats().get_histogram("recv_ns").unwrap().max().unwrap()
}

#[test]
fn rvma_message_arrives_with_sane_latency() {
    let e = run(
        Protocol::Rvma,
        RoutingKind::Static,
        1,
        4096,
        NicConfig::default(),
    );
    assert_eq!(e.stats().counter_value("recvs"), 1);
    let t = first_recv_ns(&e);
    // Lower bound: pcie + 2x(link latency) + switch + data serialization.
    assert!(t > 550.0, "implausibly fast: {t} ns");
    assert!(t < 10_000.0, "implausibly slow: {t} ns");
}

#[test]
fn rvma_needs_no_handshake_rtr_or_fence() {
    let e = run(
        Protocol::Rvma,
        RoutingKind::Adaptive,
        4,
        4096,
        NicConfig::default(),
    );
    assert_eq!(e.stats().counter_value("recvs"), 4);
    assert_eq!(e.stats().counter_value("nic.handshakes"), 0);
    assert_eq!(e.stats().counter_value("nic.rtrs_sent"), 0);
    assert_eq!(e.stats().counter_value("nic.fences_sent"), 0);
}

#[test]
fn rdma_first_message_pays_registration_handshake() {
    let rvma = run(
        Protocol::Rvma,
        RoutingKind::Static,
        1,
        4096,
        NicConfig::default(),
    );
    let rdma = run(
        Protocol::Rdma,
        RoutingKind::Static,
        1,
        4096,
        NicConfig::default(),
    );
    assert_eq!(rdma.stats().counter_value("nic.handshakes"), 1);
    let gap = first_recv_ns(&rdma) - first_recv_ns(&rvma);
    // The handshake costs at least the registration latency (2 us) plus a
    // round trip.
    assert!(gap > 2000.0, "handshake gap too small: {gap} ns");
}

#[test]
fn rdma_always_fences_by_default() {
    // Spec-compliant RDMA sends a completion send/recv per put on every
    // network (the paper: last-byte polling violates the IB spec).
    let ordered = run(
        Protocol::Rdma,
        RoutingKind::Static,
        3,
        4096,
        NicConfig::default(),
    );
    let unordered = run(
        Protocol::Rdma,
        RoutingKind::Adaptive,
        3,
        4096,
        NicConfig::default(),
    );
    assert_eq!(ordered.stats().counter_value("nic.fences_sent"), 3);
    assert_eq!(unordered.stats().counter_value("nic.fences_sent"), 3);
    assert_eq!(unordered.stats().counter_value("nic.fences_recv"), 3);
}

#[test]
fn rdma_last_byte_poll_skips_fence_on_ordered_networks_only() {
    let cfg = NicConfig {
        rdma_last_byte_poll: true,
        ..Default::default()
    };
    let ordered = run(Protocol::Rdma, RoutingKind::Static, 3, 4096, cfg);
    let unordered = run(Protocol::Rdma, RoutingKind::Adaptive, 3, 4096, cfg);
    // Ordered network: the optimization applies, no fences, faster recv.
    assert_eq!(ordered.stats().counter_value("nic.fences_sent"), 0);
    // Unordered network: the optimization cannot apply.
    assert_eq!(unordered.stats().counter_value("nic.fences_sent"), 3);
    assert!(last_recv_ns(&unordered) > last_recv_ns(&ordered));
}

#[test]
fn rdma_rtr_credits_serialize_messages() {
    // 8 back-to-back sends: RVMA pipelines them onto the wire; RDMA with a
    // single-buffer channel (1 credit) must wait for an RTR round trip per
    // message.
    let n = 8;
    let rvma = run(
        Protocol::Rvma,
        RoutingKind::Static,
        n,
        4096,
        NicConfig::default(),
    );
    let rdma = run(
        Protocol::Rdma,
        RoutingKind::Static,
        n,
        4096,
        NicConfig::default(),
    );
    assert_eq!(rvma.stats().counter_value("recvs"), n as u64);
    assert_eq!(rdma.stats().counter_value("recvs"), n as u64);
    // Each consumed message returns one RTR credit.
    assert_eq!(rdma.stats().counter_value("nic.rtrs_sent"), n as u64);
    let speedup = last_recv_ns(&rdma) / last_recv_ns(&rvma);
    assert!(
        speedup > 1.5,
        "RTR serialization should hurt RDMA: speedup {speedup}"
    );
}

#[test]
fn rdma_more_credits_recover_pipelining() {
    let deep = NicConfig {
        rdma_credits: 8,
        ..Default::default()
    };
    let shallow = run(
        Protocol::Rdma,
        RoutingKind::Static,
        8,
        4096,
        NicConfig::default(),
    );
    let deep = run(Protocol::Rdma, RoutingKind::Static, 8, 4096, deep);
    assert!(last_recv_ns(&deep) < last_recv_ns(&shallow));
}

#[test]
fn rvma_counter_spill_penalty() {
    let tight = NicConfig {
        rvma_counter_capacity: Some(0), // every message spills
        ..Default::default()
    };
    let free = run(
        Protocol::Rvma,
        RoutingKind::Static,
        2,
        4096,
        NicConfig::default(),
    );
    let spilled = run(Protocol::Rvma, RoutingKind::Static, 2, 4096, tight);
    assert_eq!(free.stats().counter_value("nic.counter_spills"), 0);
    assert_eq!(spilled.stats().counter_value("nic.counter_spills"), 2);
    let penalty = first_recv_ns(&spilled) - first_recv_ns(&free);
    // One host-bus round trip = 300 ns.
    assert!((penalty - 300.0).abs() < 1.0, "spill penalty {penalty} ns");
}

#[test]
fn multi_packet_messages_fragment_at_mtu() {
    let e = run(
        Protocol::Rvma,
        RoutingKind::Static,
        1,
        10_000,
        NicConfig::default(),
    );
    // 10_000 B at MTU 2048 = 5 packets.
    assert_eq!(e.stats().counter_value("nic.packets_injected"), 5);
}

#[test]
fn zero_byte_message_is_one_packet() {
    let e = run(
        Protocol::Rvma,
        RoutingKind::Static,
        1,
        0,
        NicConfig::default(),
    );
    assert_eq!(e.stats().counter_value("nic.packets_injected"), 1);
    assert_eq!(e.stats().counter_value("recvs"), 1);
}

#[test]
fn runs_are_deterministic() {
    let a = run(
        Protocol::Rdma,
        RoutingKind::Adaptive,
        4,
        8192,
        NicConfig::default(),
    );
    let b = run(
        Protocol::Rdma,
        RoutingKind::Adaptive,
        4,
        8192,
        NicConfig::default(),
    );
    assert_eq!(a.now(), b.now());
    assert_eq!(a.events_fired(), b.events_fired());
}

#[test]
fn bandwidth_scaling_reduces_latency() {
    let run_at = |gbps: u64| {
        let spec = star(2, RoutingKind::Static);
        let mut engine = ParEngine::new(1, SimConfig::default());
        build_cluster(
            &mut engine,
            &spec,
            &FabricConfig::at_gbps(gbps),
            NicConfig::default(),
            Protocol::Rvma,
            |node| -> Box<dyn HostLogic> {
                if node == 0 {
                    Box::new(Sender {
                        count: 1,
                        bytes: 1 << 20,
                    })
                } else {
                    Box::new(Receiver)
                }
            },
        );
        engine.run_to_completion();
        first_recv_ns(&engine)
    };
    let slow = run_at(100);
    let fast = run_at(400);
    // A 1 MiB message is serialization-dominated: ~4x less time at 4x rate.
    assert!(slow / fast > 3.0, "scaling off: {slow} vs {fast}");
}

/// Issues `count` gets of `bytes` from node 1 at start; records completion
/// times into `get_ns`.
struct Getter {
    count: usize,
    bytes: u64,
}

impl HostLogic for Getter {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        for _ in 0..self.count {
            api.get(1, 0xAB, self.bytes);
        }
    }
    fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
    fn on_get_complete(&mut self, _msg_id: u64, api: &mut TermApi<'_, '_>) {
        let now = api.now();
        api.record_time("get_ns", now);
        api.count("gets_done");
    }
}

struct Silent;
impl HostLogic for Silent {
    fn on_start(&mut self, _api: &mut TermApi<'_, '_>) {}
    fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
}

fn run_get(proto: Protocol, kind: RoutingKind, count: usize, bytes: u64) -> ParEngine<NetEvent> {
    let spec = star(2, kind);
    let mut engine = ParEngine::new(42, SimConfig::default());
    build_cluster(
        &mut engine,
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        proto,
        |node| -> Box<dyn HostLogic> {
            if node == 0 {
                Box::new(Getter { count, bytes })
            } else {
                Box::new(Silent)
            }
        },
    );
    engine.run_to_completion();
    engine
}

#[test]
fn rvma_get_needs_no_handshake() {
    let e = run_get(Protocol::Rvma, RoutingKind::Adaptive, 3, 8192);
    assert_eq!(e.stats().counter_value("gets_done"), 3);
    assert_eq!(e.stats().counter_value("nic.gets_sent"), 3);
    assert_eq!(e.stats().counter_value("nic.get_resps_served"), 3);
    assert_eq!(e.stats().counter_value("nic.handshakes"), 0);
    assert_eq!(e.stats().counter_value("nic.fences_sent"), 0);
}

#[test]
fn rdma_get_pays_handshake_once_per_channel() {
    let e = run_get(Protocol::Rdma, RoutingKind::Adaptive, 3, 8192);
    assert_eq!(e.stats().counter_value("gets_done"), 3);
    assert_eq!(e.stats().counter_value("nic.handshakes"), 1);
    // Reads never fence: completion is requester-side counting.
    assert_eq!(e.stats().counter_value("nic.fences_sent"), 0);
}

#[test]
fn get_latency_includes_round_trip() {
    let e = run_get(Protocol::Rvma, RoutingKind::Static, 1, 0);
    // Req one way + response back: two wire traversals + bus crossings.
    let t = e.stats().get_histogram("get_ns").unwrap().min().unwrap();
    assert!(t > 1000.0, "get RTT implausibly fast: {t} ns");
}

#[test]
fn rvma_get_completes_out_of_order_fragments() {
    // Multi-packet read response on an unordered network completes at the
    // requester by byte counting, like puts.
    let e = run_get(Protocol::Rvma, RoutingKind::Adaptive, 1, 100_000);
    assert_eq!(e.stats().counter_value("gets_done"), 1);
    // 100_000 B at MTU 2048 = 49 response packets + 1 request.
    assert_eq!(e.stats().counter_value("nic.packets_injected"), 50);
}
