//! Golden pin of the simulator: three small cells whose complete observable
//! output — events fired, cross-shard traffic, mailbox spills, final clock,
//! every counter, and a digest of every histogram's samples — is recorded
//! as constants. The parity suites prove runs agree *with each other*
//! across thread counts; this suite proves they agree with the recorded
//! past, so an engine or model change that reorders a single event (a
//! different heap tie-break, a changed RNG draw, a moved counter bump)
//! fails here even when it is perfectly deterministic.
//!
//! The cells cover both engines and both protocols:
//! - `ParEngine`, Sweep3D over RVMA on an adaptive fat-tree (the shape of
//!   the `sim_sweep3d` benchmark cell), once with roomy mailboxes and once
//!   with two-slot ones so the overflow path carries traffic;
//! - sequential `Engine`, Sweep3D over RDMA on an adaptive dragonfly
//!   (handshakes, RTR credits, fences);
//! - sequential `Engine`, a key-value store over RDMA (one-sided gets
//!   waiting behind registration handshakes).
//!
//! After a deliberate model change, re-record from the failing
//! assertion: its left side prints the new pin in full.

use rvma_motifs::{build_motif_engine, IdleNode, KvConfig, KvNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::{FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::topology::{dragonfly, fattree, DragonflyParams, FatTreeParams};
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol};
use rvma_sim::{Engine, SimConfig, SimTime, StatsRegistry};

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    cross_events: u64,
    mailbox_spills: u64,
    now_ps: u64,
    counters: Vec<(String, u64)>,
    /// `(name, sample count, FNV-1a digest of the samples' bits in order)`.
    histograms: Vec<(String, usize, u64)>,
}

fn fnv1a(samples: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin(stats: &StatsRegistry, events: u64, cross: u64, spills: u64, now: SimTime) -> Pin {
    Pin {
        events,
        cross_events: cross,
        mailbox_spills: spills,
        now_ps: now.as_ps(),
        counters: stats
            .counter_names()
            .map(|n| (n.to_string(), stats.counter_value(n)))
            .collect(),
        histograms: stats
            .histogram_names()
            .map(|n| {
                let h = stats.get_histogram(n).expect("listed histogram");
                (n.to_string(), h.count(), fnv1a(h.samples()))
            })
            .collect(),
    }
}

/// Build the expected pin from literal tables.
fn want(
    events: u64,
    cross_events: u64,
    mailbox_spills: u64,
    now_ps: u64,
    counters: &[(&str, u64)],
    histograms: &[(&str, usize, u64)],
) -> Pin {
    Pin {
        events,
        cross_events,
        mailbox_spills,
        now_ps,
        counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        histograms: histograms
            .iter()
            .map(|&(n, c, d)| (n.to_string(), c, d))
            .collect(),
    }
}

fn sweep_logic(pgrid: [u32; 2]) -> impl FnMut(u32) -> Box<dyn HostLogic> {
    let cfg = Sweep3dConfig {
        pgrid,
        cells: [16, 16, 32],
        zblock: 4,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(200),
        octants: 2,
    };
    move |n| {
        if n < cfg.nodes() {
            Box::new(Sweep3dNode::new(cfg, n)) as Box<dyn HostLogic>
        } else {
            Box::new(IdleNode)
        }
    }
}

fn run_par(mailbox_capacity: usize, threads: usize) -> Pin {
    let spec = fattree(FatTreeParams { k: 8 }, RoutingKind::Adaptive);
    let mut sim = SimConfig::new(threads, SimTime::MAX);
    sim.shards = 8;
    sim.mailbox_capacity = mailbox_capacity;
    let (mut eng, nodes) = build_motif_engine(
        &spec,
        &FabricConfig::at_gbps(400),
        NicConfig::default(),
        Protocol::Rvma,
        42,
        sim,
        sweep_logic([8, 16]),
    );
    let events = eng.run_to_completion();
    assert_eq!(eng.stats().counter_value("motif.nodes_done"), nodes);
    pin(
        eng.stats(),
        events,
        eng.cross_events(),
        eng.mailbox_spills(),
        eng.now(),
    )
}

fn run_seq(
    spec: &TopologySpec,
    protocol: Protocol,
    logic: impl FnMut(u32) -> Box<dyn HostLogic>,
) -> Pin {
    let mut eng: Engine<NetEvent> = Engine::new(42);
    build_cluster(
        &mut eng,
        spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        protocol,
        logic,
    );
    let events = eng.run_to_completion();
    pin(eng.stats(), events, 0, 0, eng.now())
}

#[test]
fn par_sweep3d_rvma_fattree() {
    let expect = |spills| {
        want(
            26_880,
            6_024,
            spills,
            38_035_040,
            &[
                ("motif.nodes_done", 128),
                ("net.queue_wait_ns", 1_056),
                ("net.switch_forwarded", 9_856),
                ("net.wire_bytes", 5_440_512),
                ("nic.msgs_sent", 3_712),
                ("nic.packets_injected", 3_712),
            ],
            &[("motif.node_done_ns", 128, 4_929_885_366_635_348_443)],
        )
    };
    let roomy = run_par(4096, 1);
    // Two-slot mailboxes push cross-shard bursts through the overflow
    // side-channel; only the spill count may differ.
    let tiny = run_par(0, 2);
    assert_eq!(roomy, expect(0));
    assert_eq!(tiny, expect(3_069));
}

#[test]
fn seq_sweep3d_rdma_dragonfly() {
    let spec = dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive);
    assert_eq!(
        run_seq(&spec, Protocol::Rdma, sweep_logic([8, 8])),
        want(
            29_315,
            0,
            0,
            155_291_058,
            &[
                ("motif.nodes_done", 72),
                ("net.queue_wait_ns", 126_947),
                ("net.switch_forwarded", 15_171),
                ("net.wire_bytes", 3_068_680),
                ("nic.fences_recv", 1_792),
                ("nic.fences_sent", 1_792),
                ("nic.handshakes", 168),
                ("nic.msgs_sent", 1_792),
                ("nic.packets_injected", 5_712),
                ("nic.rtrs_sent", 1_792),
            ],
            &[("motif.node_done_ns", 72, 175_194_403_330_333_024)],
        )
    );
}

#[test]
fn seq_kvstore_rdma_fattree() {
    let cfg = KvConfig {
        nodes: 16,
        servers: 4,
        ops: 16,
        read_ratio: 0.75,
        value_bytes: 2048,
        keys: 256,
        zipf_s: 0.99,
        seed: 5,
    };
    let spec = fattree(FatTreeParams { k: 4 }, RoutingKind::Adaptive);
    assert_eq!(
        run_seq(&spec, Protocol::Rdma, move |n| {
            Box::new(KvNode::new(cfg, n)) as Box<dyn HostLogic>
        }),
        want(
            5_162,
            0,
            0,
            126_810_765,
            &[
                ("kv.gets", 158),
                ("kv.puts", 34),
                ("kv.served_puts", 34),
                ("motif.nodes_done", 16),
                ("net.queue_wait_ns", 6_809),
                ("net.switch_forwarded", 3_650),
                ("net.wire_bytes", 2_155_120),
                ("nic.fences_recv", 34),
                ("nic.fences_sent", 34),
                ("nic.get_resps_served", 158),
                ("nic.gets_sent", 158),
                ("nic.handshakes", 156),
                ("nic.msgs_sent", 34),
                ("nic.packets_injected", 730),
                ("nic.rtrs_sent", 34),
            ],
            &[("motif.node_done_ns", 16, 11_928_113_894_392_756_724)],
        )
    );
}
