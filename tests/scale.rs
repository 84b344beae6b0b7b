//! Scale checks: the speedup ratios the figures report must be stable as
//! the simulated machine grows (they are per-message protocol effects, not
//! artifacts of a small fabric).
//!
//! The 1,024-node case takes a few seconds in a debug build and well under
//! one in release.

use rvma::motifs::{compare_protocols, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma::net::fabric::FabricConfig;
use rvma::net::router::RoutingKind;
use rvma::net::topology::{dragonfly, DragonflyParams};
use rvma::nic::{HostLogic, NicConfig};
use rvma::sim::SimTime;

fn sweep_speedup(nodes: u32, params: DragonflyParams) -> f64 {
    let side = (nodes as f64).sqrt() as u32;
    let motif = Sweep3dConfig {
        pgrid: [side, nodes / side],
        cells: [64, 64, 256],
        zblock: 32,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(500),
        octants: 4,
    };
    let spec = dragonfly(params, RoutingKind::Adaptive);
    assert!(spec.terminals >= nodes);
    let active = nodes;
    compare_protocols(
        &spec,
        &FabricConfig::at_gbps(400),
        NicConfig::default(),
        11,
        |n| {
            if n < active {
                Box::new(Sweep3dNode::new(motif, n)) as Box<dyn HostLogic>
            } else {
                Box::new(IdleNode) as Box<dyn HostLogic>
            }
        },
    )
    .2
}

#[test]
fn speedup_stable_from_16_to_64_nodes() {
    let small = sweep_speedup(16, DragonflyParams { a: 4, p: 2, h: 2 });
    let medium = sweep_speedup(64, DragonflyParams { a: 4, p: 2, h: 2 });
    assert!(small > 1.5 && medium > 1.5);
    let drift = (medium / small - 1.0).abs();
    assert!(
        drift < 0.5,
        "speedup drifted {:.0}% from 16 to 64 nodes ({small:.2} -> {medium:.2})",
        drift * 100.0
    );
}

#[test]
fn speedup_stable_at_1024_nodes() {
    let medium = sweep_speedup(64, DragonflyParams { a: 4, p: 2, h: 2 });
    let large = sweep_speedup(1024, DragonflyParams { a: 8, p: 4, h: 4 });
    let drift = (large / medium - 1.0).abs();
    assert!(
        drift < 0.6,
        "speedup drifted {:.0}% from 64 to 1024 nodes ({medium:.2} -> {large:.2})",
        drift * 100.0
    );
}
