//! `sim_sweep3d`: the other third of the repo — `rvma-sim`, `rvma-net`,
//! `rvma-nic`, `rvma-motifs`. Sweep3D under the RVMA protocol on a
//! 2048-node adaptive fat-tree at 400 Gb/s (the `sim_scale` cell), on
//! the sharded `ParEngine` with 64 shards and **one** thread, repeated.
//! Calendar queues and the cross-shard `EventRing` carry the load.
//!
//! Multi-thread speed-up can only be bounded on a two-core host and is
//! not measured here. A repeat builds a fresh engine (untimed; its cost
//! is `setup_s`) and times `run_to_completion`. The workload is
//! single-threaded and deterministic, so all its run-to-run variation is
//! the host's speed (shorter blocks did not help: whole runs are slow).

use super::{Block, Cfg, Workload};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::TelemetrySnapshot;
use rvma_motifs::{build_motif_engine, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::FabricConfig;
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::{fattree, FatTreeParams};
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{ParEngine, SimConfig, SimTime};
use std::time::{Duration, Instant};

const NODES: u32 = 2048;
/// 32 x 64 process grid (2048 = 2^11, nearest-square factoring).
const PGRID: [u32; 2] = [32, 64];
/// Smallest even radix with k^3/4 >= 2048 terminals (2662).
const FATTREE_K: u32 = 22;
const SHARDS: usize = 64;

/// What one finished repeat must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Fingerprint {
    events: u64,
    cross_events: u64,
    mailbox_spills: u64,
    sim_time: SimTime,
}

pub struct SimSweep3d {
    seed: u64,
    /// Built during set-up; the first repeat runs it.
    engine: Option<(ParEngine<NetEvent>, u64)>,
    reference: Option<Fingerprint>,
    repeats: u64,
}

fn build(seed: u64) -> (ParEngine<NetEvent>, u64) {
    let motif = Sweep3dConfig {
        pgrid: PGRID,
        cells: [16, 16, 64],
        zblock: 16,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(500),
        octants: 2,
    };
    let spec = fattree(FatTreeParams { k: FATTREE_K }, RoutingKind::Adaptive);
    let mut sim = SimConfig::new(1, SimTime::MAX);
    sim.shards = SHARDS;
    build_motif_engine(
        &spec,
        &FabricConfig::at_gbps(400),
        NicConfig::default(),
        Protocol::Rvma,
        seed,
        sim,
        |n| {
            if n < NODES {
                Box::new(Sweep3dNode::new(motif, n)) as Box<dyn HostLogic>
            } else {
                Box::new(IdleNode) as Box<dyn HostLogic>
            }
        },
    )
}

impl Workload for SimSweep3d {
    const NAME: &'static str = "sim_sweep3d";
    const LANES: &'static [&'static str] = &["run_to_completion"];
    const THREADS: usize = 1;

    fn setup(cfg: &Cfg, _telemetry: bool) -> Result<Self, String> {
        Ok(SimSweep3d {
            seed: cfg.seed,
            engine: Some(build(cfg.seed)),
            reference: None,
            repeats: 0,
        })
    }

    fn block(&mut self, _lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        let deadline = Instant::now() + dur;
        let mut busy = Duration::ZERO;
        loop {
            let (mut engine, nodes) = self.engine.take().unwrap_or_else(|| build(self.seed));
            let t0 = Instant::now();
            let events = engine.run_to_completion();
            let t1 = Instant::now();
            busy += t1 - t0;
            self.repeats += 1;
            // Untimed: every node finished, and the run is the same run
            // as every other repeat of this seed, event for event.
            let print = Fingerprint {
                events,
                cross_events: engine.cross_events(),
                mailbox_spills: engine.mailbox_spills(),
                sim_time: engine.now(),
            };
            let done = engine.stats().counter_value("motif.nodes_done") == nodes;
            if !done || *self.reference.get_or_insert(print) != print || events == 0 {
                b.failed += events.max(1);
            } else {
                b.samples_ns
                    .push((t1 - t0).as_nanos() as f64 / events as f64);
            }
            b.ops += events.max(1);
            if let Some(s) = spans.as_deref_mut() {
                s.record("run_to_completion", None, self.repeats, t0, t1);
            }
            if t1 >= deadline {
                break;
            }
        }
        b.busy_s = busy.as_secs_f64();
        b
    }

    fn finish(self, layers: &mut Layers, _tel: &mut Option<TelemetrySnapshot>) -> u64 {
        if let Some(r) = self.reference {
            layers.set("sim.events", r.events as f64);
            layers.set("sim.cross_events", r.cross_events as f64);
            layers.set("sim.mailbox_spills", r.mailbox_spills as f64);
            layers.set("sim.sim_time_us", r.sim_time.as_us_f64());
        }
        let t0 = Instant::now();
        drop(build(self.seed));
        layers.set("sim.build_s", t0.elapsed().as_secs_f64());
        0
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("sim_events_mps", lanes[0].mops());
        layers.set("sim.ns_per_event", lanes[0].p50_us() * 1e3);
    }
}
