//! Engine-scaling benchmark: events/sec of the sharded parallel engine on
//! Sweep3D, across cluster sizes and thread counts.
//!
//! Sharded conservative windows exist so the paper's full-scale
//! 8,192-node fabrics are simulable in reasonable wall time. Each cell
//! runs the same Sweep3D workload on a fat-tree sized for `nodes` and
//! reports the median-of-`reps` wall time and event throughput, plus the
//! speedup over the 1-thread run of the same engine (same shard count, so
//! results are bit-identical — only the wall clock changes).
//!
//! Flags: `--nodes 512,2048,8192`, `--threads 1,2,4,8`, `--reps 5`,
//! `--quick` (CI smoke: one small size, 1–2 threads, single rep).
//! Writes `results/sim_scale.csv`.

use rvma_bench::{print_table, topology_for, write_csv, TopologyFamily};
use rvma_motifs::{build_motif_engine, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::FabricConfig;
use rvma_net::router::RoutingKind;
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{SimConfig, SimTime};
use std::time::Instant;

struct Args {
    nodes: Vec<u32>,
    threads: Vec<usize>,
    reps: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        nodes: vec![512, 2048, 8192],
        threads: vec![1, 2, 4, 8],
        reps: 5,
        seed: 42,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--nodes" => {
                a.nodes = val("--nodes")
                    .split(',')
                    .map(|s| s.parse().expect("--nodes: u32 list"))
                    .collect()
            }
            "--threads" => {
                a.threads = val("--threads")
                    .split(',')
                    .map(|s| s.parse().expect("--threads: usize list"))
                    .collect()
            }
            "--reps" => a.reps = val("--reps").parse().expect("--reps: usize"),
            "--seed" => a.seed = val("--seed").parse().expect("--seed: u64"),
            "--quick" => {
                a.nodes = vec![128];
                a.threads = vec![1, 2];
                a.reps = 1;
            }
            other => {
                panic!("unknown flag {other}; flags: --nodes --threads --reps --seed --quick")
            }
        }
    }
    assert!(a.reps >= 1, "--reps must be >= 1");
    a
}

/// One timed run; returns (simulated events, wall seconds).
fn run_once(nodes: u32, threads: usize, seed: u64) -> (u64, f64) {
    let grid = rvma_bench::factor2(nodes);
    let motif = Sweep3dConfig {
        pgrid: grid,
        cells: [16, 16, 64],
        zblock: 16,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(500),
        octants: 2,
    };
    let spec = topology_for(TopologyFamily::FatTree, RoutingKind::Adaptive, nodes);
    let fcfg = FabricConfig::at_gbps(400);
    // Shards fixed at 64 regardless of thread count, so every cell of a
    // size runs the identical simulation and only wall time varies.
    let mut sim = SimConfig::new(threads, SimTime::MAX);
    sim.shards = 64;
    let (mut eng, _n) = build_motif_engine(
        &spec,
        &fcfg,
        NicConfig::default(),
        Protocol::Rvma,
        seed,
        sim,
        |n| {
            if n < nodes {
                Box::new(Sweep3dNode::new(motif, n)) as Box<dyn HostLogic>
            } else {
                Box::new(IdleNode) as Box<dyn HostLogic>
            }
        },
    );
    let t0 = Instant::now();
    let events = eng.run_to_completion();
    (events, t0.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sim_scale — Sweep3D on the parallel engine ({} host core{})\n",
        cores,
        if cores == 1 { "" } else { "s" }
    );
    if args.threads.iter().any(|&t| t > cores) {
        println!(
            "  note: thread counts above {cores} cannot speed up on this host;\n\
             \x20 they still run (and stay bit-identical) but contend for cores.\n"
        );
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    for &nodes in &args.nodes {
        let mut base_eps: Option<f64> = None;
        for &threads in &args.threads {
            let mut events = 0;
            let mut walls = Vec::with_capacity(args.reps);
            for _ in 0..args.reps {
                let (ev, wall) = run_once(nodes, threads, args.seed);
                events = ev;
                walls.push(wall);
            }
            let wall = median(walls);
            let eps = events as f64 / wall;
            let speedup = eps / *base_eps.get_or_insert(eps);
            rows.push(vec![
                nodes.to_string(),
                threads.to_string(),
                events.to_string(),
                format!("{:.1}", wall * 1e3),
                format!("{:.0}", eps),
                format!("{speedup:.2}x"),
            ]);
            csv.push(vec![
                nodes.to_string(),
                threads.to_string(),
                events.to_string(),
                format!("{:.3}", wall * 1e3),
                format!("{eps:.0}"),
                format!("{speedup:.4}"),
            ]);
        }
    }

    let headers = [
        "nodes", "threads", "events", "wall(ms)", "events/s", "vs 1t",
    ];
    print_table(&headers, &rows);
    let csv_headers = [
        "nodes",
        "threads",
        "events",
        "wall_ms_median",
        "events_per_sec",
        "speedup_vs_1t",
    ];
    match write_csv("sim_scale", &csv_headers, &csv) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncsv write failed: {e}"),
    }
}
