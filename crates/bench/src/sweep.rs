//! The topology × routing × link-speed × protocol sweep behind Figs. 7–8.

use rvma_motifs::{run_motif, IdleNode, MotifResult};
use rvma_net::fabric::{FabricConfig, TopologySpec};
use rvma_net::router::RoutingKind;
use rvma_net::topology::{
    dragonfly, fattree, hyperx, torus3d, DragonflyParams, FatTreeParams, HyperXParams, TorusParams,
};
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{SimConfig, SimTime};

/// Link speeds of the paper's sweep: three contemporary rates plus the
/// future 2 Tbps point where the 4.4× headline lives.
pub const LINK_SPEEDS_GBPS: [u64; 4] = [100, 200, 400, 2000];

/// The four topology families of Figs. 7–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyFamily {
    /// 3-level fat-tree.
    FatTree,
    /// 3-D torus.
    Torus,
    /// Dragonfly.
    Dragonfly,
    /// 2-D HyperX.
    HyperX,
}

impl TopologyFamily {
    /// All families, figure order.
    pub const ALL: [TopologyFamily; 4] = [
        TopologyFamily::FatTree,
        TopologyFamily::Torus,
        TopologyFamily::Dragonfly,
        TopologyFamily::HyperX,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TopologyFamily::FatTree => "fat-tree",
            TopologyFamily::Torus => "torus3d",
            TopologyFamily::Dragonfly => "dragonfly",
            TopologyFamily::HyperX => "hyperx",
        }
    }
}

/// Near-cubic factorization of `n` (largest factors last). Works well for
/// powers of two; falls back to flat shapes otherwise.
pub fn factor3(n: u32) -> [u32; 3] {
    let mut best = [1, 1, n];
    let mut best_score = u32::MAX;
    for a in 1..=n {
        if a * a * a > n {
            break;
        }
        if !n.is_multiple_of(a) {
            continue;
        }
        let m = n / a;
        for b in a..=m {
            if b * b > m || !m.is_multiple_of(b) {
                continue;
            }
            let c = m / b;
            let score = c - a; // spread: smaller is more cubic
            if score < best_score {
                best_score = score;
                best = [a, b, c];
            }
        }
    }
    best
}

/// Near-square factorization of `n`.
pub fn factor2(n: u32) -> [u32; 2] {
    let mut best = [1, n];
    for a in 1..=n {
        if a * a > n {
            break;
        }
        if n.is_multiple_of(a) {
            best = [a, n / a];
        }
    }
    best
}

/// The smallest instance of `family` with at least `min_terminals`
/// terminals, under `kind` routing.
pub fn topology_for(family: TopologyFamily, kind: RoutingKind, min_terminals: u32) -> TopologySpec {
    match family {
        TopologyFamily::Torus => {
            // One terminal per switch, near-cubic dims (>= 2 each).
            let mut dims = factor3(min_terminals);
            for d in &mut dims {
                *d = (*d).max(2);
            }
            torus3d(TorusParams { dims, tps: 1 }, kind)
        }
        TopologyFamily::HyperX => {
            // Four terminals per switch, near-square switch grid.
            let switches = min_terminals.div_ceil(4);
            let mut d = factor2(switches);
            for x in &mut d {
                *x = (*x).max(2);
            }
            hyperx(HyperXParams { d, tps: 4 }, kind)
        }
        TopologyFamily::FatTree => {
            // Smallest even k with k^3/4 terminals.
            let mut k = 4;
            while k * k * k / 4 < min_terminals {
                k += 2;
            }
            fattree(FatTreeParams { k }, kind)
        }
        TopologyFamily::Dragonfly => {
            // Balanced dragonflies from a small ladder of (a, p, h).
            let ladder = [
                DragonflyParams { a: 4, p: 2, h: 2 },  // 72
                DragonflyParams { a: 4, p: 4, h: 2 },  // 144
                DragonflyParams { a: 6, p: 3, h: 3 },  // 342
                DragonflyParams { a: 8, p: 4, h: 4 },  // 1,056
                DragonflyParams { a: 12, p: 6, h: 6 }, // 5,256
                DragonflyParams { a: 16, p: 8, h: 8 }, // 16,512
            ];
            let p = ladder
                .into_iter()
                .find(|p| p.terminals() >= min_terminals)
                .unwrap_or(ladder[ladder.len() - 1]);
            dragonfly(p, kind)
        }
    }
}

/// One cell of the Fig. 7/8 matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Topology family label.
    pub family: &'static str,
    /// Routing kind.
    pub routing: RoutingKind,
    /// Link speed, Gbps.
    pub gbps: u64,
    /// RDMA run.
    pub rdma: MotifResult,
    /// RVMA run.
    pub rvma: MotifResult,
    /// Makespan ratio RDMA/RVMA (>1 ⇒ RVMA faster).
    pub speedup: f64,
}

/// Sweep parameters for a motif matrix.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Motif process count (motif grid is shaped from this).
    pub nodes: u32,
    /// RNG seed.
    pub seed: u64,
    /// Restrict to one family (None = all four).
    pub only_family: Option<TopologyFamily>,
    /// Restrict to one routing kind (None = both).
    pub only_routing: Option<RoutingKind>,
    /// Link speeds to sweep.
    pub speeds: Vec<u64>,
    /// Worker threads: 1 = the sequential reference (`SimConfig::default()`,
    /// one shard), >1 = 16 shards over that many workers (the same results
    /// at any `T > 1`, but 16 shards fork 16 RNG streams where one shard
    /// draws the root stream, so absolute makespans may differ slightly
    /// between `1` and `>1`). See [`SweepConfig::sim`].
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            nodes: 64,
            seed: 42,
            only_family: None,
            only_routing: None,
            speeds: LINK_SPEEDS_GBPS.to_vec(),
            threads: 1,
        }
    }
}

impl SweepConfig {
    /// Parse figure-binary CLI flags: `--nodes N`, `--seed S`,
    /// `--family fat-tree|torus|dragonfly|hyperx`,
    /// `--routing static|adaptive`, `--speeds 100,400,2000`,
    /// `--threads T` (see [`SweepConfig::sim`]),
    /// `--full-scale` (= the paper's 8,192 nodes).
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags or bad values.
    pub fn from_args(args: impl Iterator<Item = String>) -> SweepConfig {
        let mut cfg = SweepConfig::default();
        let mut it = args.peekable();
        while let Some(flag) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--nodes" => cfg.nodes = val("--nodes").parse().expect("--nodes: u32"),
                "--seed" => cfg.seed = val("--seed").parse().expect("--seed: u64"),
                "--family" => {
                    cfg.only_family = Some(match val("--family").as_str() {
                        "fat-tree" | "fattree" => TopologyFamily::FatTree,
                        "torus" | "torus3d" => TopologyFamily::Torus,
                        "dragonfly" => TopologyFamily::Dragonfly,
                        "hyperx" => TopologyFamily::HyperX,
                        other => panic!("unknown family {other}"),
                    })
                }
                "--routing" => {
                    cfg.only_routing = Some(match val("--routing").as_str() {
                        "static" => RoutingKind::Static,
                        "adaptive" => RoutingKind::Adaptive,
                        other => panic!("unknown routing {other}"),
                    })
                }
                "--speeds" => {
                    cfg.speeds = val("--speeds")
                        .split(',')
                        .map(|s| s.parse().expect("--speeds: Gbps list"))
                        .collect()
                }
                "--threads" => cfg.threads = val("--threads").parse().expect("--threads: usize"),
                "--full-scale" => cfg.nodes = 8192,
                other => panic!(
                    "unknown flag {other}; flags: --nodes --seed --family --routing --speeds --threads --full-scale"
                ),
            }
        }
        cfg
    }

    /// The engine configuration `threads` selects: the sequential reference
    /// at 1, else 16 shards over `threads` workers with the widest window
    /// the fabric allows (`build_motif_engine` clamps it to the lookahead).
    pub fn sim(&self) -> SimConfig {
        if self.threads > 1 {
            SimConfig::new(self.threads, SimTime::MAX)
        } else {
            SimConfig::default()
        }
    }
}

/// Run the full `topology × routing × speed` matrix for a motif whose
/// per-node behaviour comes from `make_logic(node)` (nodes ≥ `cfg.nodes`
/// become [`IdleNode`]s). Returns one cell per configuration.
pub fn motif_matrix(
    cfg: &SweepConfig,
    ncfg: NicConfig,
    make_logic: impl Fn(u32) -> Box<dyn HostLogic> + Copy,
) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for family in TopologyFamily::ALL {
        if cfg.only_family.is_some_and(|f| f != family) {
            continue;
        }
        for routing in [RoutingKind::Static, RoutingKind::Adaptive] {
            if cfg.only_routing.is_some_and(|r| r != routing) {
                continue;
            }
            for &gbps in &cfg.speeds {
                let spec = topology_for(family, routing, cfg.nodes);
                let fcfg = FabricConfig::at_gbps(gbps);
                let active = cfg.nodes;
                let run = |proto| {
                    let logic = |n| {
                        if n < active {
                            make_logic(n)
                        } else {
                            Box::new(IdleNode) as Box<dyn HostLogic>
                        }
                    };
                    run_motif(&spec, &fcfg, ncfg, proto, cfg.seed, cfg.sim(), logic)
                };
                let rdma = run(Protocol::Rdma);
                let rvma = run(Protocol::Rvma);
                let speedup = rdma.makespan.as_ns_f64() / rvma.makespan.as_ns_f64();
                cells.push(MatrixCell {
                    family: family.label(),
                    routing,
                    gbps,
                    rdma,
                    rvma,
                    speedup,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor3_cubic_for_powers_of_two() {
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(64), [4, 4, 4]);
        assert_eq!(factor3(512), [8, 8, 8]);
        assert_eq!(factor3(128), [4, 4, 8]);
    }

    #[test]
    fn factor2_square_for_powers_of_two() {
        assert_eq!(factor2(64), [8, 8]);
        assert_eq!(factor2(128), [8, 16]);
        assert_eq!(factor2(7), [1, 7]);
    }

    #[test]
    fn topologies_cover_requested_terminals() {
        for family in TopologyFamily::ALL {
            for n in [16u32, 64, 200] {
                let spec = topology_for(family, RoutingKind::Static, n);
                assert!(
                    spec.terminals >= n,
                    "{}: {} < {n}",
                    spec.name,
                    spec.terminals
                );
                spec.validate().unwrap();
            }
        }
    }

    #[test]
    fn fat_tree_size_ladder() {
        let s = topology_for(TopologyFamily::FatTree, RoutingKind::Static, 16);
        assert_eq!(s.terminals, 16); // k=4
        let s = topology_for(TopologyFamily::FatTree, RoutingKind::Static, 17);
        assert_eq!(s.terminals, 54); // k=6
    }
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn parse(args: &[&str]) -> SweepConfig {
        SweepConfig::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_flags() {
        let c = parse(&[]);
        assert_eq!(c.nodes, 64);
        assert_eq!(c.speeds, LINK_SPEEDS_GBPS.to_vec());
        assert!(c.only_family.is_none());
        assert!(c.only_routing.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let c = parse(&[
            "--nodes",
            "256",
            "--seed",
            "9",
            "--family",
            "dragonfly",
            "--routing",
            "adaptive",
            "--speeds",
            "100,2000",
        ]);
        assert_eq!(c.nodes, 256);
        assert_eq!(c.seed, 9);
        assert_eq!(c.only_family, Some(TopologyFamily::Dragonfly));
        assert_eq!(c.only_routing, Some(RoutingKind::Adaptive));
        assert_eq!(c.speeds, vec![100, 2000]);
    }

    #[test]
    fn full_scale_flag() {
        assert_eq!(parse(&["--full-scale"]).nodes, 8192);
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&[]).threads, 1);
        assert_eq!(parse(&["--threads", "8"]).threads, 8);
        let seq = parse(&[]).sim();
        assert_eq!((seq.threads, seq.shards), (1, 1));
        let par = parse(&["--threads", "8"]).sim();
        assert_eq!((par.threads, par.shards, par.window), (8, 16, SimTime::MAX));
    }

    #[test]
    fn family_aliases() {
        assert_eq!(
            parse(&["--family", "fattree"]).only_family,
            Some(TopologyFamily::FatTree)
        );
        assert_eq!(
            parse(&["--family", "torus3d"]).only_family,
            Some(TopologyFamily::Torus)
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flag() {
        parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn rejects_missing_value() {
        parse(&["--nodes"]);
    }
}
