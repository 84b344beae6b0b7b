//! `perf_report` — the repo's benchmark: one command that runs eight
//! closed-loop workloads over the whole datapath and prints every metric
//! by name with its unit. See `crates/perf/README.md`.
//!
//! ```text
//! perf_report --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object of the benchmark contract (BENCHMARK.json).
//! perf_report [--traced] [--calibrate N] [--smoke]
//!     every workload, each in a fresh process (N times, with each
//!     metric's run-to-run spread); writes report.json.
//! perf_report --compare A.json B.json
//! ```
//! Common flags: `--seed`, `--seconds`, `--out <dir>`, `--allow-debug`.

mod env;
mod json;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, WORKLOADS};
use std::path::PathBuf;
use workloads::{Cfg, Outcome};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub traced: bool,
    pub smoke: bool,
    /// Runs of each workload: 1, or the N of `--calibrate N`.
    pub runs: usize,
    pub allow_debug: bool,
    pub out: PathBuf,
    pub compare: Option<(PathBuf, PathBuf)>,
}

fn usage(problem: &str) -> ! {
    eprintln!("perf_report: {problem}");
    eprintln!(
        "usage: perf_report --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      perf_report [--traced] [--calibrate N] [--smoke]\n\
         \x20      perf_report --compare A.json B.json\n\
         \x20      perf_report --print-benchmark-json\n\
         common: --seed <n> --seconds <s> --out <dir> --allow-debug\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

/// Default output directory: next to the binary, so inside the build
/// directory of whatever checkout built it and never in the source tree.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perf_report_out")))
        .unwrap_or_else(|| PathBuf::from("perf_report_out"))
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        traced: false,
        smoke: false,
        runs: 1,
        allow_debug: false,
        out: default_out(),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |what: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val("a workload name")),
            "--seed" => {
                a.seed = val("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed: not a whole number"))
            }
            "--seconds" => {
                a.seconds = val("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds: not a positive number"))
            }
            "--trace" => {
                a.trace = match val("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--calibrate" => {
                a.runs = val("a count")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--calibrate: not a positive count"))
            }
            "--allow-debug" => a.allow_debug = true,
            "--out" => a.out = PathBuf::from(val("a directory")),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(val("two report files")),
                    PathBuf::from(val("two report files")),
                ))
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    a
}

fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    use workloads::*;
    match name {
        "pingpong" => run::<pingpong::PingPong>(cfg),
        "stream_small" => run::<stream_small::StreamSmall>(cfg),
        "bulk_large" => run::<bulk_large::BulkLarge>(cfg),
        "shm_pingpong" => run::<shm::ShmPingPong>(cfg),
        "shm_bulk" => run::<shm::ShmBulk>(cfg),
        "cq_fanin" => run::<cq_fanin::CqFanin>(cfg),
        "lossy_reliable" => run::<lossy_reliable::LossyReliable>(cfg),
        "sim_sweep3d" => run::<sim_sweep3d::SimSweep3d>(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One workload in this process. stdout: an information line (the
/// environment stamp and how the run was blocked), then — last — the
/// contract's result object.
fn single(name: &str, a: &Args) -> i32 {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        usage(&format!("unknown workload {name}"));
    }
    let cfg = Cfg {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: a.out.clone(),
    };
    let out = match run_workload(name, &cfg) {
        Ok(out) => out,
        Err(e) if e.starts_with("skipped:") => {
            eprintln!("perf_report: {name} {e}");
            return report::EXIT_SKIPPED;
        }
        Err(e) => {
            eprintln!("perf_report: {name} failed: {e}");
            return 1;
        }
    };
    println!(
        "{{\"env\":{},\"workload\":{},\"blocks\":{},\"block_seconds\":{},\"setup_cycles\":{},\
         \"bound_only\":{}}}",
        env::stamp_json(a.seed, a.seconds),
        json::quote(name),
        out.lanes[0].blocks(),
        json::num(out.block_secs),
        out.setup_cycles,
        out.bound_only,
    );
    let metrics: Vec<(&str, f64)> = if a.trace {
        out.layers.iter().collect()
    } else {
        // A workload with fewer than three lanes repeats its last one.
        let lane = |i: usize| &out.lanes[i.min(out.lanes.len() - 1)];
        vec![
            ("setup_s", out.setup_s),
            ("op_p50_us", lane(0).p50_us()),
            ("op_p99_us", lane(0).p99_us()),
            ("op_lane1_p50_us", lane(1).p50_us()),
            ("op_lane2_p50_us", lane(2).p50_us()),
        ]
    };
    debug_assert!(a.trace || metrics.len() == END_TO_END.len());
    for (k, v) in &metrics {
        eprintln!("  {k:<48} {v:>16.6} {}", metrics::unit_of(k));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(k),
                json::num(*v),
                json::quote(metrics::unit_of(k))
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(",")
    );
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--shm-child") {
        std::process::exit(workloads::shm::child_main(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return;
    }
    let a = parse_args(&argv);
    if let Some((before, after)) = &a.compare {
        std::process::exit(report::compare(before, after));
    }
    if env::debug_build() && !a.allow_debug {
        eprintln!(
            "perf_report: this is a debug build; its numbers mean nothing. Build with \
             --release, or pass --allow-debug to run anyway."
        );
        std::process::exit(2);
    }
    let code = match &a.workload {
        Some(name) => single(name, &a),
        None => report::full(&a),
    };
    std::process::exit(code);
}
