//! The environment stamp every report carries, and the guards that keep a
//! number from being read out of context.

use crate::json::{num, quote};
use crate::workloads::{MIN_BLOCKS, MIN_SETUP_CYCLES, TRACED_BLOCKS};
use rvma_core::{DEFAULT_MTU, DEFAULT_WIRE_IDLE_SPINS, DEFAULT_WIRE_IDLE_YIELDS};

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn debug_build() -> bool {
    cfg!(debug_assertions)
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where `/proc` is
/// not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout (the
/// contract's driver runs the benchmark in one).
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The stamp as a JSON object.
pub fn stamp_json(seed: u64, seconds: f64) -> String {
    let cores = cores();
    // `transport_threaded` treats both idle budgets as 0 on a one-CPU
    // host (an idle-spinning worker would hold the producer's core).
    let (spins, yields) = if cores > 1 {
        (DEFAULT_WIRE_IDLE_SPINS, DEFAULT_WIRE_IDLE_YIELDS)
    } else {
        (0, 0)
    };
    format!(
        "{{\"git_sha\":{},\"available_parallelism\":{cores},\"profile\":{},\"seed\":{seed},\
         \"seconds\":{},\"min_blocks\":{MIN_BLOCKS},\"traced_blocks\":{TRACED_BLOCKS},\
         \"min_setup_cycles\":{MIN_SETUP_CYCLES},\"mtu\":{DEFAULT_MTU},\
         \"one_cpu_rule_zeroed_idle_budgets\":{},\"wire_idle_spins\":{spins},\
         \"wire_idle_yields\":{yields},\"shm_supported\":{}}}",
        quote(&git_sha()),
        quote(if debug_build() { "debug" } else { "release" }),
        num(seconds),
        cores <= 1,
        rvma_core::shm_supported(),
    )
}
