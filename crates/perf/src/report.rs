//! The all-workloads report (`report.json`), `--calibrate`, and
//! `--compare`.

use crate::json::{self, num, quote, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Exit code of a single-workload run that could not run on this
/// platform (the shm workloads where `shm_supported()` is false).
pub const EXIT_SKIPPED: i32 = 3;

/// Per-layer counts that are a pure function of the seed: two reports of
/// one commit and one seed must agree on them exactly.
const EXACT: [(&str, &str); 8] = [
    ("sim_sweep3d", "sim.events"),
    ("sim_sweep3d", "sim.sim_time_us"),
    ("sim_sweep3d", "sim.cross_events"),
    ("lossy_reliable", "transport_lossy.dropped"),
    ("lossy_reliable", "transport_lossy.duplicated"),
    ("lossy_reliable", "retry.retransmit_ratio"),
    ("bulk_large", "endpoint.bytes_copied_per_byte"),
    ("bulk_large", "transport_threaded.staged_bytes_per_byte"),
];

#[derive(Default)]
struct WorkloadRuns {
    skipped: Option<String>,
    info: Option<Value>,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    /// Failed operations of the traced run (0 when there was none).
    traced_failed: f64,
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
}

/// Run one workload in a fresh process; `Ok(None)` when it was skipped.
fn child(a: &Args, name: &str, seed: u64, trace: bool) -> Result<Option<(Value, Value)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    if a.allow_debug {
        cmd.arg("--allow-debug");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if out.status.code() == Some(EXIT_SKIPPED) {
        return Ok(None);
    }
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or(format!("{name} printed nothing"))?;
    let info = lines.next().ok_or(format!("{name} printed no stamp"))?;
    Ok(Some((json::parse(info)?, json::parse(result)?)))
}

fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Every workload, `a.runs` times, each run in a fresh process with its
/// own seed (`--seed` + run index); with `--traced`, one traced run per
/// workload as well. Writes `<out>/report.json` and prints it.
pub fn full(a: &Args) -> i32 {
    let mut table: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    let mut broken = false;
    for w in &WORKLOADS {
        let runs = table.entry(w.name).or_default();
        for run in 0..a.runs {
            eprintln!("perf_report: {} run {}/{}", w.name, run + 1, a.runs);
            match child(a, w.name, a.seed + run as u64, false) {
                Ok(Some((info, result))) => {
                    runs.info.get_or_insert(info);
                    runs.attempted.push(
                        result
                            .get("attempted")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0),
                    );
                    runs.failed
                        .push(result.get("failed").and_then(Value::as_f64).unwrap_or(0.0));
                    for (k, v) in metric_values(&result) {
                        runs.end_to_end.entry(k).or_default().push(v);
                    }
                }
                Ok(None) => {
                    runs.skipped = Some("unsupported on this platform".into());
                    break;
                }
                Err(e) => {
                    eprintln!("perf_report: {e}");
                    broken = true;
                    break;
                }
            }
        }
        if a.traced && runs.skipped.is_none() {
            eprintln!("perf_report: {} traced", w.name);
            match child(a, w.name, a.seed, true) {
                Ok(Some((_, result))) => {
                    // A failure that shows only with spans and telemetry
                    // on fails the report like any other.
                    runs.traced_failed =
                        result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
                    runs.per_layer = metric_values(&result).into_iter().collect()
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("perf_report: {e}");
                    broken = true;
                }
            }
        }
    }

    let mut s = format!(
        "{{\"schema\":\"rvma-perf-report-v1\",\"env\":{},\"runs\":{},\"workloads\":{{",
        crate::env::stamp_json(a.seed, a.seconds),
        a.runs
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r = &table[w.name];
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n{}:", quote(w.name)));
        if let Some(reason) = &r.skipped {
            s.push_str(&format!(
                "{{\"status\":\"skipped\",\"reason\":{}}}",
                quote(reason)
            ));
            continue;
        }
        let info = |k: &str| {
            r.info
                .as_ref()
                .and_then(|v| v.get(k))
                .map_or("null".to_string(), |v| match v {
                    Value::Num(n) => num(*n),
                    Value::Bool(b) => b.to_string(),
                    _ => "null".into(),
                })
        };
        let list = |xs: &[f64]| xs.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
        s.push_str(&format!(
            "{{\"status\":\"ok\",\"bound_only\":{},\"blocks\":{},\"block_seconds\":{},\
             \"setup_cycles\":{},\"attempted\":[{}],\"failed\":[{}],\"traced_failed\":{},\
             \"end_to_end\":{{",
            info("bound_only"),
            info("blocks"),
            info("block_seconds"),
            info("setup_cycles"),
            list(&r.attempted),
            list(&r.failed),
            num(r.traced_failed),
        ));
        let mut first = true;
        for m in &END_TO_END {
            let Some(vals) = r.end_to_end.get(m.name) else {
                continue;
            };
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{}:{{\"unit\":{},\"median\":{},\"spread\":{},\"values\":[{}]}}",
                quote(m.name),
                quote(m.unit),
                num(median(vals)),
                num(spread(vals)),
                list(vals)
            ));
        }
        s.push_str("},\"per_layer\":{");
        let mut first = true;
        for m in &PER_LAYER {
            let Some(v) = r.per_layer.get(m.name) else {
                continue;
            };
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{}:{{\"unit\":{},\"value\":{}}}",
                quote(m.name),
                quote(m.unit),
                num(*v)
            ));
        }
        s.push_str("}}");
    }
    s.push_str("\n}}\n");

    print_tables(a, &table);
    if let Err(e) =
        std::fs::create_dir_all(&a.out).and_then(|()| std::fs::write(a.out.join("report.json"), &s))
    {
        eprintln!("perf_report: write report.json: {e}");
        broken = true;
    } else {
        eprintln!("perf_report: wrote {}", a.out.join("report.json").display());
    }
    print!("{s}");
    let failed_ops = table
        .values()
        .any(|r| r.traced_failed > 0.0 || r.failed.iter().any(|f| *f > 0.0));
    i32::from(broken || failed_ops)
}

fn print_tables(a: &Args, table: &BTreeMap<&str, WorkloadRuns>) {
    eprintln!(
        "\n{:<16} {:<18} {:>14} {:<6} {:>9} {:>8}",
        "workload", "metric", "median", "unit", "spread", "bound"
    );
    for w in &WORKLOADS {
        let r = &table[w.name];
        if let Some(reason) = &r.skipped {
            eprintln!("{:<16} skipped: {reason}", w.name);
            continue;
        }
        for m in &END_TO_END {
            if let Some(vals) = r.end_to_end.get(m.name) {
                let sp = spread(vals);
                // A measured bound is at least twice the observed spread.
                let note = if vals.len() > 1 && sp * 2.0 > m.bound {
                    "  <- spread exceeds half the bound"
                } else {
                    ""
                };
                eprintln!(
                    "{:<16} {:<18} {:>14.6} {:<6} {:>8.2}% {:>7.0}%{note}",
                    w.name,
                    m.name,
                    median(vals),
                    m.unit,
                    sp * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    if a.traced {
        eprintln!("\nper-layer ledger (one traced run per workload; 0 = layer not entered)");
        eprint!("{:<46}", "metric");
        for w in &WORKLOADS {
            eprint!(" {:>13}", &w.name[..w.name.len().min(13)]);
        }
        eprintln!();
        for m in &PER_LAYER {
            eprint!("{:<38} {:<7}", m.name, m.unit);
            for w in &WORKLOADS {
                match table[w.name].per_layer.get(m.name) {
                    Some(v) if *v != 0.0 => eprint!(" {:>13.4}", v),
                    Some(_) => eprint!(" {:>13}", "."),
                    None => eprint!(" {:>13}", "-"),
                }
            }
            eprintln!();
        }
    }
}

fn values_of(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    Some(
        report
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    )
}

/// One row per workload x end-to-end metric: `improved`, `unchanged`,
/// `regressed`, or `unresolved` when the run-to-run spread of either
/// side exceeds the metric's bound (unless every run of one side beats
/// every run of the other). The bounds are [`END_TO_END`]'s, which the
/// self-test holds equal to `BENCHMARK.json`'s. Exit code 1 when anything
/// regressed, or when the two reports share a seed and disagree on a
/// count that is a pure function of it.
pub fn compare(before: &Path, after: &Path) -> i32 {
    let load = |p: &Path| -> Value {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
            .unwrap_or_else(|e| {
                eprintln!("perf_report: {}: {e}", p.display());
                std::process::exit(2);
            })
    };
    let (a, b) = (load(before), load(after));
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>13} {:>13} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "before", "after", "change", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) =
                (values_of(&a, w.name, m.name), values_of(&b, w.name, m.name))
            else {
                println!("{:<16} {:<18} missing from one report", w.name, m.name);
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (bound, lower) = (m.bound, m.better == "lower");
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = worse, whichever way the metric points.
            let worse = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let sp = spread(&va).max(spread(&vb));
            let fold = |xs: &[f64], f: fn(f64, f64) -> f64| xs.iter().copied().reduce(f);
            let b_all_better = if lower {
                fold(&vb, f64::max) < fold(&va, f64::min)
            } else {
                fold(&vb, f64::min) > fold(&va, f64::max)
            };
            let b_all_worse = if lower {
                fold(&vb, f64::min) > fold(&va, f64::max)
            } else {
                fold(&vb, f64::max) < fold(&va, f64::min)
            };
            let noisy = sp > bound;
            let verdict = if worse > bound {
                if noisy && !b_all_worse {
                    "unresolved"
                } else {
                    regressed = true;
                    "regressed"
                }
            } else if -worse > bound {
                if noisy && !b_all_better {
                    "unresolved"
                } else {
                    "improved"
                }
            } else if noisy {
                "unresolved"
            } else {
                "unchanged"
            };
            println!(
                "{:<16} {:<18} {:>13.6} {:>13.6} {:>+7.2}% {:>7.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                sp * 100.0,
                bound * 100.0
            );
        }
    }
    let layer = |r: &Value, w: &str, m: &str| -> Option<f64> {
        r.get("workloads")?
            .get(w)?
            .get("per_layer")?
            .get(m)?
            .get("value")?
            .as_f64()
    };
    let seeds_match =
        a.get("env").and_then(|e| e.get("seed")) == b.get("env").and_then(|e| e.get("seed"));
    let mut header = false;
    for (w, m) in EXACT {
        if let (Some(x), Some(y)) = (layer(&a, w, m), layer(&b, w, m)) {
            if !header {
                println!(
                    "\nexact counts (a pure function of the seed; seeds {})",
                    if seeds_match { "match" } else { "differ" }
                );
                header = true;
            }
            println!(
                "{w:<16} {m:<42} {x:>16} {y:>16}  {}",
                if x == y { "identical" } else { "differs" }
            );
            regressed |= seeds_match && x != y;
        }
    }
    i32::from(regressed)
}
