//! Self-test of the benchmark: `--smoke` runs every workload for one
//! short block, traced and untraced, and the output must be valid JSON
//! naming exactly the workloads and metrics `BENCHMARK.json` declares,
//! with no failed operation. All correctness checks (byte-exact buffers,
//! empty NACK lists, exact delivery counts, one copy per byte on the
//! zero-copy lanes, a reproducible `sim.events`) run inside the workloads
//! themselves and surface here as `failed`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_perf_report");

fn perf_report(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("run perf_report")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test output directory");
    dir
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name": "..."` values of one array of `BENCHMARK.json`. The file
/// is generated with one entry per line, so a line scan is enough.
fn declared(section: &str) -> BTreeSet<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            let rest = &l[l.find("\"name\": \"").expect("entry has a name") + 9..];
            rest[..rest.find('"').expect("name is quoted")].to_string()
        })
        .collect()
}

/// Keys of the JSON object that follows `"<field>":{` in `text`, at
/// nesting depth 1 (good enough for the flat objects perf_report emits).
fn keys_of(text: &str, field: &str) -> BTreeSet<String> {
    let open = text
        .find(&format!("\"{field}\":{{"))
        .unwrap_or_else(|| panic!("no {field} object in {text}"))
        + field.len()
        + 4;
    let (mut depth, mut keys, mut i) = (1usize, BTreeSet::new(), open);
    let bytes = text.as_bytes();
    while depth > 0 && i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'"' => {
                let end = i + 1 + text[i + 1..].find('"').expect("closing quote");
                if depth == 1 && bytes.get(end + 1) == Some(&b':') {
                    keys.insert(text[i + 1..end].to_string());
                }
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_what_the_binary_prints() {
    let out = perf_report(&["--print-benchmark-json"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), benchmark_json());
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in declared(section) {
            assert!(valid_name(&name), "bad {section} name {name:?}");
        }
    }
    assert_eq!(declared("workloads").len(), 8);
    assert!(declared("end_to_end").contains("setup_s"));
}

#[test]
fn smoke_report_names_exactly_what_benchmark_json_declares() {
    let dir = out_dir("smoke");
    let out = perf_report(&[
        "--smoke",
        "--traced",
        "--allow-debug",
        "--seconds",
        "0.4",
        "--seed",
        "7",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("report.json")).expect("report.json written"),
        stdout
    );
    assert!(stdout.contains("\"git_sha\":") && stdout.contains("\"available_parallelism\":"));

    // One line per workload, in declaration order.
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with('"') && l.contains("\"status\":"))
        .collect();
    let names: BTreeSet<String> = rows
        .iter()
        .map(|l| l[1..1 + l[1..].find('"').expect("quoted name")].to_string())
        .collect();
    assert_eq!(names, declared("workloads"));

    for row in rows {
        if row.contains("\"status\":\"skipped\"") {
            // Only the shm workloads may be skipped, and only where the
            // platform cannot run them.
            assert!(row.starts_with("\"shm_"), "unexpected skip: {row}");
            continue;
        }
        assert!(row.contains("\"failed\":[0]"), "failed operations: {row}");
        assert_eq!(keys_of(row, "end_to_end"), declared("end_to_end"), "{row}");
        assert_eq!(keys_of(row, "per_layer"), declared("per_layer"), "{row}");
        let name = &row[1..1 + row[1..].find('"').expect("quoted name")];
        let trace = dir.join(format!("trace_{name}.json"));
        let text =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
    }
    // No segment file outlives its run.
    let leaked: Vec<_> = std::fs::read_dir(&dir)
        .expect("read output directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".shm"))
        .collect();
    assert!(leaked.is_empty(), "leaked segment files: {leaked:?}");
}

#[test]
fn single_run_prints_the_contract_result_object_last() {
    let dir = out_dir("single");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perf_report(&[
            "--workload",
            "lossy_reliable",
            "--seed",
            "11",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--smoke",
            "--allow-debug",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        let top: BTreeSet<String> = keys_of(&format!("\"r\":{last}"), "r");
        let want: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
            .map(String::from)
            .into();
        assert_eq!(top, want, "{last}");
        assert!(last.starts_with("{\"correct\":true,"), "{last}");
        assert_eq!(keys_of(last, "metrics"), declared(section), "{last}");
    }
}

#[test]
fn the_fault_counters_are_a_pure_function_of_the_seed() {
    let dir = out_dir("exact");
    let counters = |seed: &str| -> Vec<String> {
        let out = perf_report(&[
            "--workload",
            "lossy_reliable",
            "--seed",
            seed,
            "--seconds",
            "0.3",
            "--trace",
            "1",
            "--smoke",
            "--allow-debug",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let last = stdout.lines().last().expect("a result line").to_string();
        ["transport_lossy.dropped", "retry.retransmit_ratio"]
            .iter()
            .map(|k| {
                let at = last.find(&format!("\"{k}\":")).expect("counter present");
                last[at..at + last[at..].find('}').expect("closed")].to_string()
            })
            .collect()
    };
    assert_eq!(counters("5"), counters("5"));
    assert_ne!(counters("5"), counters("6"));
}

#[test]
fn a_debug_build_refuses_to_report_unless_allowed() {
    let out = perf_report(&[
        "--workload",
        "lossy_reliable",
        "--smoke",
        "--seconds",
        "0.2",
    ]);
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
    let unknown = perf_report(&["--workload", "nonesuch", "--allow-debug"]);
    assert_eq!(unknown.status.code(), Some(2));
}

#[test]
fn compare_applies_the_bounds_and_names_all_four_verdicts() {
    let dir = out_dir("compare");
    let report_with = |p50: [f64; 3], p99: [f64; 3], setup: [f64; 3], events: u64| {
        let list = |v: [f64; 3]| format!("[{},{},{}]", v[0], v[1], v[2]);
        format!(
            "{{\"env\":{{\"seed\":1}},\"workloads\":{{\"pingpong\":{{\"end_to_end\":{{\
             \"setup_s\":{{\"values\":{}}},\"op_p50_us\":{{\"values\":{}}},\
             \"op_p99_us\":{{\"values\":{}}}}}}},\"sim_sweep3d\":{{\"per_layer\":{{\
             \"sim.events\":{{\"value\":{events}}}}}}}}}}}",
            list(setup),
            list(p50),
            list(p99)
        )
    };
    let report = |p50, p99, setup| report_with(p50, p99, setup, 700_000);
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(
        &a,
        report([1.00, 1.01, 0.99], [3.0, 3.0, 3.1], [0.010, 0.010, 0.010]),
    )
    .expect("write a");
    // p50 worse by 50 % and steady: regressed. p99 better by a third but
    // one run overlaps and the spread exceeds the bound: unresolved.
    // set-up within its bound: unchanged.
    std::fs::write(
        &b,
        report([1.50, 1.51, 1.49], [1.0, 2.0, 3.05], [0.011, 0.011, 0.011]),
    )
    .expect("write b");
    let run = |x: &Path, y: &Path| {
        let out = perf_report(&[
            "--compare",
            x.to_str().expect("utf-8"),
            y.to_str().expect("utf-8"),
        ]);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, table) = run(&a, &b);
    assert_eq!(code, Some(1), "{table}");
    let verdict = |metric: &str| {
        table
            .lines()
            .find(|l| l.starts_with("pingpong") && l.contains(metric))
            .and_then(|l| l.split_whitespace().last())
            .map(str::to_string)
    };
    assert_eq!(
        verdict("op_p50_us").as_deref(),
        Some("regressed"),
        "{table}"
    );
    assert_eq!(
        verdict("op_p99_us").as_deref(),
        Some("unresolved"),
        "{table}"
    );
    assert_eq!(verdict("setup_s").as_deref(), Some("unchanged"), "{table}");
    assert!(table.contains("identical"), "{table}");
    // Same seed, same timings, one event more: not the same program.
    let c = dir.join("c.json");
    std::fs::write(
        &c,
        report_with(
            [1.00, 1.01, 0.99],
            [3.0, 3.0, 3.1],
            [0.010, 0.010, 0.010],
            700_001,
        ),
    )
    .expect("write c");
    let (code, table) = run(&a, &c);
    assert_eq!(code, Some(1), "{table}");
    assert!(table.contains("differs"), "{table}");
    // The other way round the p50 change is an improvement.
    let (code, table) = run(&b, &a);
    assert_eq!(code, Some(0), "{table}");
    assert!(
        table
            .lines()
            .any(|l| l.contains("op_p50_us") && l.ends_with("improved")),
        "{table}"
    );
}
