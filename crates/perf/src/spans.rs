//! Source (a) of the per-layer ledger: spans recorded by the benchmark
//! around each public call. A span is named after the per-layer metric it
//! feeds, so the ledger row and the trace slice share one name. Spans are
//! kept in memory and written as a Chrome trace when the run ends.

use rvma_core::telemetry::Event;
use std::collections::BTreeMap;
use std::time::Instant;

/// Raw spans kept per name for the trace file; every span still feeds the
/// duration statistics. (A 100k-op block would otherwise write ~30 MB.)
const KEEP_PER_NAME: usize = 2000;

struct Raw {
    name: &'static str,
    parent: Option<&'static str>,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Spans {
    base: Instant,
    /// `rvma_core::telemetry::now_ns()` at `base`, so benchmark spans and
    /// the program's own telemetry events share one timeline.
    base_tel_ns: u64,
    /// Per name, each sample's whole duration and the calls it covers.
    durs: BTreeMap<&'static str, Vec<(f64, u64)>>,
    kept: Vec<Raw>,
    events: Vec<Event>,
}

impl Spans {
    pub fn new() -> Self {
        let base_tel_ns = rvma_core::telemetry::now_ns();
        Spans {
            base: Instant::now(),
            base_tel_ns,
            durs: BTreeMap::new(),
            kept: Vec::new(),
            events: Vec::new(),
        }
    }

    /// One span of operation `op`. `parent` names the enclosing span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(name, parent, op, start, end, 1);
    }

    /// A span timed over `n` back-to-back calls (one clock read shared by
    /// them all): one statistic sample, one trace slice covering them.
    pub fn record_amortized(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        n: u64,
    ) {
        self.push(name, None, op, start, end, n.max(1));
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
        calls: u64,
    ) {
        let dur = end.duration_since(start).as_nanos() as u64;
        let durs = self.durs.entry(name).or_default();
        durs.push((dur as f64, calls));
        if durs.len() <= KEEP_PER_NAME {
            self.kept.push(Raw {
                name,
                parent,
                op,
                start_ns: self.base_tel_ns + start.duration_since(self.base).as_nanos() as u64,
                dur_ns: dur,
            });
        }
    }

    /// In-program telemetry events to draw on the same timeline.
    pub fn add_events(&mut self, events: &[Event]) {
        let room = (8 * KEEP_PER_NAME).saturating_sub(self.events.len());
        self.events.extend(events.iter().take(room).copied());
    }

    /// Median duration of one call of `name`, or `None` when the workload
    /// never entered that layer. Each sample holds one clock read, which
    /// is taken off before the sample is divided among its calls.
    pub fn p50_ns(&self, name: &str, clock_ns: f64) -> Option<f64> {
        let per_call: Vec<f64> = self
            .durs
            .get(name)?
            .iter()
            .map(|(dur, calls)| (dur - clock_ns).max(0.0) / *calls as f64)
            .collect();
        Some(crate::stats::median(&per_call))
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.durs.keys().copied()
    }

    /// Chrome `trace_event` JSON: benchmark spans as duration slices
    /// (pid 1; children one track below their parent), in-program
    /// telemetry as instant events (pid 2), like
    /// `TelemetrySnapshot::to_chrome_trace`.
    pub fn to_chrome_trace(&self) -> String {
        let micros = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for r in &self.kept {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perf_report\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                r.name,
                micros(r.start_ns),
                micros(r.dur_ns),
                if r.parent.is_some() { 2 } else { 1 },
                r.op,
                r.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            ));
        }
        for ev in &self.events {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"rvma\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":2,\"tid\":1,\"args\":{{\"key\":{},\"id\":{},\"arg\":{}}}}}",
                ev.kind.as_str(),
                micros(ev.ts_ns),
                ev.key,
                ev.id,
                ev.arg
            ));
        }
        s.push_str("]}");
        s
    }
}
