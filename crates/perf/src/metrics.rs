//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger. `BENCHMARK.json` at the
//! repo root is `perf_report --print-benchmark-json`; the self-test fails
//! when the two drift apart.

use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "pingpong",
        why: "threaded backend, one 64 B put at depth 1: the wake/notify chain does the work, payload copy almost none",
    },
    WorkloadDef {
        name: "stream_small",
        why: "64 B puts streamed against ring backpressure: per-message submit and deliver cost, one wake per 65536 puts",
    },
    WorkloadDef {
        name: "bulk_large",
        why: "1 MiB zero-copy puts into 64 MiB epochs: the receiver gather and the eager/rendezvous lane choice do all the work",
    },
    WorkloadDef {
        name: "shm_pingpong",
        why: "cross-process 64 B put to delivery ack: request ring, doorbell futex and future wake, whose tail is invisible in-process",
    },
    WorkloadDef {
        name: "shm_bulk",
        why: "cross-process 1 MiB puts from registered extents: buddy allocator, RTS rendezvous and extent release",
    },
    WorkloadDef {
        name: "cq_fanin",
        why: "one completion queue over 4096 outstanding one-op epochs: completion discovery, the blocking wait path unused",
    },
    WorkloadDef {
        name: "lossy_reliable",
        why: "seeded drop, duplication and reorder under 64 KiB reliable puts: threshold completion, retry and dedup, deterministic",
    },
    WorkloadDef {
        name: "sim_sweep3d",
        why: "the discrete-event engine on a 2048-node fat-tree Sweep3D: calendar queues and cross-shard event rings",
    },
];

/// Every workload reports all five (the contract's driver requires each
/// end-to-end metric on each workload). The unit *operation* and the
/// lanes are the workload's own and are defined in the README's workload
/// table; a workload with fewer than three lanes repeats its last lane
/// under the remaining names. Rates are per-layer numbers: a depth-1
/// lane's mean rate is set by its tail and did not repeat within a tenth
/// on `shm_pingpong`. Twice the worst spread measured on this host (two
/// sets of ten seeds; see the README) exceeds the contract's cap on every
/// metric, so each bound is the cap.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "op_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "op_lane1_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "op_lane2_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The per-layer ledger, layer = module name. Source of each number:
/// (a) a span `perf_report` records around one public call, (b) a floor
/// probe in `layers.rs`, (c) a counter the program exports. The last ten
/// are the per-lane numbers ISSUE 11 named as end-to-end metrics; each is
/// native to one to three workloads, so they live here (see the README).
pub const PER_LAYER: [MetricDef; 88] = [
    layer("transport_threaded.put_at_ns", "ns", "lower"),
    layer("transport_threaded.batch_put_ns", "ns", "lower"),
    layer("transport_threaded.batch_flush_ns", "ns", "lower"),
    layer("transport_threaded.put_bytes_at_ns", "ns", "lower"),
    layer("transport_threaded.route_hit_rate", "ratio", "higher"),
    layer("transport_threaded.staged_bytes_per_byte", "ratio", "lower"),
    layer("ring.push_pop_ns", "ns", "lower"),
    layer("ring.xthread_rtt_ns", "ns", "lower"),
    layer("ring.full_stalls", "count", "lower"),
    layer("ring.park_wakeups", "count", "lower"),
    layer("ring.max_depth", "count", "lower"),
    layer("pool.acquire_ns", "ns", "lower"),
    layer("pool.take_recycle_ns", "ns", "lower"),
    layer("pool.payload_hit_rate", "ratio", "higher"),
    layer("pool.buffer_hit_rate", "ratio", "higher"),
    layer("lut.lookup_1_ns", "ns", "lower"),
    layer("lut.lookup_4096_ns", "ns", "lower"),
    layer("lut.hits", "count", "higher"),
    layer("lut.misses", "count", "lower"),
    layer("endpoint.deliver_ns", "ns", "lower"),
    layer("endpoint.deliver_complete_ns", "ns", "lower"),
    layer("endpoint.deliver_gibps", "GiB/s", "higher"),
    layer("endpoint.fragments_accepted", "count", "higher"),
    layer("endpoint.bytes_copied_per_byte", "ratio", "lower"),
    layer("endpoint.epochs_completed", "count", "higher"),
    layer("endpoint.nacks", "count", "lower"),
    layer("endpoint.duplicates_dropped", "count", "lower"),
    layer("window.post_pooled_ns", "ns", "lower"),
    layer("window.post_pooled_async_ns", "ns", "lower"),
    layer("window.post_pooled_cq_ns", "ns", "lower"),
    layer("notify.wait_ns", "ns", "lower"),
    layer("notify.block_on_ns", "ns", "lower"),
    layer("notify.poll_ready_ns", "ns", "lower"),
    layer("notify.wakes", "count", "lower"),
    layer("notify.spurious_polls", "count", "lower"),
    layer("notify.rtt_p999_us", "us", "lower"),
    layer("cq.wait_batch_ns", "ns", "lower"),
    layer("cq.batch_p50", "count", "higher"),
    layer("cq.overflowed", "count", "lower"),
    layer("cq.wakes", "count", "lower"),
    layer("cq.empty_polls", "count", "lower"),
    layer("transport_shm.put_notify_ns", "ns", "lower"),
    layer("transport_shm.future_wait_ns", "ns", "lower"),
    layer("transport_shm.reserve_extent_ns", "ns", "lower"),
    layer("transport_shm.put_from_extent_ns", "ns", "lower"),
    layer("transport_shm.flush_ns", "ns", "lower"),
    layer("transport_shm.create_s", "s", "lower"),
    layer("transport_shm.connect_s", "s", "lower"),
    layer("transport_shm.wire_copied_per_byte", "ratio", "lower"),
    layer("transport_shm.eager_fallbacks", "count", "lower"),
    layer(
        "transport_shm.extents_in_flight_at_quiesce",
        "count",
        "lower",
    ),
    layer("transport_shm.staged_goodput_mibps", "MiB/s", "higher"),
    layer("shm.futex_rtt_ns", "ns", "lower"),
    layer("retry.put_ns", "ns", "lower"),
    layer("retry.retransmit_ratio", "ratio", "lower"),
    layer("retry.rounds_p50", "count", "lower"),
    layer("retry.dedup_check_ns", "ns", "lower"),
    layer("transport_lossy.dropped", "count", "lower"),
    layer("transport_lossy.duplicated", "count", "lower"),
    layer("transport_lossy.deferred", "count", "lower"),
    layer("telemetry.record_ns", "ns", "lower"),
    layer("telemetry.submit_to_enqueue_p50_ns", "ns", "lower"),
    layer("telemetry.submit_to_deliver_p50_ns", "ns", "lower"),
    layer("telemetry.complete_to_handoff_p50_ns", "ns", "lower"),
    layer("telemetry.dropped", "count", "lower"),
    layer("telemetry.on_overhead_pct", "%", "lower"),
    layer("sim.events", "count", "lower"),
    layer("sim.cross_events", "count", "lower"),
    layer("sim.mailbox_spills", "count", "lower"),
    layer("sim.sim_time_us", "us", "lower"),
    layer("sim.ns_per_event", "ns", "lower"),
    layer("sim.build_s", "s", "lower"),
    layer("floor.memcpy_gibps", "GiB/s", "higher"),
    layer("floor.memcpy_64b_ns", "ns", "lower"),
    layer("floor.clock_ns", "ns", "lower"),
    layer("mem.peak_rss_mib", "MiB", "lower"),
    layer("ledger.pingpong.explained_pct", "%", "higher"),
    layer("ledger.shm_pingpong.explained_pct", "%", "higher"),
    layer("put_rtt_p50_us", "us", "lower"),
    layer("put_rtt_p99_us", "us", "lower"),
    layer("put_rtt_async_p50_us", "us", "lower"),
    layer("put_rtt_frag_p50_us", "us", "lower"),
    layer("msg_rate_put_mps", "1e6/s", "higher"),
    layer("msg_rate_batch_mps", "1e6/s", "higher"),
    layer("goodput_mibps", "MiB/s", "higher"),
    layer("completions_mps", "1e6/s", "higher"),
    layer("sim_events_mps", "1e6/s", "higher"),
    layer("failed_op_ratio", "ratio", "lower"),
];

/// One traced run's per-layer numbers. Every name in [`PER_LAYER`] is
/// present; a layer the workload never entered reads 0.
pub struct Layers {
    vals: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            vals: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }

    /// Set a per-layer number. Panics on a name outside [`PER_LAYER`]:
    /// a typo must fail the self-test, not emit an unlisted metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .vals
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in PER_LAYER"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.vals[name]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.vals.iter().map(|(k, v)| (*k, *v))
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `BENCHMARK.json`, generated so the file and the binary cannot disagree.
pub fn benchmark_json() -> String {
    use crate::json::{num, quote};
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/perf/Cargo.toml\", \"--bin\", \"perf_report\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            quote(w.name),
            quote(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            num(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
