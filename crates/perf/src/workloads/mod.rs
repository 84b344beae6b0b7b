//! The eight workloads and the one driver that runs any of them.
//!
//! A workload is a closed loop over the program's public functions. It
//! provides set-up, one timed *block* of one *lane*, and a tear-down that
//! checks the exact-count invariants and reads the program's counters.
//! [`run`] supplies everything else: [`SEGMENTS`] fresh instances per run,
//! set-up/tear-down cycles for `setup_s` between them, an untimed warm-up
//! of every lane, [`MIN_BLOCKS`] timed blocks dealt to the lanes in turn
//! and folded into the end-to-end metrics (see [`LaneStats`] for how),
//! and — in a traced run — the floor probes, an untraced pass over every
//! lane, a pass with spans and in-program telemetry on, and the trace
//! file.

pub mod bulk_large;
pub mod cq_fanin;
pub mod lossy_reliable;
pub mod pingpong;
pub mod shm;
pub mod sim_sweep3d;
pub mod stream_small;

use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::{midmean, LaneStats};
use rvma_core::telemetry::Span;
use rvma_core::{NodeAddr, TelemetrySnapshot};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed blocks of an untraced run, shared equally by the workload's
/// lanes (at most three, so never fewer than ten each); `--seconds` sets
/// their length, not their number (`--smoke` alone runs one per lane).
pub const MIN_BLOCKS: usize = 30;
/// Fresh instances of the workload an untraced run spreads its blocks
/// over (one in a `--smoke` run).
pub const SEGMENTS: usize = 5;
/// Timed blocks per lane in each pass of a traced run.
pub const TRACED_BLOCKS: usize = 3;
/// Full set-up/tear-down cycles behind `setup_s`; cheap set-ups run more
/// (up to [`MAX_SETUP_CYCLES`], [`SETUP_GAP`] at a time) so their mean
/// repeats.
pub const MIN_SETUP_CYCLES: usize = 5;
const MAX_SETUP_CYCLES: usize = 1001;
/// Time a cheap set-up may spend cycling at one segment boundary.
const SETUP_GAP: Duration = Duration::from_millis(60);

pub const SERVER: NodeAddr = NodeAddr::node(0);
pub const CLIENT: NodeAddr = NodeAddr::node(1);

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One short block per lane, one set-up cycle: the self-test's mode.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// One timed block of one lane.
#[derive(Default)]
pub struct Block {
    /// Per-operation time samples, ns (one per op on depth-1 lanes, one
    /// per timed step divided by the step's ops on pipelined lanes).
    pub samples_ns: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Sum of the block's timed regions, s. Correctness checks run
    /// between timed regions and are not in it.
    pub busy_s: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// One to three lanes, all measured in every run. Lane 0 is the
    /// primary lane (`op_p50_us`, `op_p99_us`); lanes 1 and 2 are
    /// `op_lane1_p50_us` and `op_lane2_p50_us`.
    const LANES: &'static [&'static str];
    /// Threads runnable in the timed region (load threads plus the
    /// program's own); more than the host has cores makes the run
    /// `bound_only`.
    const THREADS: usize;

    /// Everything before the first timed operation is possible. Dropping
    /// the value is the tear-down.
    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String>;

    /// Run `lane` for about `dur`. With `spans`, also record a span
    /// around each public call.
    fn block(&mut self, lane: usize, dur: Duration, spans: Option<&mut Spans>) -> Block;

    /// Quiesce, run the exact-count checks, export the program's counters
    /// into `layers`. Returns operations found failed only now.
    fn finish(self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64;

    /// Per-lane numbers of the untraced pass of a traced run.
    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers);

    /// In-program spans that tile the primary lane's operation without
    /// overlap, for `ledger.<workload>.explained_pct` (empty: no ledger).
    fn ledger_spans() -> &'static [Span] {
        &[]
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// One per lane, in `LANES` order.
    pub lanes: Vec<LaneStats>,
    pub layers: Layers,
    pub setup_cycles: usize,
    pub block_secs: f64,
    pub bound_only: bool,
}

/// Operations attempted and failed so far, over every block and check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Set-up/tear-down cycles behind `setup_s`. They are spread over the
/// run — a share at each segment boundary, when no instance is alive —
/// rather than timed in one burst: a burst sits inside one of the host's
/// fast or slow phases (see [`LaneStats`]) and the number follows the
/// phase (`pingpong`'s read 83 us in two sets of ten runs and 105 us in
/// a third).
struct SetupCycles {
    seconds: Vec<f64>,
    min: usize,
    max: usize,
}

impl SetupCycles {
    fn new(cfg: &Cfg) -> Self {
        let (min, max) = if cfg.smoke {
            (1, 1)
        } else {
            (MIN_SETUP_CYCLES, MAX_SETUP_CYCLES)
        };
        SetupCycles {
            seconds: Vec::new(),
            min,
            max,
        }
    }

    /// Run the cycles due at boundary `done` of `total`: the pro-rata
    /// share of `min`, plus — for cheap set-ups — as many more as fit in
    /// [`SETUP_GAP`], up to the pro-rata share of `max`.
    fn at_boundary<W: Workload>(
        &mut self,
        cfg: &Cfg,
        done: usize,
        total: usize,
    ) -> Result<(), String> {
        let (due, cap) = (
            (self.min * done).div_ceil(total),
            (self.max * done).div_ceil(total),
        );
        let began = Instant::now();
        let mut last = 0.0;
        while self.seconds.len() < due
            || (self.seconds.len() < cap
                && began.elapsed().as_secs_f64() + last < SETUP_GAP.as_secs_f64())
        {
            let t0 = Instant::now();
            drop(W::setup(cfg, false)?);
            last = t0.elapsed().as_secs_f64();
            self.seconds.push(last);
        }
        Ok(())
    }
}

pub fn run<W: Workload>(cfg: &Cfg) -> Result<Outcome, String> {
    let mut setups = SetupCycles::new(cfg);
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    let (lanes, block) = if cfg.trace {
        // A traced run reports no `setup_s`; one burst will do.
        setups.at_boundary::<W>(cfg, 1, 1)?;
        traced::<W>(cfg, &mut tally, &mut layers)?
    } else {
        untraced::<W>(cfg, &mut tally, &mut layers, &mut setups)?
    };
    if lanes.iter().any(|l| l.blocks() == 0) {
        return Err(format!("{}: a lane completed no timed block", W::NAME));
    }
    let attempted = tally.attempted.max(1);
    let failed = tally.failed.min(attempted);
    layers.set("failed_op_ratio", failed as f64 / attempted as f64);
    // A workload with a child process has already put the child's peak
    // there.
    layers.set(
        "mem.peak_rss_mib",
        crate::env::peak_rss_mib() + layers.get("mem.peak_rss_mib"),
    );
    Ok(Outcome {
        attempted,
        failed,
        setup_s: midmean(&setups.seconds),
        lanes,
        layers,
        setup_cycles: setups.seconds.len(),
        block_secs: block.as_secs_f64(),
        bound_only: W::THREADS > crate::env::cores(),
    })
}

/// The untraced run behind the end-to-end metrics, in [`SEGMENTS`]
/// segments. Each segment sets the workload up afresh, warms every lane
/// (half a block between them), deals its share of the timed blocks to
/// the lanes in turn, and tears the instance down with every check; the
/// set-up cycles run in between. Five instances rather than one also
/// means the numbers do not hang on one instance's heap layout or thread
/// placement.
fn untraced<W: Workload>(
    cfg: &Cfg,
    tally: &mut Tally,
    layers: &mut Layers,
    setups: &mut SetupCycles,
) -> Result<(Vec<LaneStats>, Duration), String> {
    let lanes = W::LANES.len();
    let (segments, per_segment) = if cfg.smoke {
        (1, lanes)
    } else {
        (SEGMENTS, MIN_BLOCKS / SEGMENTS)
    };
    assert_eq!(per_segment % lanes, 0, "lanes get equal blocks");
    let segment = Duration::from_secs_f64(cfg.seconds / segments as f64);
    let block = segment * 2 / (2 * per_segment + 1) as u32;
    let mut stats: Vec<LaneStats> = (0..lanes).map(|_| LaneStats::default()).collect();
    for done in 1..=segments {
        setups.at_boundary::<W>(cfg, done, segments)?;
        let mut w = W::setup(cfg, false)?;
        for lane in 0..lanes {
            let warm = w.block(lane, block / (2 * lanes) as u32, None);
            tally.attempted += warm.ops;
            tally.failed += warm.failed;
        }
        for i in 0..per_segment {
            let mut b = w.block(i % lanes, block, None);
            tally.attempted += b.ops;
            if b.samples_ns.is_empty() {
                // The workload can no longer make progress (dead peer,
                // stalled queue); what it could not attempt is failed.
                tally.failed += b.failed.max(1);
                break;
            }
            stats[i % lanes].push(&mut b);
        }
        tally.failed += w.finish(layers, &mut None);
    }
    tally.failed += stats.iter().map(|s| s.failed).sum::<u64>();
    Ok((stats, block))
}

/// The traced run: floor probes; every lane untraced (the per-lane
/// numbers); every lane again with spans kept and
/// `EndpointConfig::telemetry` on; then the ledger and the trace file.
fn traced<W: Workload>(
    cfg: &Cfg,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Result<(Vec<LaneStats>, Duration), String> {
    let t0 = Instant::now();
    crate::layers::probe_all(layers, cfg.smoke);
    let clock_ns = layers.get("floor.clock_ns");
    let lanes = W::LANES.len();
    let blocks = if cfg.smoke { 1 } else { TRACED_BLOCKS };
    // Two passes of (one warm-up + `blocks`) per lane share what the
    // probes left of `--seconds`.
    let left = (cfg.seconds - t0.elapsed().as_secs_f64()).max(cfg.seconds * 0.5);
    let block = Duration::from_secs_f64(left / (2 * lanes * (blocks + 1)) as f64);

    let mut pass = |telemetry: bool,
                    mut spans: Option<&mut Spans>,
                    layers: &mut Layers|
     -> Result<(Vec<LaneStats>, Option<TelemetrySnapshot>), String> {
        let mut w = W::setup(cfg, telemetry)?;
        let mut stats: Vec<LaneStats> = (0..lanes).map(|_| LaneStats::default()).collect();
        for round in 0..=blocks {
            for (lane, st) in stats.iter_mut().enumerate() {
                // Round 0 warms the lane; its spans are kept (the trace
                // shows the cold start) but its numbers are not.
                let mut b = w.block(lane, block, spans.as_deref_mut());
                tally.attempted += b.ops;
                if round == 0 {
                    tally.failed += b.failed;
                } else {
                    st.push(&mut b);
                }
            }
        }
        tally.failed += stats.iter().map(|s| s.failed).sum::<u64>();
        let mut tel = None;
        tally.failed += w.finish(layers, &mut tel);
        Ok((stats, tel))
    };

    let (plain, _) = pass(false, None, layers)?;
    W::lane_metrics(&plain, layers);
    let mut spans = Spans::new();
    let (with_tel, tel) = pass(true, Some(&mut spans), layers)?;

    for name in spans.names().collect::<Vec<_>>() {
        if crate::metrics::PER_LAYER.iter().any(|m| m.name == name) {
            layers.set(name, spans.p50_ns(name, clock_ns).unwrap_or(0.0));
        }
    }
    if let (Some(snap), true) = (&tel, plain[0].blocks() > 0 && with_tel[0].blocks() > 0) {
        // The traced primary lane reads the clock once more inside each
        // sample than the untraced one does.
        let (a, b) = (plain[0].p50_us(), with_tel[0].p50_us() - clock_ns / 1e3);
        layers.set("telemetry.on_overhead_pct", (b - a) / a * 100.0);
        for (span, name) in [
            (Span::SubmitToEnqueue, "telemetry.submit_to_enqueue_p50_ns"),
            (Span::SubmitToDeliver, "telemetry.submit_to_deliver_p50_ns"),
            (
                Span::CompleteToHandoff,
                "telemetry.complete_to_handoff_p50_ns",
            ),
        ] {
            if snap.span(span).count() > 0 {
                layers.set(name, snap.span(span).quantile(0.5) as f64);
            }
        }
        layers.set("telemetry.dropped", snap.dropped as f64);
        spans.add_events(&snap.events);
        if !W::ledger_spans().is_empty() {
            let explained: f64 = W::ledger_spans()
                .iter()
                .filter(|s| snap.span(**s).count() > 0)
                .map(|s| snap.span(*s).quantile(0.5) as f64)
                .sum();
            layers.set(
                &format!("ledger.{}.explained_pct", W::NAME),
                explained / (with_tel[0].p50_us() * 1e3) * 100.0,
            );
        }
    }

    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!("trace_{}.json", W::NAME));
    std::fs::write(&path, spans.to_chrome_trace())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perf_report: wrote {}", path.display());
    Ok((plain, block))
}

/// SplitMix64: seeds payload patterns and derived seeds. The program
/// never sees the seed, only bytes generated from it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(len);
        v
    }
}

/// Payloads carry their operation index in the first 8 bytes, so a buffer
/// that kept an earlier operation's bytes fails the byte-exact check.
pub fn stamp(payload: &mut [u8], index: u64) {
    payload[..8].copy_from_slice(&index.to_le_bytes());
}

/// `got` must be `pattern` with `index` stamped over its first 8 bytes.
pub fn stamped_eq(got: &[u8], pattern: &[u8], index: u64) -> bool {
    got.len() == pattern.len() && got[..8] == index.to_le_bytes() && got[8..] == pattern[8..]
}

/// A zeroed buffer with every page touched, so the first epoch's gather
/// measures copies, not first-touch faults.
pub fn prefaulted(len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    for page in buf.chunks_mut(4096) {
        page[0] = std::hint::black_box(0);
    }
    buf
}

/// Receiver-side counters every in-process workload exports (source c).
pub fn export_endpoint(layers: &mut Layers, st: &rvma_core::StatsSnapshot) {
    layers.set("lut.hits", st.lut_hits as f64);
    layers.set("lut.misses", st.lut_misses as f64);
    layers.set("endpoint.fragments_accepted", st.fragments_accepted as f64);
    layers.set(
        "endpoint.bytes_copied_per_byte",
        st.bytes_copied as f64 / st.bytes_accepted.max(1) as f64,
    );
    layers.set("endpoint.epochs_completed", st.epochs_completed as f64);
    layers.set("endpoint.nacks", st.nacks as f64);
    layers.set("endpoint.duplicates_dropped", st.duplicates_dropped as f64);
    layers.set("ring.full_stalls", st.full_stalls as f64);
    layers.set("ring.park_wakeups", st.park_wakeups as f64);
    layers.set("ring.max_depth", st.max_depth as f64);
    layers.set("notify.wakes", st.notify_wakes as f64);
    layers.set("notify.spurious_polls", st.spurious_polls as f64);
}

/// The fabric the four threaded-backend workloads share: one network
/// with one wire worker, zero wire latency, in-order delivery, one
/// endpoint and one initiator.
pub struct Threaded {
    pub net: rvma_core::AsyncNetwork,
    pub server: std::sync::Arc<rvma_core::RvmaEndpoint>,
    pub client: rvma_core::AsyncInitiator,
}

impl Threaded {
    pub fn new(config: &rvma_core::EndpointConfig) -> Self {
        let net = rvma_core::AsyncNetwork::for_endpoint_config(
            rvma_core::DEFAULT_MTU,
            rvma_core::DeliveryOrder::InOrder,
            Duration::ZERO,
            config,
        );
        let server = net.add_endpoint(SERVER);
        let client = net.initiator(CLIENT);
        Threaded {
            net,
            server,
            client,
        }
    }

    /// Delivery barrier; returns the NACKs collected so far (each is a
    /// failed operation: no workload provokes one).
    pub fn quiesce(&self) -> u64 {
        self.net.quiesce();
        self.client.take_nacks().len() as u64
    }

    /// Export both sides' counters (source c) and the telemetry snapshot;
    /// returns the receiver's counters for the workload's own checks.
    pub fn export(
        &self,
        layers: &mut Layers,
        tel: &mut Option<TelemetrySnapshot>,
    ) -> rvma_core::StatsSnapshot {
        let st = self.server.stats();
        export_endpoint(layers, &st);
        layers.set(
            "transport_threaded.route_hit_rate",
            self.client.route_stats().hit_rate(),
        );
        layers.set(
            "transport_threaded.staged_bytes_per_byte",
            self.client.staged_bytes() as f64 / st.bytes_accepted.max(1) as f64,
        );
        layers.set("pool.payload_hit_rate", self.client.pool_stats().hit_rate());
        *tel = self.net.telemetry().map(|t| t.snapshot());
        st
    }
}
