//! The two cross-process workloads and the child role they share.
//!
//! The receiver — a [`ShmServer`] — is the program under test, running in
//! a child process: `perf_report` re-exec'd with `--shm-child`. The
//! parent is the initiator ([`ShmClient`]) and owns the clock.
//!
//! * `shm_pingpong` — 64 B `put_notify_at` → `block_on(PutFuture)` at
//!   depth 1: request ring → doorbell/futex → delivery → `RSP_PUT_DONE`
//!   → future wake. Its p99 is ~20x its p50 — the futex park path, which
//!   no in-process workload can see.
//! * `shm_bulk` — 1 MiB puts from a ring of registered extents
//!   (`reserve_extent` + `put_from_extent`), burst then `flush`, 32 MiB
//!   bulk region: buddy allocator, RTS rendezvous, extent release and the
//!   one-copy claim. A second lane stages the same puts through `put_at`.
//!   The receiver re-posts its 64 MiB epoch buffers from its main thread;
//!   the initiator claims a credit per epoch (outside the clock), so a
//!   late re-post delays it instead of costing it NACKs.
//!
//! Child and segment hygiene: the child bounds its own lifetime; a parent
//! watchdog kills and reaps a child that outlives twice the expected run
//! (a dead server then fails the parent's calls, which are counted as
//! failed operations); and the parent removes the segment file on every
//! exit path, including unwinding from a panic, in case the child could
//! not.

use super::bulk_large::{EPOCH_BYTES, FULL_CHECK_EVERY, MSG as BULK_MSG, PUTS_PER_EPOCH};
use super::{prefaulted, stamp, stamped_eq, Block, Cfg, Rng, Workload, CLIENT, SERVER};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::LaneStats;
use rvma_core::telemetry::Span;
use rvma_core::{
    wait_any_timeout, BulkExtent, EndpointConfig, Notification, ShmClient, ShmServer, Telemetry,
    TelemetrySnapshot, Threshold, VirtAddr, DEFAULT_MTU,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DATA: VirtAddr = VirtAddr(1);
const READY: VirtAddr = VirtAddr(2);
const STOP: VirtAddr = VirtAddr(3);
/// The bulk receiver's credit mailbox: one one-op epoch is posted for
/// every data buffer posted, and the initiator claims one (a 1-byte put
/// that must not be NACKed) before it starts an epoch's puts.
const CREDIT: VirtAddr = VirtAddr(4);
/// 64 MiB data buffers the bulk receiver keeps in rotation.
const BULK_BUFFERS: usize = 4;
const SMALL: usize = 64;
/// Puts per op-threshold epoch of the ping-pong receiver: it wakes once
/// per 65 536 puts, so its main thread stays out of the measured chain.
const PING_EPOCH_OPS: u64 = 65_536;
const BULK_REGION: usize = 32 << 20;
/// Registered extents in the ring (8 MiB in flight, like `bulk_large`).
const RING: usize = 8;

fn config(bulk: bool, telemetry: bool) -> EndpointConfig {
    let base = EndpointConfig {
        telemetry,
        ..EndpointConfig::default()
    };
    if bulk {
        EndpointConfig {
            shm_bulk_bytes: BULK_REGION,
            // The 64 MiB buffers are handed back and re-posted.
            retain_epochs: 0,
            ..base
        }
    } else {
        base
    }
}

/// How long either process lets the other live: twice the expected run.
fn lifetime(seconds: f64) -> Duration {
    Duration::from_secs_f64(2.0 * seconds + 20.0)
}

// ------------------------------------------------------------------ child

/// Child role: `--shm-child <pingpong|bulk> <path> <seed> <seconds>
/// <telemetry>`. Creates the segment, posts the data mailbox, then the
/// ready-probe and stop mailboxes; re-posts and checks each completed
/// epoch; on stop prints its counters as `key=value` lines.
pub fn child_main(args: &[String]) -> i32 {
    let [role, path, seed, seconds, telemetry] = args else {
        eprintln!("perf_report --shm-child: expected 5 arguments");
        return 2;
    };
    let bulk = role == "bulk";
    let path = PathBuf::from(path);
    let seed: u64 = seed.parse().unwrap_or(0);
    let limit = Instant::now() + lifetime(seconds.parse().unwrap_or(10.0));

    let t0 = Instant::now();
    let server = match ShmServer::create(&path, DEFAULT_MTU, config(bulk, telemetry == "1")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_report --shm-child: {e}");
            return 2;
        }
    };
    println!("created {}", t0.elapsed().as_secs_f64());

    let ep = server.add_endpoint(SERVER);
    let (threshold, len) = if bulk {
        (Threshold::bytes(EPOCH_BYTES as u64), EPOCH_BYTES)
    } else {
        (Threshold::ops(PING_EPOCH_OPS), SMALL)
    };
    let data = ep.init_window(DATA, threshold).expect("data window");
    let progress = data.progress();
    // The bulk receiver re-posts from its main thread while the server
    // thread fills the next epoch (~10 ms). Four buffers in rotation give
    // it three epochs of slack, and credits make the initiator wait
    // rather than overrun when even that is not enough (a main thread
    // descheduled for 30 ms turned up once in fifty runs): RVMA's
    // receiver-managed buffers, with the flow control spelled out.
    let mut queued: VecDeque<Notification> = (0..if bulk { BULK_BUFFERS } else { 2 })
        .map(|_| data.post_buffer(prefaulted(len)).expect("post"))
        .collect();
    let credit = ep
        .init_window(CREDIT, Threshold::ops(1))
        .expect("credit window");
    // The credit's own completion is of no interest to the receiver.
    let grant = || drop(credit.post_buffer(vec![0u8; 8]).expect("credit post"));
    if bulk {
        (0..BULK_BUFFERS).for_each(|_| grant());
    }
    let stop = ep
        .init_window(STOP, Threshold::ops(1))
        .expect("stop window");
    let stop_note = stop.post_buffer(vec![0u8; 8]).expect("stop post");
    // Posted last: a probe that lands proves every mailbox is live.
    let ready = ep
        .init_window(READY, Threshold::ops(1))
        .expect("ready window");
    let _ready_note = ready.post_buffer(vec![0u8; 8]).expect("ready post");

    let pattern = Rng(seed).bytes(if bulk { BULK_MSG } else { SMALL });
    let mut watch = vec![queued.pop_front().expect("posted above"), stop_note];
    let (mut epochs, mut mismatched) = (0u64, 0u64);
    let stopped = loop {
        match wait_any_timeout(&mut watch, Duration::from_millis(200)) {
            Some((0, buf)) => {
                let ok = if bulk {
                    buf.len() == EPOCH_BYTES
                        && buf.data().chunks_exact(BULK_MSG).enumerate().all(|(j, c)| {
                            let index = epochs * PUTS_PER_EPOCH as u64 + j as u64;
                            if epochs.is_multiple_of(FULL_CHECK_EVERY) {
                                stamped_eq(c, &pattern, index)
                            } else {
                                c[..8] == index.to_le_bytes()
                            }
                        })
                } else {
                    stamped_eq(buf.data(), &pattern, (epochs + 1) * PING_EPOCH_OPS)
                };
                mismatched += u64::from(!ok);
                epochs += 1;
                let recycled = buf.try_into_vec().unwrap_or_else(|_| prefaulted(len));
                queued.push_back(data.post_buffer(recycled).expect("repost"));
                if bulk {
                    grant();
                }
                watch[0] = queued.pop_front().expect("one queued");
            }
            Some(_) => break true,
            None if Instant::now() > limit => break false,
            None => {}
        }
    };

    let st = ep.stats();
    let mut report = format!(
        "epochs={epochs}\nmismatched={mismatched}\npartial_ops={}\npartial_bytes={}\n\
         fragments_accepted={}\nbytes_accepted={}\nbytes_copied={}\nnacks={}\n\
         duplicates_dropped={}\nlut_hits={}\nlut_misses={}\nepochs_completed={}\n\
         wire_copied={}\npeak_rss_mib={}\n",
        progress.ops(),
        progress.bytes(),
        st.fragments_accepted,
        st.bytes_accepted,
        st.bytes_copied,
        st.nacks,
        st.duplicates_dropped,
        st.lut_hits,
        st.lut_misses,
        st.epochs_completed,
        server.wire_copied(),
        crate::env::peak_rss_mib(),
    );
    if let Some(t) = server.telemetry() {
        let snap = t.snapshot();
        report.push_str(&format!("telemetry_dropped={}\n", snap.dropped));
        if snap.span(Span::CompleteToHandoff).count() > 0 {
            report.push_str(&format!(
                "complete_to_handoff_p50_ns={}\n",
                snap.span(Span::CompleteToHandoff).quantile(0.5)
            ));
        }
    }
    print!("{report}");
    // Dropping the server marks the segment SERVER_GONE and unlinks it.
    drop(server);
    if stopped {
        0
    } else {
        3
    }
}

// ----------------------------------------------------------------- parent

/// The child process as the parent sees it. Dropping it stops the child
/// (politely, then by force), joins the watchdog and removes the segment
/// file if it is still there.
struct Peer {
    child: Arc<Mutex<Child>>,
    stdout: Option<BufReader<ChildStdout>>,
    path: PathBuf,
    done: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
    watchdog: Option<JoinHandle<()>>,
    create_s: f64,
}

fn segment_path(dir: &Path, tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    dir.join(format!(
        "rvma-perf-{tag}-{}-{}.shm",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

impl Peer {
    fn spawn(cfg: &Cfg, role: &str, telemetry: bool) -> Result<Peer, String> {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
        let path = segment_path(&cfg.out_dir, role);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--shm-child")
            .arg(role)
            .arg(&path)
            .arg(cfg.seed.to_string())
            .arg(cfg.seconds.to_string())
            .arg(if telemetry { "1" } else { "0" })
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn receiver process: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let child = Arc::new(Mutex::new(child));
        let done = Arc::new(AtomicBool::new(false));
        let timed_out = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let (child, done, timed_out) = (child.clone(), done.clone(), timed_out.clone());
            let deadline = Instant::now() + lifetime(cfg.seconds);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if Instant::now() > deadline {
                        timed_out.store(true, Ordering::Release);
                        let mut c = child.lock().expect("child lock");
                        let _ = c.kill();
                        // Reap it: a zombie still has a /proc entry, and
                        // the client's liveness probe looks there.
                        let _ = c.wait();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        let mut peer = Peer {
            child,
            stdout: Some(stdout),
            path,
            done,
            timed_out,
            watchdog: Some(watchdog),
            create_s: 0.0,
        };
        // The child announces the segment; only then is `connect` timed.
        let mut line = String::new();
        peer.stdout
            .as_mut()
            .expect("stdout")
            .read_line(&mut line)
            .map_err(|e| format!("read receiver announcement: {e}"))?;
        peer.create_s = line
            .strip_prefix("created ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("receiver process did not create its segment: {line:?}"))?;
        Ok(peer)
    }

    /// Ask the child to stop (a put to its stop mailbox), read its report
    /// and reap it. `None` when it did not exit cleanly.
    fn stop(&mut self, client: &ShmClient) -> Option<ChildReport> {
        let mut out = self.stdout.take()?;
        let _ = client.put_at(SERVER, STOP, 0, &[1u8]);
        let mut text = String::new();
        // Ends when the child exits (or the watchdog kills it).
        let _ = out.read_to_string(&mut text);
        let status = self.child.lock().expect("child lock").wait().ok()?;
        if !status.success() || self.timed_out.load(Ordering::Acquire) {
            return None;
        }
        Some(ChildReport(
            text.lines()
                .filter_map(|l| l.split_once('='))
                .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
                .collect(),
        ))
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        if let Ok(mut c) = self.child.lock() {
            if !matches!(c.try_wait(), Ok(Some(_))) {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
        self.done.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A connected receiver process.
struct Link {
    client: ShmClient,
    peer: Peer,
    tel: Option<Arc<Telemetry>>,
    connect_s: f64,
    /// Ready probes and credit claims the receiver refused (the mailbox
    /// was not posted yet); its endpoint's NACK counter must not end
    /// above this.
    probe_nacks: u64,
}

/// Spawn the receiver, connect, and probe until its mailboxes are live,
/// so the timed loop never sees a NACK.
fn connect(cfg: &Cfg, role: &str, telemetry: bool) -> Result<Link, String> {
    if !rvma_core::shm_supported() {
        return Err("skipped: shared-memory transport unsupported on this platform".into());
    }
    let peer = Peer::spawn(cfg, role, telemetry)?;
    let tel = telemetry.then(|| Arc::new(Telemetry::new()));
    let t0 = Instant::now();
    let client =
        ShmClient::connect_with(&peer.path, CLIENT, tel.clone()).map_err(|e| e.to_string())?;
    let connect_s = t0.elapsed().as_secs_f64();
    let limit = Instant::now() + Duration::from_secs(10);
    let mut probe_nacks = 0;
    loop {
        let fut = client
            .put_notify_at(SERVER, READY, 0, &[1u8])
            .map_err(|e| e.to_string())?;
        if !pollster::block_on(fut).nacked {
            break;
        }
        probe_nacks += 1;
        if Instant::now() > limit {
            return Err("receiver process never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = client.take_nacks();
    Ok(Link {
        client,
        peer,
        tel,
        connect_s,
        probe_nacks,
    })
}

impl Link {
    /// Final flush barrier; returns failed operations (a dead server, or
    /// data NACKs collected since the ready probe).
    fn quiesce(&self) -> u64 {
        let dead = u64::from(self.client.flush().is_err());
        let nacks = self.client.take_nacks();
        dead + nacks.iter().filter(|(vaddr, _)| *vaddr != CREDIT).count() as u64
    }

    /// Claim one credit: a posted data buffer the next epoch can land in.
    /// A refused claim means the receiver has not re-posted yet; wait and
    /// ask again. `false` when the server is gone or never grants.
    fn claim_credit(&mut self) -> bool {
        let limit = Instant::now() + Duration::from_secs(5);
        loop {
            match self
                .client
                .put_notify_at(SERVER, CREDIT, 0, &[1u8])
                .map(pollster::block_on)
            {
                Ok(d) if !d.nacked => return true,
                Ok(_) if Instant::now() < limit => {
                    self.probe_nacks += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                _ => return false,
            }
        }
    }
}

/// The child's report as numbers (absent keys read 0).
struct ChildReport(BTreeMap<String, f64>);

impl ChildReport {
    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Fold the report into the ledger and check the exact counts: the
    /// child completed `issued / per_epoch` epochs, none mismatched, and
    /// its open epoch holds exactly the remainder. Returns failed
    /// operations.
    fn export(
        &self,
        layers: &mut Layers,
        link: &Link,
        issued: u64,
        per_epoch: u64,
        partial: u64,
    ) -> u64 {
        // A probe that beat `add_endpoint` is refused by the server, not
        // the endpoint, so the endpoint may have counted fewer.
        let nacks = (self.get("nacks") as u64).saturating_sub(link.probe_nacks);
        let mut failed = self.get("mismatched") as u64 * per_epoch + nacks;
        failed += (self.get("epochs") as u64).abs_diff(issued / per_epoch) * per_epoch;
        failed += partial.abs_diff(issued % per_epoch);
        let accepted = self.get("bytes_accepted").max(1.0);
        layers.set("lut.hits", self.get("lut_hits"));
        layers.set("lut.misses", self.get("lut_misses"));
        layers.set(
            "endpoint.fragments_accepted",
            self.get("fragments_accepted"),
        );
        layers.set(
            "endpoint.bytes_copied_per_byte",
            self.get("bytes_copied") / accepted,
        );
        layers.set("endpoint.epochs_completed", self.get("epochs_completed"));
        layers.set("endpoint.nacks", nacks as f64);
        layers.set("transport_shm.create_s", link.peer.create_s);
        layers.set("transport_shm.connect_s", link.connect_s);
        layers.set(
            "endpoint.duplicates_dropped",
            self.get("duplicates_dropped"),
        );
        layers.set(
            "transport_shm.wire_copied_per_byte",
            self.get("wire_copied") / accepted,
        );
        layers.set("mem.peak_rss_mib", self.get("peak_rss_mib"));
        if self.0.contains_key("complete_to_handoff_p50_ns") {
            layers.set(
                "telemetry.complete_to_handoff_p50_ns",
                self.get("complete_to_handoff_p50_ns"),
            );
        }
        failed
    }
}

pub struct ShmPingPong {
    link: Link,
    payload: Vec<u8>,
    op: u64,
    dead: bool,
}

impl Workload for ShmPingPong {
    const NAME: &'static str = "shm_pingpong";
    const LANES: &'static [&'static str] = &["put_notify"];
    // Load thread, the client's response pump, the server thread.
    const THREADS: usize = 3;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        Ok(ShmPingPong {
            link: connect(cfg, "pingpong", telemetry)?,
            payload: Rng(cfg.seed).bytes(SMALL),
            op: 0,
            dead: false,
        })
    }

    fn block(&mut self, _lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        if self.dead {
            b.failed = 1;
            return b;
        }
        let began = Instant::now();
        let deadline = began + dur;
        loop {
            self.op += 1;
            stamp(&mut self.payload, self.op);
            let t1 = Instant::now();
            let sent = self
                .link
                .client
                .put_notify_at(SERVER, DATA, 0, &self.payload);
            let t2 = if spans.is_some() { Instant::now() } else { t1 };
            let delivered = sent.map(pollster::block_on);
            let t3 = Instant::now();
            b.ops += 1;
            match delivered {
                Ok(d) if !d.nacked => b.samples_ns.push((t3 - t1).as_nanos() as f64),
                Ok(_) => b.failed += 1,
                Err(_) => {
                    // The server is gone; everything later would fail too.
                    self.op -= 1;
                    self.dead = true;
                    b.failed += 1;
                    break;
                }
            }
            if let Some(s) = spans.as_deref_mut() {
                s.record("put_notify", None, self.op, t1, t3);
                s.record(
                    "transport_shm.put_notify_ns",
                    Some("put_notify"),
                    self.op,
                    t1,
                    t2,
                );
                s.record(
                    "transport_shm.future_wait_ns",
                    Some("put_notify"),
                    self.op,
                    t2,
                    t3,
                );
            }
            if t3 >= deadline {
                break;
            }
        }
        b.busy_s = began.elapsed().as_secs_f64();
        b
    }

    fn finish(mut self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let mut failed = self.link.quiesce();
        // Without a clean exit nothing the child received is certified.
        failed += match self.link.peer.stop(&self.link.client) {
            Some(r) => {
                let partial = r.get("partial_ops") as u64;
                r.export(layers, &self.link, self.op, PING_EPOCH_OPS, partial)
            }
            None => self.op.max(1),
        };
        *tel = self.link.tel.as_ref().map(|t| t.snapshot());
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        layers.set("put_rtt_p50_us", lanes[0].p50_us());
        layers.set("put_rtt_p99_us", lanes[0].p99_us());
        layers.set("notify.rtt_p999_us", lanes[0].p999_us());
    }

    /// Only the client half of a put is traced in this process: submit →
    /// request-ring enqueue. Ring crossing, doorbell, delivery, response
    /// and future wake happen across the process boundary, where no span
    /// can be paired yet — the residual this ledger row reports.
    fn ledger_spans() -> &'static [Span] {
        &[Span::SubmitToEnqueue]
    }
}

pub struct ShmBulk {
    link: Link,
    /// Registered extents, filled once with the pattern; only the 8-byte
    /// operation stamp is rewritten per put.
    ring: Vec<BulkExtent>,
    reserve_ns: f64,
    staged: Vec<u8>,
    ran_staged: bool,
    op: u64,
    dead: bool,
}

impl Workload for ShmBulk {
    const NAME: &'static str = "shm_bulk";
    const LANES: &'static [&'static str] = &["registered", "staged"];
    const THREADS: usize = 3;

    fn setup(cfg: &Cfg, telemetry: bool) -> Result<Self, String> {
        let link = connect(cfg, "bulk", telemetry)?;
        let pattern = Rng(cfg.seed).bytes(BULK_MSG);
        let t0 = Instant::now();
        let mut ring = Vec::with_capacity(RING);
        for _ in 0..RING {
            ring.push(
                link.client
                    .reserve_extent(BULK_MSG)
                    .ok_or("bulk region exhausted while registering extents")?,
            );
        }
        let reserve_ns = t0.elapsed().as_nanos() as f64 / RING as f64;
        for ext in &mut ring {
            ext.as_mut_slice().copy_from_slice(&pattern);
        }
        Ok(ShmBulk {
            link,
            ring,
            reserve_ns,
            staged: pattern,
            ran_staged: false,
            op: 0,
            dead: false,
        })
    }

    fn block(&mut self, lane: usize, dur: Duration, mut spans: Option<&mut Spans>) -> Block {
        let mut b = Block::default();
        if self.dead {
            b.failed = 1;
            return b;
        }
        self.ran_staged |= lane == 1;
        let deadline = Instant::now() + dur;
        let mut busy = Duration::ZERO;
        loop {
            // Untimed: an epoch's puts start only once the receiver has a
            // buffer posted for them.
            if (self.op as usize).is_multiple_of(PUTS_PER_EPOCH) && !self.link.claim_credit() {
                self.dead = true;
                b.failed += RING as u64;
                break;
            }
            // One burst: a ring's worth of puts, then the flush barrier
            // that both paces the pipeline and proves every extent is
            // gathered before its next reuse.
            let first = self.op;
            let t0 = Instant::now();
            let mut sent = Ok(());
            for i in 0..RING {
                let off = (self.op as usize % PUTS_PER_EPOCH) * BULK_MSG;
                sent = if lane == 0 {
                    stamp(self.ring[i].as_mut_slice(), self.op);
                    // The flush is the completion signal; the per-put
                    // future is dropped on purpose.
                    self.link
                        .client
                        .put_from_extent(&self.ring[i], SERVER, DATA, off)
                        .map(drop)
                } else {
                    stamp(&mut self.staged, self.op);
                    self.link.client.put_at(SERVER, DATA, off, &self.staged)
                };
                if sent.is_err() {
                    break;
                }
                self.op += 1;
            }
            let t_put = Instant::now();
            let flushed = sent.and_then(|()| self.link.client.flush());
            let t1 = Instant::now();
            if flushed.is_err() {
                self.dead = true;
                b.failed += RING as u64;
                break;
            }
            busy += t1 - t0;
            b.ops += RING as u64;
            b.samples_ns.push((t1 - t0).as_nanos() as f64 / RING as f64);
            if let Some(s) = spans.as_deref_mut() {
                if lane == 0 {
                    s.record_amortized(
                        "transport_shm.put_from_extent_ns",
                        first,
                        t0,
                        t_put,
                        RING as u64,
                    );
                }
                s.record("transport_shm.flush_ns", None, first, t_put, t1);
            }
            if t1 >= deadline {
                break;
            }
        }
        b.busy_s = busy.as_secs_f64();
        b
    }

    fn finish(mut self, layers: &mut Layers, tel: &mut Option<TelemetrySnapshot>) -> u64 {
        let mut failed = self.link.quiesce();
        // Hand the registered extents back: nothing may stay reserved.
        self.ring.clear();
        let bulk = self.link.client.bulk_stats();
        layers.set(
            "transport_shm.extents_in_flight_at_quiesce",
            bulk.in_flight as f64,
        );
        layers.set("transport_shm.eager_fallbacks", bulk.eager_fallbacks as f64);
        failed += bulk.in_flight + bulk.eager_fallbacks;
        failed += match self.link.peer.stop(&self.link.client) {
            Some(r) => {
                // The one-copy claim of the registered lane: the gather
                // is the only copy, and nothing but control bytes (ready
                // probes, one credit claim per epoch, the stop) crossed
                // the request ring's slots — under a millionth of the
                // payload.
                let one_copy = r.get("bytes_copied") == r.get("bytes_accepted")
                    && r.get("wire_copied") * 1e6 < r.get("bytes_accepted");
                let partial = r.get("partial_bytes") as u64 / BULK_MSG as u64;
                r.export(layers, &self.link, self.op, PUTS_PER_EPOCH as u64, partial)
                    + u64::from(!self.ran_staged && !one_copy)
            }
            None => self.op.max(1),
        };
        layers.set("transport_shm.reserve_extent_ns", self.reserve_ns);
        *tel = self.link.tel.as_ref().map(|t| t.snapshot());
        failed
    }

    fn lane_metrics(lanes: &[LaneStats], layers: &mut Layers) {
        let mib = (BULK_MSG >> 20) as f64;
        layers.set("goodput_mibps", lanes[0].mops() * 1e6 * mib);
        layers.set(
            "transport_shm.staged_goodput_mibps",
            lanes[1].mops() * 1e6 * mib,
        );
    }
}
