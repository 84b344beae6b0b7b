//! Small-message put rate: doorbell-batched submission vs one put per
//! ring crossing.
//!
//! RVMA's receive side amortizes per-message costs (one LUT lookup, one
//! counter update — paper Fig. 6); this benchmark measures the matching
//! initiator-side work: a lock-free route cache, a recycling payload
//! pool, an inline single-fragment fast path, and doorbell batching that
//! crosses the ring once per batch.
//!
//! Setup: 8 sender threads, each streaming small puts (8–256 B, far below
//! the MTU) to its own mailbox on one server endpoint, zero wire latency —
//! so the measurement is pure per-message overhead. Each sender paces
//! itself against its mailbox's lock-free epoch-progress counter to bound
//! queue depth. Two submission paths share the identical delivery
//! fabric:
//!
//! * `put`     — `put_at` (route cache + pool + inline path);
//! * `batch`   — a `PutBatch` with the default doorbell threshold.
//!
//! `speedup` is against `put` at the same message size and worker
//! count. Every (size, workers, path) cell is the **median of several
//! interleaved trials**: with all sender and worker threads timesharing
//! whatever cores the container grants, single-shot rates swing wildly
//! with scheduling luck, and interleaving the paths within each trial
//! round decorrelates that noise from the A/B comparison. Run with
//! `--quick` for a single-shot CI smoke (tiny put count, no CSV).
//!
//! # The `--async` receiver lane
//!
//! The second sweep measures the **receive side** at high in-flight
//! counts — the epoll argument. A receiver tracking N outstanding
//! completions through blocking notifications pays an O(N) scan per
//! consumed completion (`wait_any` re-walks the whole handle array), so
//! its per-thread consumption rate collapses as N grows. A
//! [`CompletionQueue`] aggregates the same N
//! slots into one ready-list the completing writes push onto: O(1) per
//! completion regardless of N. Both lanes run the identical sender
//! (credit-paced to hold the in-flight window) and identical fabric; only
//! the receiver's completion-discovery structure differs. Rates are
//! completions consumed per second on the one receiver thread
//! (ops/thread), duration-bounded so the O(N²) lane terminates.

use rvma_bench::{print_table, write_csv};
use rvma_core::transport::DeliveryOrder;
use rvma_core::{
    shm_supported, wait_any_timeout, AsyncNetwork, CompletionQueue, EndpointConfig, NodeAddr,
    Notification, ShmClient, ShmServer, Threshold, VirtAddr,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SENDERS: usize = 8;
/// Max puts a sender may run ahead of its mailbox's op counter.
const PIPELINE: u64 = 1024;
/// Offsets cycle over this many slots per mailbox, so in-flight puts of
/// one pipeline window never overlap in the buffer.
const SLOTS: usize = 2048;

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Put,
    Batch,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Put => "put",
            Path::Batch => "batch",
        }
    }
}

fn run_rate(msg_bytes: usize, puts: u64, workers: usize, path: Path) -> f64 {
    let net = AsyncNetwork::with_options(1024, DeliveryOrder::InOrder, Duration::ZERO, workers);
    let server = net.add_endpoint(NodeAddr::node(0));

    // One mailbox per sender, one op-threshold epoch covering the whole
    // run: completion is observed via the single epoch notification, and
    // pacing via the mailbox's lock-free progress counter.
    let mut notes = Vec::with_capacity(SENDERS);
    let mut progress = Vec::with_capacity(SENDERS);
    for i in 0..SENDERS {
        let win = server
            .init_window(VirtAddr::new(i as u64), Threshold::ops(puts))
            .expect("window");
        notes.push(win.post_buffer(vec![0u8; SLOTS * msg_bytes]).expect("post"));
        progress.push(win.progress());
    }

    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, progress) in progress.iter().enumerate() {
            let init = net.initiator(NodeAddr::node(i as u32 + 1));
            let payload = vec![i as u8 + 1; msg_bytes];
            s.spawn(move || {
                let dest = NodeAddr::node(0);
                let vaddr = VirtAddr::new(i as u64);
                let mut batch = init.batch();
                for k in 0..puts {
                    while k.saturating_sub(progress.ops()) > PIPELINE {
                        std::thread::yield_now();
                    }
                    let off = (k as usize % SLOTS) * msg_bytes;
                    match path {
                        Path::Put => init.put_at(dest, vaddr, off, &payload),
                        Path::Batch => batch.put_at(dest, vaddr, off, &payload),
                    }
                    .expect("put");
                }
                batch.flush().expect("flush");
            });
        }
    });
    for n in notes.iter_mut() {
        let buf = n.wait();
        assert!(!buf.full_buffer().is_empty(), "lost completion");
    }
    let elapsed = start.elapsed();
    (SENDERS as u64 * puts) as f64 / elapsed.as_secs_f64()
}

/// The `--shm` lane: the same shape as `run_rate` — `SENDERS` sender
/// threads, one op-threshold epoch per mailbox — but the senders live in
/// a **separate OS process** (this binary re-exec'd in `--shm-child`
/// role) and the wire is the shared-memory segment transport. The clock
/// starts at the first delivered fragment, so child spawn + connect time
/// is excluded; pacing is the request ring's own backpressure.
fn run_shm_rate(msg_bytes: usize, puts: u64) -> f64 {
    let server = ShmServer::create_default(1024, EndpointConfig::default()).expect("segment");
    let ep = server.add_endpoint(NodeAddr::node(0));
    let mut notes = Vec::with_capacity(SENDERS);
    for i in 0..SENDERS {
        let win = ep
            .init_window(VirtAddr::new(i as u64), Threshold::ops(puts))
            .expect("window");
        notes.push(win.post_buffer(vec![0u8; SLOTS * msg_bytes]).expect("post"));
    }
    let exe = std::env::current_exe().expect("bench binary path");
    let mut child = std::process::Command::new(exe)
        .arg("--shm-child")
        .arg(server.path())
        .arg(SENDERS.to_string())
        .arg(puts.to_string())
        .arg(msg_bytes.to_string())
        .spawn()
        .expect("spawn shm sender process");
    while server.delivered() == 0 {
        std::thread::yield_now();
    }
    let start = Instant::now();
    for n in notes.iter_mut() {
        let buf = n.wait();
        assert!(!buf.full_buffer().is_empty(), "lost completion");
    }
    let elapsed = start.elapsed();
    assert!(
        child.wait().expect("child exit").success(),
        "sender process failed"
    );
    (SENDERS as u64 * puts) as f64 / elapsed.as_secs_f64()
}

/// Child role of the `--shm` lane: pure initiator process. Connects to
/// the parent's segment and blasts the put stream; the bounded request
/// ring provides the flow control.
fn shm_child(args: &[String]) {
    let path = std::path::PathBuf::from(&args[0]);
    let senders: usize = args[1].parse().expect("senders");
    let puts: u64 = args[2].parse().expect("puts");
    let msg_bytes: usize = args[3].parse().expect("msg_bytes");
    let client = ShmClient::connect(&path, NodeAddr::node(1)).expect("connect to segment");
    std::thread::scope(|s| {
        for i in 0..senders {
            let client = &client;
            let payload = vec![i as u8 + 1; msg_bytes];
            s.spawn(move || {
                let dest = NodeAddr::node(0);
                let vaddr = VirtAddr::new(i as u64);
                for k in 0..puts {
                    let off = (k as usize % SLOTS) * msg_bytes;
                    client.put_at(dest, vaddr, off, &payload).expect("put");
                }
            });
        }
    });
    client.flush().expect("final flush");
}

/// Median of the collected trial rates.
fn median(rates: &mut [f64]) -> f64 {
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rate"));
    rates[rates.len() / 2]
}

/// Message size of the async receiver lane (small: the lane measures
/// completion discovery, not payload movement).
const ASYNC_MSG: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum RecvLane {
    /// Blocking notifications, discovered by `wait_any` over all
    /// outstanding handles: O(in-flight) per consumed completion.
    WaitAny,
    /// The same epochs posted into one `CompletionQueue` (no notification
    /// slots): O(1) per completion.
    Cq,
}

impl RecvLane {
    fn name(self) -> &'static str {
        match self {
            RecvLane::WaitAny => "recv_wait_any",
            RecvLane::Cq => "recv_cq",
        }
    }
}

/// One duration-bounded async-lane cell: a single receiver thread holding
/// `inflight` outstanding completions, a sender credit-paced against the
/// receiver's consumption counter. Returns completions consumed per
/// second on the receiver thread.
fn run_recv_lane(inflight: usize, duration: Duration, lane: RecvLane) -> f64 {
    let net = AsyncNetwork::with_options(1024, DeliveryOrder::InOrder, Duration::ZERO, 1);
    let server = net.add_endpoint(NodeAddr::node(0));
    let win = server
        .init_window(VirtAddr::new(0), Threshold::ops(1))
        .expect("window");

    let stop = AtomicBool::new(false);
    let consumed = AtomicU64::new(0);
    let mut rate = 0.0f64;
    std::thread::scope(|s| {
        // Sender: keep exactly `inflight` puts outstanding against the
        // receiver's consumption counter. Every put lands in an already
        // posted epoch (the receiver reposts one buffer per consumption),
        // so no completion is ever lost to BufferNotPosted.
        let init = net.initiator(NodeAddr::node(1));
        let (stop_ref, consumed_ref) = (&stop, &consumed);
        s.spawn(move || {
            let payload = [7u8; ASYNC_MSG];
            let mut issued = 0u64;
            while !stop_ref.load(Ordering::Acquire) {
                if issued - consumed_ref.load(Ordering::Acquire) >= inflight as u64 {
                    std::thread::yield_now();
                    continue;
                }
                init.put(NodeAddr::node(0), VirtAddr::new(0), &payload)
                    .expect("put");
                issued += 1;
            }
        });

        // Receiver: pre-post the whole in-flight window, then consume and
        // repost until the deadline. Only this loop is timed.
        match lane {
            RecvLane::WaitAny => {
                let mut notes: Vec<Notification> = (0..inflight)
                    .map(|_| win.post_pooled(ASYNC_MSG).expect("post"))
                    .collect();
                let start = Instant::now();
                let deadline = start + duration;
                let mut count = 0u64;
                while Instant::now() < deadline {
                    if let Some((i, _buf)) = wait_any_timeout(&mut notes, Duration::from_millis(5))
                    {
                        notes[i] = win.post_pooled(ASYNC_MSG).expect("repost");
                        count += 1;
                        consumed.store(count, Ordering::Release);
                    }
                }
                rate = count as f64 / start.elapsed().as_secs_f64();
            }
            RecvLane::Cq => {
                let cq = CompletionQueue::new(4096);
                for _ in 0..inflight {
                    win.post_pooled_cq(ASYNC_MSG, &cq, 0).expect("post");
                }
                let start = Instant::now();
                let deadline = start + duration;
                let mut count = 0u64;
                let mut out = Vec::with_capacity(1024);
                while Instant::now() < deadline {
                    let n = cq.wait_batch(1024, &mut out, Duration::from_millis(5));
                    for _ in out.drain(..) {
                        win.post_pooled_cq(ASYNC_MSG, &cq, 0).expect("repost");
                    }
                    count += n as u64;
                    consumed.store(count, Ordering::Release);
                }
                rate = count as f64 / start.elapsed().as_secs_f64();
            }
        }
        stop.store(true, Ordering::Release);
    });
    rate
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--shm-child") {
        shm_child(&args[pos + 1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let async_only = args.iter().any(|a| a == "--async");
    let shm_only = args.iter().any(|a| a == "--shm");
    let (puts, trials, sizes): (u64, usize, &[usize]) = if quick {
        (2048, 1, &[8, 256])
    } else {
        (1 << 15, 5, &[8, 32, 64, 256])
    };

    if shm_only {
        if !shm_supported() {
            println!(
                "msg_rate --shm: shared-memory transport unsupported on this platform; skipping"
            );
            return;
        }
        println!(
            "cross-process put rate (--shm): {SENDERS} sender threads in a child process x \
             {puts} puts over one shared-memory segment, median of {trials} trial(s)\n"
        );
        let headers = ["size_B", "workers", "path", "inflight", "puts_per_s"];
        let mut rows = Vec::new();
        for &size in sizes {
            let mut samples: Vec<f64> = (0..trials).map(|_| run_shm_rate(size, puts)).collect();
            let rate = median(&mut samples);
            rows.push(vec![
                size.to_string(),
                "1".to_string(),
                "shm".to_string(),
                "ring".to_string(),
                format!("{rate:.0}"),
            ]);
        }
        print_table(&headers, &rows);
        println!(
            "\nInitiators and receiver are separate OS processes; the clock starts at the \
             first delivered fragment (spawn + connect excluded); in-flight depth is the \
             request ring's capacity."
        );
        if !quick {
            match write_csv("msg_rate_shm", &headers, &rows) {
                Ok(p) => println!("csv: {p}"),
                Err(e) => eprintln!("csv write failed: {e}"),
            }
        }
        return;
    }

    // Shared schema: submission-path rows carry the pipeline credit as
    // their in-flight column; receiver-lane rows carry the swept window.
    let headers = [
        "size_B",
        "workers",
        "path",
        "inflight",
        "puts_per_s",
        "speedup_vs_base",
    ];
    let mut rows = Vec::new();

    if !async_only {
        println!(
            "small-message put rate: {SENDERS} senders x {puts} puts, \
             median of {trials} trial(s), MTU 1024, zero wire latency\n"
        );

        const PATHS: [Path; 2] = [Path::Put, Path::Batch];
        for &size in sizes {
            for workers in [1usize, 8] {
                // Interleave: each trial round measures both paths
                // back-to-back so slow phases of the box hit them alike.
                let mut samples: [Vec<f64>; 2] = Default::default();
                for _ in 0..trials {
                    for (p, &path) in PATHS.iter().enumerate() {
                        samples[p].push(run_rate(size, puts, workers, path));
                    }
                }
                let mut baseline = None;
                for (p, &path) in PATHS.iter().enumerate() {
                    let rate = median(&mut samples[p]);
                    let base = *baseline.get_or_insert(rate);
                    rows.push(vec![
                        size.to_string(),
                        workers.to_string(),
                        path.name().to_string(),
                        PIPELINE.to_string(),
                        format!("{rate:.0}"),
                        format!("{:.2}x", rate / base),
                    ]);
                }
            }
        }
        print_table(&headers, &rows);
        println!("\nSame delivery fabric in every row; only the submission path differs.\n");
    }

    // ---- async receiver lane: completions/s per receiver thread ----
    let (windows, lane_secs, lane_trials): (&[usize], f64, usize) = if quick {
        (&[1024, 4096], 0.25, 1)
    } else {
        (&[1024, 16384, 262144], 1.0, 3)
    };
    println!(
        "async receiver lane: 1 receiver thread, {ASYNC_MSG} B puts, \
         sender credit-paced to the in-flight window, \
         median of {lane_trials} x {lane_secs}s trial(s)\n"
    );
    let lane_start = rows.len();
    for &inflight in windows {
        let mut wa: Vec<f64> = Vec::new();
        let mut cq: Vec<f64> = Vec::new();
        for _ in 0..lane_trials {
            wa.push(run_recv_lane(
                inflight,
                Duration::from_secs_f64(lane_secs),
                RecvLane::WaitAny,
            ));
            cq.push(run_recv_lane(
                inflight,
                Duration::from_secs_f64(lane_secs),
                RecvLane::Cq,
            ));
        }
        let wa = median(&mut wa);
        let cq = median(&mut cq);
        for (lane, rate) in [(RecvLane::WaitAny, wa), (RecvLane::Cq, cq)] {
            rows.push(vec![
                ASYNC_MSG.to_string(),
                "1".to_string(),
                lane.name().to_string(),
                inflight.to_string(),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / wa),
            ]);
        }
    }
    print_table(&headers, &rows[lane_start..]);
    println!(
        "\nrecv_wait_any = blocking wait_any over all outstanding handles \
         (O(in-flight) discovery per completion);\n\
         recv_cq = the same epochs posted into one CompletionQueue, no slots (O(1)). \
         speedup_vs_base = vs recv_wait_any at the same in-flight window."
    );

    // The CSV pairs both sweeps; an --async-only run would clobber the
    // submission-path rows, so it prints without writing.
    if !quick && !async_only {
        match write_csv("msg_rate", &headers, &rows) {
            Ok(p) => println!("csv: {p}"),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}
