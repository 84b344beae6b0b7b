//! Source (b) of the per-layer ledger: floor probes, each timing one
//! layer's public functions in isolation. Every probe lives here, behind
//! one function, so that when the ring, the event ring or a transport is
//! replaced, one follow-up benchmark change re-points them.
//!
//! A probe runs `CHUNKS` chunks and reports the median chunk, in
//! nanoseconds per call. The substrate rows — a bare ring round trip
//! between two threads, a bare memcpy, a bare futex round trip — are the
//! floor each layer's overhead is stated against.

use crate::metrics::Layers;
use crate::stats::median;
use parking_lot::Mutex;
use rvma_core::lut::Lut;
use rvma_core::mailbox::{Mailbox, MailboxMode, OpKey, DEFAULT_RETAIN_EPOCHS};
use rvma_core::shm::{futex_wait, futex_wake};
use rvma_core::telemetry::EventKind;
use rvma_core::{
    BufferPool, Bytes, DedupWindow, Fragment, NodeAddr, PayloadPool, RingQueue, RvmaEndpoint,
    Telemetry, Threshold, VirtAddr,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNKS: usize = 5;

/// Median over chunks of `body(iters)`'s wall time per iteration, ns.
fn per_call_ns(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = Instant::now();
            body(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&chunks)
}

pub fn probe_all(layers: &mut Layers, smoke: bool) {
    // Smoke runs keep every probe but shrink it.
    let scale = |n: u64| if smoke { (n / 50).max(16) } else { n };

    layers.set(
        "floor.clock_ns",
        per_call_ns(scale(1_000_000), |n| {
            for _ in 0..n {
                black_box(Instant::now());
            }
        }),
    );
    floor_memcpy(layers, smoke);
    ring(layers, scale(500_000), scale(50_000));
    pools(layers, scale(500_000));
    lut(layers, scale(500_000));
    endpoint(layers, scale(200_000), smoke);
    layers.set("shm.futex_rtt_ns", futex_rtt(scale(20_000)));
    dedup(layers, scale(200_000));
    telemetry(layers);
}

fn floor_memcpy(layers: &mut Layers, smoke: bool) {
    // 1 MiB copies walking a 64 MiB working set (32 MiB source, 32 MiB
    // destination): the gather's substrate, far outside the 4 MiB L2.
    let half = if smoke { 4 << 20 } else { 32 << 20 };
    let src = crate::workloads::prefaulted(half);
    let mut dst = crate::workloads::prefaulted(half);
    let mib = 1 << 20;
    let ns_per_mib = per_call_ns((half / mib) as u64, |n| {
        for i in 0..n as usize {
            dst[i * mib..(i + 1) * mib].copy_from_slice(&src[i * mib..(i + 1) * mib]);
        }
        black_box(&dst);
    });
    layers.set("floor.memcpy_gibps", 1e9 / ns_per_mib / 1024.0);

    let line = [0xA5u8; 64];
    let mut out = [0u8; 64];
    layers.set(
        "floor.memcpy_64b_ns",
        per_call_ns(if smoke { 10_000 } else { 2_000_000 }, |n| {
            for _ in 0..n {
                out.copy_from_slice(black_box(&line));
                black_box(&mut out);
            }
        }),
    );
}

fn ring(layers: &mut Layers, iters: u64, rtts: u64) {
    let q: RingQueue<u64> = RingQueue::new(1024);
    layers.set(
        "ring.push_pop_ns",
        per_call_ns(iters, |n| {
            for i in 0..n {
                let _ = q.try_push(i);
                black_box(q.try_pop());
            }
        }),
    );

    // The substrate of every put round trip: two bare rings, two
    // threads, one token bounced between them, both sides spinning.
    let ping: Arc<RingQueue<u64>> = Arc::new(RingQueue::new(2));
    let pong: Arc<RingQueue<u64>> = Arc::new(RingQueue::new(2));
    let total = rtts * CHUNKS as u64;
    let echo = {
        let (ping, pong) = (ping.clone(), pong.clone());
        std::thread::spawn(move || {
            for _ in 0..total {
                let v = loop {
                    if let Some(v) = ping.try_pop() {
                        break v;
                    }
                    std::hint::spin_loop();
                };
                let _ = pong.push(v);
            }
        })
    };
    layers.set(
        "ring.xthread_rtt_ns",
        per_call_ns(rtts, |n| {
            for i in 0..n {
                let _ = ping.push(i);
                while pong.try_pop().is_none() {
                    std::hint::spin_loop();
                }
            }
        }),
    );
    echo.join().expect("echo thread");
}

fn pools(layers: &mut Layers, iters: u64) {
    let payloads = PayloadPool::new();
    // Larger than the inline capacity, so the shelf is exercised.
    let data = [0x5Au8; 256];
    layers.set(
        "pool.acquire_ns",
        per_call_ns(iters, |n| {
            for _ in 0..n {
                black_box(payloads.acquire(black_box(&data)));
            }
        }),
    );
    let buffers = BufferPool::new();
    layers.set(
        "pool.take_recycle_ns",
        per_call_ns(iters, |n| {
            for _ in 0..n {
                let v = buffers.take(64);
                buffers.recycle(black_box(v));
            }
        }),
    );
}

fn lut(layers: &mut Layers, iters: u64) {
    for (entries, name) in [(1u64, "lut.lookup_1_ns"), (4096, "lut.lookup_4096_ns")] {
        let table = Lut::new(None);
        for v in 0..entries {
            let mb = Mailbox::new(
                VirtAddr::new(v),
                MailboxMode::Steered,
                DEFAULT_RETAIN_EPOCHS,
            );
            table
                .insert(VirtAddr::new(v), Arc::new(Mutex::new(mb)))
                .expect("insert");
        }
        layers.set(
            name,
            per_call_ns(iters, |n| {
                for i in 0..n {
                    // A stride coprime to the table size visits every
                    // entry without a predictable next address.
                    let v = i.wrapping_mul(2_654_435_761) % entries;
                    black_box(table.lookup(VirtAddr::new(v)));
                }
            }),
        );
    }
}

fn endpoint(layers: &mut Layers, iters: u64, smoke: bool) {
    let src = NodeAddr::node(1);
    let small = |vaddr: VirtAddr, op_id: u64| Fragment {
        initiator: src,
        op_id,
        dst_vaddr: vaddr,
        op_total_len: 64,
        offset: 0,
        data: Bytes::from(vec![0xC3u8; 64]),
    };

    // A 64 B fragment into an epoch that never completes.
    let ep = RvmaEndpoint::new(NodeAddr::node(0));
    let win = ep
        .init_window(VirtAddr::new(1), Threshold::ops(u64::MAX))
        .expect("window");
    let _open = win.post_buffer(vec![0u8; 64]).expect("post");
    let frag = small(VirtAddr::new(1), 1);
    layers.set(
        "endpoint.deliver_ns",
        per_call_ns(iters, |n| {
            for _ in 0..n {
                black_box(ep.deliver(&frag));
            }
        }),
    );

    // A 64 B fragment that completes its epoch, and the poll that then
    // finds the completion ready. Epochs are posted in groups outside the
    // clock; only the delivers, then only the polls, are timed.
    let win1 = ep
        .init_window(VirtAddr::new(2), Threshold::ops(1))
        .expect("window");
    let frag1 = small(VirtAddr::new(2), 2);
    let group = 1024u64;
    let (mut deliver, mut poll) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS * (iters / group / 8).max(1) as usize {
        let mut notes: Vec<_> = (0..group)
            .map(|_| win1.post_pooled(64).expect("post"))
            .collect();
        let t0 = Instant::now();
        for _ in 0..group {
            black_box(ep.deliver(&frag1));
        }
        let t1 = Instant::now();
        for n in &mut notes {
            black_box(n.poll());
        }
        let t2 = Instant::now();
        deliver.push((t1 - t0).as_nanos() as f64 / group as f64);
        poll.push((t2 - t1).as_nanos() as f64 / group as f64);
    }
    layers.set("endpoint.deliver_complete_ns", median(&deliver));
    layers.set("notify.poll_ready_ns", median(&poll));

    // The gather alone: 1 MiB slices into a pre-faulted epoch buffer.
    let total = if smoke { 4 << 20 } else { 64 << 20 };
    let mib = 1 << 20;
    let win_big = ep
        .init_window(VirtAddr::new(3), Threshold::ops(u64::MAX))
        .expect("window");
    let _big = win_big
        .post_buffer(crate::workloads::prefaulted(total))
        .expect("post");
    let slice = vec![0x3Cu8; mib];
    let mut op = 10u64;
    let ns_per_mib = per_call_ns((total / mib) as u64, |n| {
        for i in 0..n as usize {
            op += 1;
            black_box(ep.deliver_slice(src, op, VirtAddr::new(3), mib as u64, i * mib, &slice));
        }
    });
    layers.set("endpoint.deliver_gibps", 1e9 / ns_per_mib / 1024.0);
}

/// One futex wait/wake round trip between two threads (the shm
/// doorbell's substrate; the words need not live in a shared segment).
fn futex_rtt(rtts: u64) -> f64 {
    let words = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
    let total = rtts * CHUNKS as u64;
    let echo = {
        let words = words.clone();
        std::thread::spawn(move || {
            for i in 1..=total as u32 {
                while words[0].load(Ordering::Acquire) != i {
                    futex_wait(&words[0], i - 1, Duration::from_millis(50));
                }
                words[1].store(i, Ordering::Release);
                futex_wake(&words[1], 1);
            }
        })
    };
    let mut i = 0u32;
    let ns = per_call_ns(rtts, |n| {
        for _ in 0..n {
            i += 1;
            words[0].store(i, Ordering::Release);
            futex_wake(&words[0], 1);
            while words[1].load(Ordering::Acquire) != i {
                futex_wait(&words[1], i - 1, Duration::from_millis(50));
            }
        }
    });
    echo.join().expect("echo thread");
    ns
}

fn dedup(layers: &mut Layers, iters: u64) {
    // Steady state of the reliable path: a full window, each fragment
    // checked and then recorded, the oldest operation evicted.
    let mut window = DedupWindow::new(1 << 15);
    let mut op = 0u64;
    let mut step = |window: &mut DedupWindow| {
        op += 1;
        let key = OpKey {
            op_id: op,
            initiator: 1,
        };
        black_box(window.is_duplicate(key, 0));
        window.record(key, 0);
    };
    for _ in 0..1 << 15 {
        step(&mut window);
    }
    layers.set(
        "retry.dedup_check_ns",
        per_call_ns(iters, |n| {
            for _ in 0..n {
                step(&mut window);
            }
        }),
    );
}

fn telemetry(layers: &mut Layers) {
    // Below one shard's capacity per chunk, so every record takes the
    // enqueue path, not the drop path.
    let per_chunk = 30_000u64;
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t = Telemetry::new();
            let t0 = Instant::now();
            for i in 0..per_chunk {
                t.record(EventKind::Submit, 1, i, 64);
            }
            t0.elapsed().as_nanos() as f64 / per_chunk as f64
        })
        .collect();
    layers.set("telemetry.record_ns", median(&chunks));
}
