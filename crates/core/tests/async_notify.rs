//! Async-native completion: Future/Waker notification, completion queues,
//! and the notified-put path — ISSUE 7's delay-sweep and stress suite.
//!
//! The racy part of a waker handoff is the window between the consumer's
//! "not complete yet" check and its waker registration. The delay sweeps
//! here move the completing write across that window (completer running
//! before the first poll, during it, and long after), asserting the future
//! resolves exactly once in every interleaving. The blocking waits park on
//! the same waker cell after their spin phase, so the sweep also runs over
//! `Notification::wait`, `wait_timeout` and `wait_any`, each spanning both
//! phases.

use pollster::block_on;
use rvma_core::api::{rvma_post_buffer_async, rvma_put_notify};
use rvma_core::{
    wait_any, AsyncNetwork, CompletedBuffer, CompletionQueue, DeliverResult, DeliveryOrder,
    FaultModel, LossyNetwork, NackReason, NodeAddr, Notification, RvmaEndpoint, Threshold,
    VirtAddr, DEFAULT_MTU,
};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};
use waker_fn::waker_fn;

/// Completer delays swept over every race-prone test: from "complete
/// before the consumer ever polls" through "complete while the consumer
/// is mid-handoff" to "consumer parked long before completion".
const DELAYS_US: &[u64] = &[0, 1, 10, 50, 200, 1000];

#[test]
fn future_resolves_across_completer_delay_sweep() {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(1));
    let win = server
        .init_window(VirtAddr::new(0x10), Threshold::bytes(256))
        .unwrap();
    for (i, &delay) in DELAYS_US.iter().enumerate() {
        let fut = win.post_buffer_async(vec![0u8; 256]).unwrap();
        let payload = vec![i as u8 + 1; 256];
        let sent = payload.clone();
        let net = &net;
        let buf = std::thread::scope(|s| {
            s.spawn(move || {
                if delay > 0 {
                    std::thread::sleep(Duration::from_micros(delay));
                }
                net.initiator(NodeAddr::node(2))
                    .put(NodeAddr::node(1), VirtAddr::new(0x10), &sent)
                    .unwrap();
            });
            block_on(fut)
        });
        assert_eq!(buf.data(), payload.as_slice(), "delay {delay}us");
    }
}

/// The same sweep for a blocking idiom. Each round posts two buffers on
/// their own windows — `notes[0]` is never completed, `notes[1]` is
/// completed by a second thread after the delay — and `wait` must return
/// `notes[1]`'s bytes, exactly once, leaving `notes[0]` untouched. Returns
/// the rounds whose completing write had to wake a parked waiter.
fn blocking_delay_sweep(mut wait: impl FnMut(&mut [Notification]) -> CompletedBuffer) -> u64 {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(1));
    for (i, &delay) in DELAYS_US.iter().enumerate() {
        let idle = VirtAddr::new(0x100 + 2 * i as u64);
        let hot = VirtAddr::new(0x101 + 2 * i as u64);
        let mut notes = [idle, hot].map(|vaddr| {
            server
                .init_window(vaddr, Threshold::bytes(256))
                .unwrap()
                .post_buffer(vec![0u8; 256])
                .unwrap()
        });
        let payload = vec![i as u8 + 1; 256];
        let net = &net;
        let sent = &payload;
        // The completer is running before the wait starts, so the delay
        // is not stretched by thread start-up.
        let started = Barrier::new(2);
        let buf = std::thread::scope(|s| {
            s.spawn(|| {
                let init = net.initiator(NodeAddr::node(2));
                started.wait();
                std::thread::sleep(Duration::from_micros(delay));
                init.put(NodeAddr::node(1), hot, sent).unwrap();
            });
            started.wait();
            wait(&mut notes)
        });
        assert_eq!(buf.data(), payload.as_slice(), "delay {delay}us");
        assert!(notes[1].is_consumed(), "delay {delay}us");
        assert!(notes[1].poll().is_none(), "delivered twice at {delay}us");
        assert!(!notes[0].is_consumed() && !notes[0].is_complete());
    }
    server.stats().notify_wakes
}

/// The sweep must straddle the waiter's two phases: the short delays are
/// caught while spinning (no wake), the 1 ms one only after parking.
fn assert_spans_spin_and_park(idiom: &str, parked_rounds: u64) {
    assert!(
        (1..DELAYS_US.len() as u64).contains(&parked_rounds),
        "{idiom}: {parked_rounds} of {} rounds parked",
        DELAYS_US.len()
    );
}

#[test]
fn wait_resolves_across_completer_delay_sweep() {
    let parked = blocking_delay_sweep(|notes| notes[1].wait());
    assert_spans_spin_and_park("wait", parked);
}

#[test]
fn wait_timeout_resolves_across_completer_delay_sweep() {
    let parked = blocking_delay_sweep(|notes| {
        notes[1]
            .wait_timeout(Duration::from_secs(10))
            .expect("completes well inside the timeout")
    });
    assert_spans_spin_and_park("wait_timeout", parked);
}

#[test]
fn wait_any_resolves_across_completer_delay_sweep() {
    let parked = blocking_delay_sweep(|notes| {
        let (idx, buf) = wait_any(notes).expect("one completion pending");
        assert_eq!(idx, 1, "only the hot window completes");
        buf
    });
    assert_spans_spin_and_park("wait_any", parked);
}

/// A short deadline is honoured: the spin phase checks it, so a zero
/// timeout on a pending slot is one look, not a whole spin budget.
#[test]
fn wait_timeout_honours_short_deadline() {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(1));
    let win = server
        .init_window(VirtAddr::new(0x30), Threshold::bytes(64))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
    let mut took: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            assert!(note.wait_timeout(Duration::ZERO).is_none());
            start.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_micros(25),
        "wait_timeout(0) median {median:?}"
    );
    assert!(!note.is_consumed());
}

#[test]
fn wake_before_register_resolves_on_first_poll() {
    // Completion lands before the future is ever polled: the first poll
    // must take the fast path without touching the waker.
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(7), Threshold::ops(1))
        .unwrap();
    let mut fut = win.post_buffer_async(vec![0u8; 64]).unwrap();
    client
        .put(NodeAddr::node(1), VirtAddr::new(7), &[9u8; 64])
        .unwrap(); // inline network: complete synchronously, before any poll
    let polls = Arc::new(AtomicU32::new(0));
    let wakes = Arc::new(AtomicU32::new(0));
    let w = wakes.clone();
    let waker = waker_fn(move || {
        w.fetch_add(1, Ordering::SeqCst);
    });
    let mut cx = Context::from_waker(&waker);
    let out = Pin::new(&mut fut).poll(&mut cx);
    polls.fetch_add(1, Ordering::SeqCst);
    match out {
        Poll::Ready(buf) => assert_eq!(buf.data(), &[9u8; 64]),
        Poll::Pending => panic!("completed slot must resolve on first poll"),
    }
    assert_eq!(wakes.load(Ordering::SeqCst), 0, "no waker was registered");
    let stats = server.stats();
    assert_eq!(stats.spurious_polls, 0);
}

#[test]
fn register_after_complete_race_is_never_lost() {
    // Manually drive the poll loop with a counting waker while an async
    // transport completes at a swept delay: however the registration and
    // the completing write interleave, the consumer either sees COMPLETE
    // on its re-check or gets woken — never parks forever.
    for &delay in DELAYS_US {
        let net = AsyncNetwork::new(
            DEFAULT_MTU,
            DeliveryOrder::InOrder,
            Duration::from_micros(delay),
        );
        let server = net.add_endpoint(NodeAddr::node(1));
        let client = net.initiator(NodeAddr::node(2));
        let win = server
            .init_window(VirtAddr::new(3), Threshold::ops(1))
            .unwrap();
        let mut fut = win.post_pooled_async(64).unwrap();
        client
            .put(NodeAddr::node(1), VirtAddr::new(3), &[5u8; 64])
            .unwrap();
        let wakes = Arc::new(AtomicU32::new(0));
        let w = wakes.clone();
        let waker = waker_fn(move || {
            w.fetch_add(1, Ordering::SeqCst);
        });
        let mut cx = Context::from_waker(&waker);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let buf = loop {
            match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(buf) => break buf,
                Poll::Pending => {
                    assert!(std::time::Instant::now() < deadline, "future hung");
                    // Wait for the wake instead of spinning: a lost wake
                    // fails the deadline above rather than masking itself.
                    while wakes.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                }
            }
        };
        assert_eq!(buf.len(), 64, "delay {delay}us");
        assert!(wakes.load(Ordering::SeqCst) <= 1, "at most one wake");
    }
}

#[test]
fn dropped_future_leaves_slot_reusable() {
    let net = AsyncNetwork::default_network();
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(5), Threshold::ops(1))
        .unwrap();

    // Cancel before completion: the completing write then has no waker to
    // hand off to, and must not wedge the epoch.
    let fut = win.post_buffer_async(vec![0u8; 32]).unwrap();
    drop(fut);
    client
        .put(NodeAddr::node(1), VirtAddr::new(5), &[1u8; 32])
        .unwrap();
    net.quiesce();

    // The mailbox rotated to the next posted buffer; a fresh async post on
    // the same window completes normally (no leaked TAKEN/registered
    // state survives the cancellation). Register the waker *before* the
    // put so the completing write must find it and issue exactly one wake.
    let mut fut = win.post_buffer_async(vec![0u8; 32]).unwrap();
    let wakes = Arc::new(AtomicU32::new(0));
    let w = wakes.clone();
    let waker = waker_fn(move || {
        w.fetch_add(1, Ordering::SeqCst);
    });
    let mut cx = Context::from_waker(&waker);
    assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
    client
        .put(NodeAddr::node(1), VirtAddr::new(5), &[2u8; 32])
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while wakes.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "wake never arrived");
        std::thread::yield_now();
    }
    match Pin::new(&mut fut).poll(&mut cx) {
        Poll::Ready(buf) => assert_eq!(buf.data(), &[2u8; 32]),
        Poll::Pending => panic!("woken future must be ready"),
    }

    let stats = server.stats();
    assert_eq!(stats.futures_dropped, 1);
    assert!(stats.notify_wakes >= 1);
}

#[test]
fn cq_delivers_exactly_once_under_producer_stress() {
    const PRODUCERS: u32 = 8;
    const PUTS_PER_PRODUCER: u64 = 64;
    let net = AsyncNetwork::with_options(DEFAULT_MTU, DeliveryOrder::InOrder, Duration::ZERO, 4);
    let server = net.add_endpoint(NodeAddr::node(0));
    let cq = CompletionQueue::new(64); // deliberately small: force spill
    let wins: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let win = server
                .init_window(VirtAddr::new(0x100 + p as u64), Threshold::ops(1))
                .unwrap();
            for _ in 0..PUTS_PER_PRODUCER {
                // user tag = producer id: exactly-once shows as an exact
                // per-tag count after the drain.
                win.post_pooled_cq(16, &cq, p as u64).unwrap();
            }
            win
        })
        .collect();

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let init = net.initiator(NodeAddr::node(p + 1));
            s.spawn(move || {
                for k in 0..PUTS_PER_PRODUCER {
                    init.put(
                        NodeAddr::node(0),
                        VirtAddr::new(0x100 + p as u64),
                        &[(k % 251) as u8; 16],
                    )
                    .unwrap();
                }
            });
        }
        // Consumer: drain concurrently with the producers.
        let total = (PRODUCERS as u64) * PUTS_PER_PRODUCER;
        let mut got = vec![0u64; PRODUCERS as usize];
        let mut scratch = Vec::new();
        let mut seen = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while seen < total {
            let n = cq.wait_batch(32, &mut scratch, Duration::from_millis(100));
            for c in scratch.drain(..) {
                got[c.user as usize] += 1;
                assert_eq!(c.buffer.len(), 16);
            }
            seen += n as u64;
            assert!(std::time::Instant::now() < deadline, "CQ drain hung");
        }
        for (p, &count) in got.iter().enumerate() {
            assert_eq!(count, PUTS_PER_PRODUCER, "producer {p}: exactly once");
        }
    });
    drop(wins);

    let stats = cq.stats();
    assert_eq!(stats.enqueued, (PRODUCERS as u64) * PUTS_PER_PRODUCER);
    assert_eq!(stats.delivered, stats.enqueued);
    assert_eq!(cq.depth(), 0);
    assert_eq!(
        server.stats().cq_completions,
        (PRODUCERS as u64) * PUTS_PER_PRODUCER
    );
}

/// Every CQ completion counts once into each of the endpoint's
/// `cq_completions` and `notify_wakes` and the queue's `enqueued`, with no
/// notification slot in between.
#[test]
fn cq_completions_count_into_endpoint_and_queue_stats() {
    const N: u64 = 100;
    let ep = RvmaEndpoint::new(NodeAddr::node(1));
    let vaddr = VirtAddr::new(0x30);
    let win = ep.init_window(vaddr, Threshold::ops(1)).unwrap();
    let cq = CompletionQueue::new(256);
    for k in 0..N {
        if k % 2 == 0 {
            win.post_pooled_cq(8, &cq, k).unwrap();
        } else {
            win.post_buffer_cq(vec![0u8; 8], &cq, k).unwrap();
        }
    }
    for k in 0..N {
        let r = ep.deliver_slice(NodeAddr::node(2), k, vaddr, 8, 0, &[k as u8; 8]);
        assert_eq!(
            r,
            DeliverResult::Ok {
                completed_epoch: true
            }
        );
    }
    let mut out = Vec::new();
    assert_eq!(cq.poll_batch(2 * N as usize, &mut out), N as usize);
    for (k, c) in out.iter().enumerate() {
        assert_eq!(c.user, k as u64, "FIFO across the two CQ post kinds");
        assert_eq!(c.buffer.data(), &[k as u8; 8]);
    }
    let stats = ep.stats();
    assert_eq!(stats.cq_completions, N);
    assert_eq!(stats.notify_wakes, N);
    assert_eq!(stats.epochs_completed, N);
    assert_eq!(cq.stats().enqueued, N);
}

/// Closing a window with CQ posts outstanding hands their buffers back,
/// later puts NACK `WindowClosed`, and nothing ever reaches the queue.
#[test]
fn close_returns_cq_posts_without_pushing() {
    const K: usize = 5;
    let ep = RvmaEndpoint::new(NodeAddr::node(1));
    let vaddr = VirtAddr::new(0x40);
    let win = ep.init_window(vaddr, Threshold::bytes(8)).unwrap();
    let cq = CompletionQueue::new(16);
    for k in 0..K as u64 {
        win.post_buffer_cq(vec![k as u8; 8], &cq, k).unwrap();
    }
    // A partial put into the active buffer: it is returned too.
    assert_eq!(
        ep.deliver_slice(NodeAddr::node(2), 1, vaddr, 4, 0, &[9; 4]),
        DeliverResult::Ok {
            completed_epoch: false
        }
    );
    let bufs = win.close();
    assert_eq!(bufs.len(), K);
    assert_eq!(bufs[0], [9, 9, 9, 9, 0, 0, 0, 0]);
    for (k, b) in bufs.iter().enumerate().skip(1) {
        assert_eq!(b, &vec![k as u8; 8], "posting order");
    }
    assert_eq!(
        ep.deliver_slice(NodeAddr::node(2), 2, vaddr, 8, 0, &[1; 8]),
        DeliverResult::Nack(NackReason::WindowClosed)
    );
    assert!(win.post_pooled_cq(8, &cq, 99).is_err());
    let mut out = Vec::new();
    assert_eq!(cq.poll_batch(16, &mut out), 0);
    assert_eq!(cq.depth(), 0);
    assert_eq!(cq.stats().enqueued, 0);
    let stats = ep.stats();
    assert_eq!(stats.cq_completions, 0);
    assert_eq!(stats.notify_wakes, 0);
}

#[test]
fn cq_ready_future_wakes_consumer() {
    let net = AsyncNetwork::default_network();
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(9), Threshold::ops(1))
        .unwrap();
    let cq = CompletionQueue::new(16);
    win.post_pooled_cq(8, &cq, 42).unwrap();
    client
        .put(NodeAddr::node(1), VirtAddr::new(9), &[3u8; 8])
        .unwrap();
    block_on(cq.ready());
    let mut out = Vec::new();
    assert_eq!(cq.poll_batch(16, &mut out), 1);
    assert_eq!(out[0].user, 42);
    assert_eq!(out[0].buffer.data(), &[3u8; 8]);
}

#[test]
fn put_notify_resolves_at_local_completion() {
    let net = AsyncNetwork::new(64, DeliveryOrder::OutOfOrder { seed: 11 }, Duration::ZERO);
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(0x20), Threshold::bytes(1024))
        .unwrap();
    let note_fut = win.post_buffer_async(vec![0u8; 1024]).unwrap();
    let payload: Vec<u8> = (0..1024u32).map(|i| (i % 250) as u8).collect();
    // 1024 bytes over a 64-byte MTU: 16 fragments behind one future.
    let put_fut =
        rvma_put_notify(&client, &payload, NodeAddr::node(1), VirtAddr::new(0x20)).unwrap();
    let delivery = block_on(put_fut);
    assert_eq!(delivery.fragments, 16);
    assert!(!delivery.nacked);
    // Local completion implies the fragments were delivered, which (at
    // threshold) implies the receiver's completion is also observable.
    assert_eq!(block_on(note_fut).data(), payload.as_slice());
}

#[test]
fn put_notify_reports_nack() {
    let net = AsyncNetwork::default_network();
    let _server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    // Mailbox 0x999 was never opened: every fragment NACKs NoSuchMailbox,
    // and the future still resolves (delivery reached final disposition).
    let fut = client
        .put_notify(NodeAddr::node(1), VirtAddr::new(0x999), &[0u8; 32])
        .unwrap();
    let delivery = block_on(fut);
    assert_eq!(delivery.fragments, 1);
    assert!(delivery.nacked);
    net.quiesce();
    assert_eq!(client.take_nacks().len(), 1);
}

#[test]
fn async_stats_flow_into_snapshot() {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(2), Threshold::ops(1))
        .unwrap();
    let fut = rvma_post_buffer_async(&win, vec![0u8; 16]).unwrap();
    client
        .put(NodeAddr::node(1), VirtAddr::new(2), &[8u8; 16])
        .unwrap();
    let _ = block_on(fut);
    let stats = server.stats();
    // The inline network completes before the first poll: the wake funnel
    // may or may not fire depending on timing, but the counters must be
    // coherent.
    assert_eq!(stats.futures_dropped, 0);
    assert_eq!(stats.cq_completions, 0);
}

#[test]
fn blocking_and_async_paths_coexist_on_one_window() {
    // A/B selectability: the same window serves a blocking post, an async
    // post, and a CQ post, in that epoch order.
    let net = AsyncNetwork::default_network();
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(4), Threshold::ops(1))
        .unwrap();
    let cq = CompletionQueue::new(4);
    let mut blocking = win.post_buffer(vec![0u8; 8]).unwrap();
    let async_fut = win.post_buffer_async(vec![0u8; 8]).unwrap();
    win.post_buffer_cq(vec![0u8; 8], &cq, 7).unwrap();
    for v in 1..=3u8 {
        client
            .put(NodeAddr::node(1), VirtAddr::new(4), &[v; 8])
            .unwrap();
    }
    assert_eq!(blocking.wait().data(), &[1u8; 8]);
    assert_eq!(block_on(async_fut).data(), &[2u8; 8]);
    let mut out = Vec::new();
    let n = cq.wait_batch(4, &mut out, Duration::from_secs(10));
    assert_eq!(n, 1);
    assert_eq!(out[0].buffer.data(), &[3u8; 8]);
}

#[test]
fn zero_length_put_notify_resolves_on_threaded_path() {
    // Audit regression (no-wire-payload puts): a zero-length put must
    // still count as one fragment so the PutFuture countdown reaches its
    // final disposition instead of hanging at a zero-initialised counter.
    let net = AsyncNetwork::default_network();
    let server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let win = server
        .init_window(VirtAddr::new(0x60), Threshold::ops(2))
        .unwrap();
    let _note = win.post_buffer(vec![0u8; 64]).unwrap();
    let empty = client
        .put_notify(NodeAddr::node(1), VirtAddr::new(0x60), &[])
        .unwrap();
    let done = block_on(empty);
    assert_eq!(done.fragments, 1, "empty put is one counted wire fragment");
    assert!(!done.nacked);
    // And it participates in op-counted thresholds like any other put.
    let second = client
        .put_notify(NodeAddr::node(1), VirtAddr::new(0x60), &[3u8; 16])
        .unwrap();
    assert!(!block_on(second).nacked);
}

#[test]
fn zero_length_put_notify_nack_resolves_too() {
    // The other disposition: an empty put at an unbound mailbox must
    // resolve (as NACKed), not strand the future.
    let net = AsyncNetwork::default_network();
    let _server = net.add_endpoint(NodeAddr::node(1));
    let client = net.initiator(NodeAddr::node(2));
    let fut = client
        .put_notify(NodeAddr::node(1), VirtAddr::new(0x61), &[])
        .unwrap();
    let done = block_on(fut);
    assert_eq!(done.fragments, 1);
    assert!(done.nacked, "unbound mailbox NACKs the empty put");
}
