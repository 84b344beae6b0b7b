//! Multi-threaded stress of the sharded datapath: many senders through
//! `AsyncNetwork` worker pools, to disjoint and to shared mailboxes, and
//! direct `RvmaEndpoint::deliver` callers racing into one mailbox.
//!
//! Invariants checked:
//! * no lost bytes — every completed buffer carries exactly the payload the
//!   senders submitted;
//! * no double completions — epochs advance exactly once per threshold, and
//!   endpoint stats agree with the submitted totals;
//! * per-mailbox ordering survives the worker pool (Managed-mode stream);
//! * threads sharing one initiator handle — an `AsyncInitiator` over a
//!   worker pool, or a `ShmClient` over its MPSC request ring — lose
//!   nothing and NACK nothing;
//! * one delivery path — direct callers are serialised by the mailbox lock,
//!   so overlapping writes never tear and `close` accounts for every buffer.

use rvma::core::transport::DeliveryOrder;
use rvma::core::{
    shm_pair, shm_supported, AsyncNetwork, Bytes, DeliverResult, EndpointConfig, Fragment,
    MailboxMode, NackReason, NodeAddr, RvmaEndpoint, Threshold, Transport, VirtAddr,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SENDERS: usize = 8;

/// 8 senders, each with its own mailbox, racing through a 4-worker pool:
/// every byte lands, every epoch completes exactly once.
#[test]
fn disjoint_mailboxes_lose_nothing() {
    const PUTS: usize = 16;
    const MSG: usize = 2048;
    let net = AsyncNetwork::with_options(256, DeliveryOrder::InOrder, Duration::ZERO, 4);
    let server = net.add_endpoint(NodeAddr::node(0));

    let mut notes = Vec::new();
    for i in 0..SENDERS {
        let win = server
            .init_window(VirtAddr::new(i as u64), Threshold::bytes(MSG as u64))
            .unwrap();
        notes.push(win.post_buffers(vec![vec![0u8; MSG]; PUTS]).unwrap());
    }

    std::thread::scope(|s| {
        for i in 0..SENDERS {
            let init = net.initiator(NodeAddr::node(i as u32 + 1));
            s.spawn(move || {
                for p in 0..PUTS {
                    // Payload identifies (sender, put) so corruption or
                    // cross-delivery is detectable.
                    let payload = vec![(i * PUTS + p) as u8; MSG];
                    init.put(NodeAddr::node(0), VirtAddr::new(i as u64), &payload)
                        .unwrap();
                }
            });
        }
    });

    for (i, sender_notes) in notes.iter_mut().enumerate() {
        for (p, n) in sender_notes.iter_mut().enumerate() {
            let buf = n.wait();
            assert_eq!(buf.epoch(), p as u64, "double or skipped completion");
            assert_eq!(
                buf.data(),
                vec![(i * PUTS + p) as u8; MSG].as_slice(),
                "lost or corrupted bytes (sender {i}, put {p})"
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.epochs_completed, (SENDERS * PUTS) as u64);
    assert_eq!(stats.bytes_accepted, (SENDERS * PUTS * MSG) as u64);
    assert_eq!(stats.fragments_discarded, 0);
}

/// 8 senders converging on ONE shared mailbox at disjoint offsets, through
/// an 8-worker pool that shards by mailbox, so one worker places every
/// put: the epoch completes exactly once with every region intact.
#[test]
fn shared_mailbox_disjoint_offsets() {
    const REGION: usize = 4096; // per-sender slice of the shared buffer
    let net = AsyncNetwork::with_options(512, DeliveryOrder::InOrder, Duration::ZERO, 8);
    let server = net.add_endpoint(NodeAddr::node(0));
    let win = server
        .init_window(
            VirtAddr::new(42),
            Threshold::bytes((SENDERS * REGION) as u64),
        )
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; SENDERS * REGION]).unwrap();

    std::thread::scope(|s| {
        for i in 0..SENDERS {
            let init = net.initiator(NodeAddr::node(i as u32 + 1));
            s.spawn(move || {
                // Each sender fills its region with 4 puts of REGION/4.
                let step = REGION / 4;
                for k in 0..4 {
                    let payload = vec![i as u8 + 1; step];
                    init.put_at(
                        NodeAddr::node(0),
                        VirtAddr::new(42),
                        i * REGION + k * step,
                        &payload,
                    )
                    .unwrap();
                }
            });
        }
    });

    let buf = note.wait();
    for i in 0..SENDERS {
        assert_eq!(
            &buf.data()[i * REGION..(i + 1) * REGION],
            vec![i as u8 + 1; REGION].as_slice(),
            "sender {i}'s region lost bytes"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.epochs_completed, 1, "double completion");
    assert_eq!(stats.bytes_accepted, (SENDERS * REGION) as u64);
}

/// Mixed workload: half the senders hammer a shared op-counted mailbox,
/// half stream to private mailboxes, across a 4-worker pool.
#[test]
fn mixed_shared_and_private_mailboxes() {
    const OPS_PER_SENDER: usize = 32;
    let net = AsyncNetwork::with_options(128, DeliveryOrder::InOrder, Duration::ZERO, 4);
    let server = net.add_endpoint(NodeAddr::node(0));

    // Shared mailbox completes on an op count from 4 writers.
    let shared_total = 4 * OPS_PER_SENDER;
    let shared = server
        .init_window(VirtAddr::new(100), Threshold::ops(shared_total as u64))
        .unwrap();
    let mut shared_note = shared.post_buffer(vec![0u8; shared_total * 16]).unwrap();

    // Private mailboxes complete on bytes.
    let mut private_notes = Vec::new();
    for i in 0..4u64 {
        let win = server
            .init_window(VirtAddr::new(i), Threshold::bytes(1024))
            .unwrap();
        private_notes.push(win.post_buffer(vec![0u8; 1024]).unwrap());
    }

    std::thread::scope(|s| {
        for i in 0..4usize {
            // Shared-mailbox writers, disjoint 16-byte slots.
            let init = net.initiator(NodeAddr::node(i as u32 + 1));
            s.spawn(move || {
                for k in 0..OPS_PER_SENDER {
                    let slot = (i * OPS_PER_SENDER + k) * 16;
                    init.put_at(NodeAddr::node(0), VirtAddr::new(100), slot, &[0xAB; 16])
                        .unwrap();
                }
            });
            // Private-mailbox writers.
            let init = net.initiator(NodeAddr::node(i as u32 + 10));
            s.spawn(move || {
                init.put(NodeAddr::node(0), VirtAddr::new(i as u64), &[i as u8; 1024])
                    .unwrap();
            });
        }
    });

    let buf = shared_note.wait();
    assert!(buf.data().iter().all(|&b| b == 0xAB), "lost shared bytes");
    for (i, n) in private_notes.iter_mut().enumerate() {
        assert_eq!(n.wait().data(), vec![i as u8; 1024].as_slice());
    }
    assert_eq!(server.stats().epochs_completed, 5);
}

/// Ordering stress: a Managed (cursor-append) stream must arrive in
/// submission order even through the widest pool.
#[test]
fn managed_stream_order_survives_worker_pool() {
    let net = AsyncNetwork::with_options(32, DeliveryOrder::InOrder, Duration::ZERO, 8);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let win = server
        .init_window_mode(
            VirtAddr::new(7),
            Threshold::bytes(4096),
            MailboxMode::Managed,
        )
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; 4096]).unwrap();
    let expected: Vec<u8> = (0..4096usize).map(|i| (i / 64) as u8).collect();
    for chunk in expected.chunks(64) {
        client
            .put(NodeAddr::node(0), VirtAddr::new(7), chunk)
            .unwrap();
    }
    assert_eq!(note.wait().data(), expected.as_slice());
}

/// T threads put through ONE initiator handle into shared mailboxes at
/// disjoint offsets, epoch by epoch (a barrier between epochs keeps each
/// epoch's puts ahead of the next one's on the wire). Every epoch must
/// complete byte-exact, `fragments_accepted` must be exact, and nothing
/// may NACK.
fn concurrent_puts_through_one_initiator(server: &Arc<RvmaEndpoint>, init: &dyn Transport) {
    const THREADS: usize = 4;
    const MAILBOXES: u64 = 4;
    const EPOCHS: usize = 8;
    const SLICE: usize = 96; // one fragment at MTU 256
    let byte = |t: usize, e: usize, m: u64| (t * 61 + e * 7 + m as usize * 3 + 1) as u8;
    let mut notes = Vec::new();
    for m in 0..MAILBOXES {
        let win = server
            .init_window(VirtAddr::new(m), Threshold::bytes((THREADS * SLICE) as u64))
            .unwrap();
        notes.push(
            win.post_buffers(vec![vec![0u8; THREADS * SLICE]; EPOCHS])
                .unwrap(),
        );
    }
    let before = server.stats();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                for e in 0..EPOCHS {
                    for m in 0..MAILBOXES {
                        init.put_at(
                            server.addr(),
                            VirtAddr::new(m),
                            t * SLICE,
                            &[byte(t, e, m); SLICE],
                        )
                        .unwrap();
                    }
                    barrier.wait();
                }
            });
        }
    });
    init.flush().unwrap();
    for (m, epochs) in notes.iter_mut().enumerate() {
        for (e, n) in epochs.iter_mut().enumerate() {
            let buf = n.poll().expect("the flush saw every epoch complete");
            assert_eq!(buf.epoch(), e as u64, "double or skipped completion");
            for t in 0..THREADS {
                assert_eq!(
                    &buf.data()[t * SLICE..(t + 1) * SLICE],
                    [byte(t, e, m as u64); SLICE].as_slice(),
                    "thread {t}'s slice of mailbox {m}, epoch {e}"
                );
            }
        }
    }
    let after = server.stats();
    let puts = (THREADS * EPOCHS) as u64 * MAILBOXES;
    assert_eq!(after.fragments_accepted - before.fragments_accepted, puts);
    assert_eq!(
        after.epochs_completed - before.epochs_completed,
        EPOCHS as u64 * MAILBOXES
    );
    assert!(init.take_nacks().is_empty(), "no put may be refused");
}

#[test]
fn concurrent_initiators_share_one_transport() {
    let net = AsyncNetwork::with_options(256, DeliveryOrder::InOrder, Duration::ZERO, 2);
    let server = net.add_endpoint(NodeAddr::node(0));
    concurrent_puts_through_one_initiator(&server, &net.initiator(NodeAddr::node(1)));
    if shm_supported() {
        let (shm, client) = shm_pair(256, EndpointConfig::default(), NodeAddr::node(1)).unwrap();
        let server = shm.add_endpoint(NodeAddr::node(0));
        concurrent_puts_through_one_initiator(&server, &client);
    }
}

fn direct_frag(vaddr: u64, op_id: u64, offset: usize, data: Vec<u8>) -> Fragment {
    Fragment {
        initiator: NodeAddr::node(1),
        op_id,
        dst_vaddr: VirtAddr::new(vaddr),
        op_total_len: data.len() as u64,
        offset,
        data: Bytes::from(data),
    }
}

/// N direct callers each deliver one full-range fragment of their own byte
/// pattern into ONE mailbox, round after round. The mailbox lock
/// serialises the copies: each round completes exactly once, and its
/// buffer holds exactly one writer's pattern, never a mix.
#[test]
fn overlapping_direct_delivers_never_tear() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 16;
    const LEN: usize = 256 << 10;
    let ep = RvmaEndpoint::new(NodeAddr::node(0));
    let win = ep
        .init_window(VirtAddr::new(9), Threshold::ops(WRITERS as u64))
        .unwrap();
    let mut notes = win.post_buffers(vec![vec![0u8; LEN]; ROUNDS]).unwrap();
    let barrier = Barrier::new(WRITERS);

    let completions: usize = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (ep, barrier) = (&ep, &barrier);
                s.spawn(move || {
                    let mut completed = 0;
                    for r in 0..ROUNDS {
                        barrier.wait();
                        let op_id = (r * WRITERS + t) as u64;
                        let f = direct_frag(9, op_id, 0, vec![t as u8 + 1; LEN]);
                        match ep.deliver(&f) {
                            DeliverResult::Ok { completed_epoch } => {
                                completed += completed_epoch as usize
                            }
                            other => panic!("round {r}, writer {t}: {other:?}"),
                        }
                        // Nobody starts round r + 1 before round r is placed.
                        barrier.wait();
                    }
                    completed
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    assert_eq!(completions, ROUNDS, "one completion per round");
    assert_eq!(ep.stats().epochs_completed, ROUNDS as u64);
    for (r, n) in notes.iter_mut().enumerate() {
        let buf = n.poll().expect("round completed");
        let first = buf.data()[0];
        assert!(
            (1..=WRITERS as u8).contains(&first) && buf.data().iter().all(|&b| b == first),
            "round {r}: the buffer mixes writers' bytes"
        );
    }
}

/// 4 direct callers stream fragments into a mailbox with K buffers posted
/// while the host closes it mid-stream. The callers carry at most K/2
/// epochs of bytes, so half the buffers at least are left for `close`.
/// Every buffer is either completed or handed back by `close` (the
/// active one included), and no notification still pending when `close`
/// returns ever completes. Repeated, because the close has to land
/// while a copy is in flight to test anything.
#[test]
fn close_racing_direct_delivers_accounts_for_every_buffer() {
    for _ in 0..16 {
        close_race_trial();
    }
}

fn close_race_trial() {
    const K: usize = 32;
    const FRAG: usize = 128 << 10;
    const THREADS: usize = 4;
    let ep = RvmaEndpoint::new(NodeAddr::node(0));
    let win = ep
        .init_window(VirtAddr::new(5), Threshold::bytes((THREADS * FRAG) as u64))
        .unwrap();
    let notes = win
        .post_buffers(vec![vec![0u8; THREADS * FRAG]; K])
        .unwrap();

    let finished = AtomicUsize::new(0);
    let (returned, pending) = std::thread::scope(|s| {
        for t in 0..THREADS {
            let (ep, finished) = (&ep, &finished);
            s.spawn(move || {
                // Deliver until the window reports closed.
                for k in 0..(K / 2) as u64 {
                    let f = direct_frag(
                        5,
                        k * THREADS as u64 + t as u64,
                        t * FRAG,
                        vec![t as u8; FRAG],
                    );
                    match ep.deliver(&f) {
                        DeliverResult::Nack(NackReason::WindowClosed) => break,
                        DeliverResult::Ok { .. } => {}
                        other => panic!("writer {t}: {other:?}"),
                    }
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Close mid-stream, once a quarter of the buffers have completed
        // (or every writer is done, so a stalled epoch fails, not hangs).
        while ep.stats().epochs_completed < (K / 4) as u64
            && finished.load(Ordering::Relaxed) < THREADS
        {
            std::thread::yield_now();
        }
        let returned = win.close();
        let pending: Vec<usize> = (0..K).filter(|&i| !notes[i].is_complete()).collect();
        (returned, pending)
    });

    let completed = notes.iter().filter(|n| n.is_complete()).count();
    assert_eq!(
        completed + returned.len(),
        K,
        "a buffer was neither completed nor returned by close"
    );
    assert_eq!(
        pending.len(),
        returned.len(),
        "close did not hand back every pending buffer"
    );
    assert!(
        pending.iter().all(|&i| !notes[i].is_complete()),
        "a notification pending at close completed afterwards"
    );
    assert!(returned.iter().all(|b| b.len() == THREADS * FRAG));
    assert_eq!(ep.stats().epochs_completed, completed as u64);
}
