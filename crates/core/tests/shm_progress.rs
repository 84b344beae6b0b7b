//! Progress rules of the shared-memory client, whose response ring is
//! drained by the thread waiting on it (a `PutFuture` poll, a `flush`)
//! rather than by a helper thread: a future outstanding when the server
//! dies still resolves, a client that never polls anything still makes
//! progress with both rings full, and two waiters draining one ring each
//! get every ack — their own or one the other thread drained for them.

use rvma_core::{
    shm_pair, shm_supported, EndpointConfig, NodeAddr, Notification, ShmClient, ShmServer,
    Threshold, VirtAddr,
};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SERVER: NodeAddr = NodeAddr::node(0);
const CLIENT: NodeAddr = NodeAddr::node(1);

/// Set to a segment path, it makes this test binary the server process of
/// [`pending_put_future_fails_when_server_dies`].
const SERVER_ENV: &str = "RVMA_SHM_PROGRESS_SERVER";

/// Server role: runs only when the parent re-execs this test binary with
/// `RVMA_SHM_PROGRESS_SERVER` set, and hosts a server on that path until
/// the parent kills it (the sleep only bounds an orphan).
#[test]
fn server_process_until_killed() {
    let Ok(path) = std::env::var(SERVER_ENV) else {
        return;
    };
    let _server = ShmServer::create(Path::new(&path), 64, EndpointConfig::default())
        .expect("the server process creates the segment");
    std::thread::sleep(Duration::from_secs(30));
}

#[test]
fn pending_put_future_fails_when_server_dies() {
    if !shm_supported() {
        return;
    }
    let path = rvma_core::shm::default_segment_path("progress");
    let mut server = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "server_process_until_killed", "--nocapture"])
        .env(SERVER_ENV, &path)
        .spawn()
        .expect("spawn the server process");
    let client = ShmClient::connect(&path, CLIENT).expect("connect to the server process");
    server.kill().unwrap();
    server.wait().unwrap();
    // A killed server never stopped, so its request ring is open and the
    // put is accepted, but no worker is left to ack it: only the
    // peer-death check can resolve the future.
    let fut = client
        .put_notify(SERVER, VirtAddr::new(0x10), &[1u8; 8])
        .unwrap();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(pollster::block_on(fut));
    });
    let done = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a future outstanding at server death resolves");
    assert!(done.nacked, "an unacked put resolves NACKed");
    waiter.join().unwrap();
    // The dead creator never unlinked its segment.
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unpolled_rendezvous_puts_make_progress() {
    if !shm_supported() {
        return;
    }
    // Four slots each way and every non-empty put on the rendezvous lane:
    // each put's ack must be drained to release its extent, and the
    // response ring fills within four puts.
    let cfg = EndpointConfig {
        shm_req_slots: 4,
        shm_rsp_slots: 4,
        eager_threshold: 0,
        ..Default::default()
    };
    const PUTS: usize = 10_000;
    const LEN: usize = 1024;
    let (server, client) = shm_pair(256, cfg, CLIENT).unwrap();
    let ep = server.add_endpoint(SERVER);
    let win = ep
        .init_window(VirtAddr::new(0x20), Threshold::bytes((PUTS * LEN) as u64))
        .unwrap();
    let mut note: Notification = win.post_buffer(vec![0u8; PUTS * LEN]).unwrap();
    let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    // Timed from the first put: a client that stalls on the pump's tick
    // whenever the rings fill takes far longer.
    let t0 = Instant::now();
    for i in 0..PUTS {
        client
            .put_at(SERVER, VirtAddr::new(0x20), i * LEN, &payload)
            .unwrap();
    }
    client.flush().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "puts + flush took {:?}",
        t0.elapsed()
    );
    let stats = client.bulk_stats();
    assert_eq!(stats.reserved_bytes, stats.released_bytes, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    let buf = note.poll().expect("every put landed before the flush ack");
    assert!(buf.data().chunks_exact(LEN).all(|c| c == &payload[..]));
}

#[test]
fn concurrent_waiters_share_the_response_ring() {
    if !shm_supported() {
        return;
    }
    const PER_THREAD: usize = 10_000;
    let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
    let ep = server.add_endpoint(SERVER);
    let win = ep
        .init_window(VirtAddr::new(0x30), Threshold::ops(u64::MAX))
        .unwrap();
    let _note = win.post_buffer(vec![0u8; 64]).unwrap();
    std::thread::scope(|s| {
        for t in 0..2u8 {
            let client = &client;
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    let fut = client
                        .put_notify(SERVER, VirtAddr::new(0x30), &[t; 64])
                        .unwrap();
                    let done = pollster::block_on(fut);
                    assert!(!done.nacked, "thread {t}: put NACKed");
                    assert_eq!(done.fragments, 1);
                }
            });
        }
    });
    client.flush().unwrap();
    assert!(client.take_nacks().is_empty());
    assert_eq!(server.delivered(), 2 * PER_THREAD as u64);
}
