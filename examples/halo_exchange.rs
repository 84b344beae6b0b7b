//! A real multi-threaded halo exchange over RVMA.
//!
//! Four workers arranged in a 2×2 grid run a Jacobi-style iteration: each
//! owns a tile, exchanges edge halos with its neighbours through RVMA
//! mailboxes (one mailbox per incoming edge), and averages. This is the
//! library used as an actual communication layer — threads as "nodes",
//! offsets-as-placement, pre-posted buffer buckets as the iteration
//! pipeline — not a timing simulation.
//!
//! Run with: `cargo run --example halo_exchange`

use rvma::core::{
    FaultModel, LossyNetwork, NodeAddr, Notification, Threshold, VirtAddr, Window, DEFAULT_MTU,
};
use std::sync::Arc;

const N: usize = 64; // tile edge (elements)
const ITERS: usize = 20;
const GRID: usize = 2; // 2x2 workers

/// Mailbox address for halos flowing `from` → `to`. One mailbox per
/// directed neighbour pair; epochs handle per-iteration buffer rotation,
/// so the address never changes.
fn halo_addr(from: usize, to: usize) -> VirtAddr {
    VirtAddr::from_net_port(from as u32, to as u32)
}

fn neighbors(rank: usize) -> Vec<usize> {
    let (x, y) = (rank % GRID, rank / GRID);
    let mut out = Vec::new();
    if x + 1 < GRID {
        out.push(rank + 1);
    }
    if x > 0 {
        out.push(rank - 1);
    }
    if y + 1 < GRID {
        out.push(rank + GRID);
    }
    if y > 0 {
        out.push(rank - GRID);
    }
    out
}

struct Inbox {
    _window: Window,
    /// Pre-posted bucket: notification for iteration i at index i.
    pending: Vec<Notification>,
}

fn main() {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);

    // Register endpoints and, per worker, one window per incoming
    // neighbour with ITERS pre-posted buffers (a deep bucket: senders
    // never wait on the receiver).
    let mut inboxes: Vec<Vec<(usize, Inbox)>> = Vec::new();
    for rank in 0..GRID * GRID {
        let ep = net.add_endpoint(NodeAddr::node(rank as u32));
        let mut windows = Vec::new();
        for from in neighbors(rank) {
            let window = ep
                .init_window(halo_addr(from, rank), Threshold::bytes((N * 8) as u64))
                .expect("window");
            let pending = window
                .post_buffers(vec![vec![0u8; N * 8]; ITERS])
                .expect("post bucket");
            windows.push((
                from,
                Inbox {
                    _window: window,
                    pending,
                },
            ));
        }
        inboxes.push(windows);
    }

    let results: Vec<f64> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (rank, windows) in inboxes.into_iter().enumerate() {
            let net: Arc<LossyNetwork> = net.clone();
            handles.push(s.spawn(move || worker(rank, windows, net)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    println!("final tile means: {results:?}");
    // Jacobi averaging pulls every tile toward the global mean.
    let avg = results.iter().sum::<f64>() / results.len() as f64;
    assert!(results.iter().all(|m| (m - avg).abs() < 1.0));
    println!(
        "halo exchange over RVMA: {ITERS} iterations, {} workers, OK",
        GRID * GRID
    );
}

fn worker(rank: usize, mut windows: Vec<(usize, Inbox)>, net: Arc<LossyNetwork>) -> f64 {
    let init = net.initiator(NodeAddr::node(rank as u32));
    let mut tile = vec![rank as f64 * 100.0; N];

    for iter in 0..ITERS {
        // Send my edge to each neighbour's mailbox for me.
        let edge: Vec<u8> = tile.iter().flat_map(|v| v.to_le_bytes()).collect();
        for (peer, _) in &windows {
            init.put(NodeAddr::node(*peer as u32), halo_addr(rank, *peer), &edge)
                .expect("halo put");
        }
        // Wait for this iteration's halo from every neighbour. Epoch order
        // is FIFO over the pre-posted bucket, so index = iteration.
        let mut incoming = Vec::new();
        for (_, inbox) in &mut windows {
            let buf = inbox.pending[iter].wait();
            debug_assert_eq!(buf.epoch() as usize, iter);
            incoming.push(
                buf.data()
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect::<Vec<f64>>(),
            );
        }
        // Jacobi-ish relaxation against the neighbour edges.
        for i in 0..N {
            let mut acc = tile[i];
            for h in &incoming {
                acc += h[i];
            }
            tile[i] = acc / (incoming.len() + 1) as f64;
        }
    }
    tile.iter().sum::<f64>() / N as f64
}
