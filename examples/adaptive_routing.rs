//! Adaptive routing demo: RVMA completes correctly in ANY packet order.
//!
//! The paper's central correctness claim (Sec. IV-D): because placement
//! uses offsets and completion uses counts, an RVMA buffer "could be
//! written in reverse order with no performance impact" — no byte-level
//! network ordering is needed. This example sends the same payload over an
//! in-order threaded network and over an out-of-order one (the
//! adaptive-routing emulation: each put's fragments are shuffled) and shows
//! bit-identical results, then demonstrates a many-to-one op-counted window
//! fed by 8 concurrent senders.
//!
//! Run with: `cargo run --example adaptive_routing`

use rvma::core::{AsyncNetwork, DeliveryOrder, NodeAddr, Threshold, VirtAddr};
use std::time::Duration;

fn one_transfer(order: DeliveryOrder) -> Vec<u8> {
    // Tiny MTU so a 4 KiB message becomes 64 fragments worth shuffling.
    let net = AsyncNetwork::new(64, order, Duration::ZERO);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let win = server
        .init_window(VirtAddr::new(0xF00D), Threshold::bytes(4096))
        .expect("window");
    let mut note = win.post_buffer(vec![0u8; 4096]).expect("post");

    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    client
        .put(NodeAddr::node(0), VirtAddr::new(0xF00D), &payload)
        .expect("put");
    note.wait().data().to_vec()
}

fn main() {
    let ordered = one_transfer(DeliveryOrder::InOrder);
    let shuffled = one_transfer(DeliveryOrder::OutOfOrder { seed: 2026 });
    assert_eq!(ordered, shuffled);
    println!(
        "4096-byte message, 64 fragments: in-order and out-of-order delivery \
         produced identical buffers ({} bytes) — no fence needed.",
        ordered.len()
    );

    // Many-to-one: 8 concurrent senders, one op-counted window. The
    // receiver dedicates nothing per client (the paper's many-to-one
    // motivation) and wakes once, when the 8th op lands.
    let order = DeliveryOrder::OutOfOrder { seed: 7 };
    let net = AsyncNetwork::new(64, order, Duration::ZERO);
    let server = net.add_endpoint(NodeAddr::node(0));
    let win = server
        .init_window(VirtAddr::new(0xBEEF), Threshold::ops(8))
        .expect("window");
    let mut note = win.post_buffer(vec![0u8; 8 * 64]).expect("post");

    std::thread::scope(|s| {
        for t in 0..8u32 {
            let client = net.initiator(NodeAddr::node(t + 1));
            s.spawn(move || {
                client
                    .put_at(
                        NodeAddr::node(0),
                        VirtAddr::new(0xBEEF),
                        t as usize * 64,
                        &[t as u8 + 1; 64],
                    )
                    .expect("put");
            });
        }
    });
    let buf = note.wait();
    net.quiesce(); // the endpoint publishes its counters after the completion
    println!(
        "many-to-one: 8 senders, op threshold 8 -> one completion, epoch {}, \
         slots = {:?}",
        buf.epoch(),
        (0..8)
            .map(|i| buf.full_buffer()[i * 64])
            .collect::<Vec<_>>()
    );
    let stats = server.stats();
    println!(
        "endpoint stats: {} fragments, {} bytes, {} epochs completed",
        stats.fragments_accepted, stats.bytes_accepted, stats.epochs_completed
    );
}
