//! Quickstart: the RVMA flow of paper Fig. 3, end to end.
//!
//! A receiver opens a window (a virtual mailbox address), posts buffers
//! with a byte threshold, and a sender puts data at it — no address
//! exchange, no handshake. The receiver learns of completion through the
//! buffer's own completion pointer.
//!
//! Run with: `cargo run --example quickstart`

use rvma::core::{FaultModel, LossyNetwork, NodeAddr, Threshold, VirtAddr, DEFAULT_MTU};

fn main() -> Result<(), rvma::core::RvmaError> {
    // A fault-free in-process "network" connecting endpoints (the software
    // NIC runs inline on the sender's thread).
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));

    // Receiver side: one mailbox; each posted buffer completes after 1 KiB.
    let mailbox = VirtAddr::from_net_port(0x0A00_0001, 4242); // IP/port-style
    let win = server.init_window(mailbox, Threshold::bytes(1024))?;

    // Post a bucket of two buffers: epoch 0 and epoch 1.
    let mut n0 = win.post_buffer(vec![0u8; 1024])?;
    let mut n1 = win.post_buffer(vec![0u8; 1024])?;
    println!("receiver: window {mailbox} open, 2 buffers posted");

    // Sender side: just put. The mailbox address is all it knows.
    client.put(NodeAddr::node(0), mailbox, &[7u8; 1024])?;
    println!("sender:   put #1 done (no handshake, no remote address)");

    // Receiver: the completion pointer for buffer 0 has been written.
    let buf = n0.poll().expect("epoch 0 complete");
    println!(
        "receiver: epoch {} complete, {} bytes, first byte {}",
        buf.epoch(),
        buf.len(),
        buf.data()[0]
    );

    // Two 512-byte puts with offsets assemble one contiguous 1 KiB message
    // in the *next* buffer of the bucket (paper Sec. III-B).
    client.put_at(NodeAddr::node(0), mailbox, 0, &[1u8; 512])?;
    client.put_at(NodeAddr::node(0), mailbox, 512, &[2u8; 512])?;
    let buf = n1.wait(); // Monitor/MWait-style wait
    println!(
        "receiver: epoch {} complete, halves = ({}, {})",
        buf.epoch(),
        buf.data()[0],
        buf.data()[1023]
    );
    assert_eq!(win.epoch(), 2);

    // Close the window: further puts are NACKed.
    win.close();
    let err = client
        .put(NodeAddr::node(0), mailbox, &[0u8; 16])
        .unwrap_err();
    println!("sender:   put after close -> {err}");
    Ok(())
}
