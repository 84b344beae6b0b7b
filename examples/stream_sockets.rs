//! Receiver-Managed RVMA: the sockets-like mode (paper Sec. IV-B).
//!
//! In `Managed` mode the receiver assigns placement: arrivals are appended
//! at a cursor, like a TCP stream filling a recv buffer, and the epoch
//! completes when the buffer fills (or early, via `inc_epoch`, when the
//! application wants whatever has arrived so far — the unknown-message-size
//! case of `RVMA_Win_inc_epoch`).
//!
//! Run with: `cargo run --example stream_sockets`

use rvma::core::{
    FaultModel, LossyNetwork, MailboxMode, NodeAddr, Threshold, VirtAddr, DEFAULT_MTU,
};

fn main() -> Result<(), rvma::core::RvmaError> {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let port = VirtAddr::from_net_port(0x7F00_0001, 8080);

    // A stream "socket": 4 KiB receive buffers, receiver-assigned placement.
    let win = server.init_window_mode(port, Threshold::bytes(4096), MailboxMode::Managed)?;

    // The client writes three segments of different sizes — no offsets.
    let mut n0 = win.post_buffer(vec![0u8; 4096])?;
    client.put(NodeAddr::node(0), port, b"GET /index.html HTTP/1.1\r\n")?;
    client.put(NodeAddr::node(0), port, b"Host: rvma.example\r\n")?;
    client.put(NodeAddr::node(0), port, b"\r\n")?;

    // The server doesn't know the request size in advance: it takes
    // whatever has arrived so far (stream semantics).
    win.inc_epoch()?;
    let buf = n0.poll().expect("partial buffer handed to software");
    let text = std::str::from_utf8(buf.data()).expect("utf8");
    println!(
        "server got {} bytes (epoch {}):\n{text}",
        buf.len(),
        buf.epoch()
    );
    assert!(text.starts_with("GET /index.html"));
    assert!(text.ends_with("\r\n\r\n"));

    // Next epoch continues the stream in a fresh buffer, cursor reset.
    let mut n1 = win.post_buffer(vec![0u8; 4096])?;
    client.put(NodeAddr::node(0), port, b"POST /data HTTP/1.1\r\n\r\n")?;
    win.inc_epoch()?;
    let buf = n1.poll().expect("second request");
    println!(
        "second request, {} bytes: {:?}",
        buf.len(),
        std::str::from_utf8(buf.data()).unwrap()
    );
    Ok(())
}
