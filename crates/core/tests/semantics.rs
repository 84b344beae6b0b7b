//! Cross-module semantic scenarios: the paper's usage patterns exercised
//! through the public API, end to end.

use rvma_core::{
    wait_any, EndpointConfig, EpochType, FaultModel, LossyInitiator, LossyNetwork, MailboxMode,
    NackReason, NodeAddr, RvmaEndpoint, RvmaError, Threshold, VirtAddr,
};
use std::sync::Arc;

fn net_with_target() -> (Arc<LossyNetwork>, Arc<RvmaEndpoint>, LossyInitiator) {
    let net = LossyNetwork::new(128, FaultModel::NONE, 0);
    let target = net.add_endpoint(NodeAddr::node(0));
    let init = net.initiator(NodeAddr::node(1));
    (net, target, init)
}

#[test]
fn pipelined_epochs_with_rewind_reads() {
    // Producer streams epochs while the consumer occasionally reads
    // history — the fault-tolerance usage under steady state.
    let (_net, target, init) = net_with_target();
    let win = target
        .init_window(VirtAddr::new(1), Threshold::bytes(64))
        .unwrap();
    let mut notes = win.post_buffers(vec![vec![0; 64]; 8]).unwrap();
    for i in 0..8u8 {
        init.put(NodeAddr::node(0), VirtAddr::new(1), &[i + 1; 64])
            .unwrap();
        // History is readable while newer epochs stream in.
        if i >= 1 {
            let prev = win.rewind(2).unwrap();
            assert_eq!(prev.data(), vec![i; 64].as_slice());
        }
    }
    for (i, n) in notes.iter_mut().enumerate() {
        assert_eq!(n.poll().unwrap().data(), vec![i as u8 + 1; 64].as_slice());
    }
}

#[test]
fn wait_any_across_mailboxes() {
    // Fine-grained completion over two different windows on one endpoint:
    // a thread waits on exactly its chosen set.
    let (_net, target, init) = net_with_target();
    let w1 = target
        .init_window(VirtAddr::new(1), Threshold::bytes(16))
        .unwrap();
    let w2 = target
        .init_window(VirtAddr::new(2), Threshold::bytes(16))
        .unwrap();
    let n1 = w1.post_buffer(vec![0; 16]).unwrap();
    let n2 = w2.post_buffer(vec![0; 16]).unwrap();
    let mut set = vec![n1, n2];
    init.put(NodeAddr::node(0), VirtAddr::new(2), &[9; 16])
        .unwrap();
    let (idx, buf) = wait_any(&mut set).unwrap();
    assert_eq!(idx, 1);
    assert_eq!(buf.vaddr(), VirtAddr::new(2));
    // The other window is untouched.
    assert_eq!(w1.epoch(), 0);
    assert!(!set[0].is_consumed());
}

#[test]
fn mixed_modes_on_one_endpoint() {
    // A steered (HPC) window and a managed (sockets) window coexist.
    let (_net, target, init) = net_with_target();
    let hpc = target
        .init_window(VirtAddr::new(1), Threshold::bytes(32))
        .unwrap();
    let sock = target
        .init_window_mode(VirtAddr::new(2), Threshold::bytes(32), MailboxMode::Managed)
        .unwrap();
    let mut n_hpc = hpc.post_buffer(vec![0; 32]).unwrap();
    let mut n_sock = sock.post_buffer(vec![0; 32]).unwrap();

    // Steered: offsets place; send halves in reverse order.
    init.put_at(NodeAddr::node(0), VirtAddr::new(1), 16, &[2; 16])
        .unwrap();
    init.put_at(NodeAddr::node(0), VirtAddr::new(1), 0, &[1; 16])
        .unwrap();
    // Managed: cursor appends; offsets are ignored.
    init.put_at(NodeAddr::node(0), VirtAddr::new(2), 999, &[3; 16])
        .unwrap();
    init.put_at(NodeAddr::node(0), VirtAddr::new(2), 0, &[4; 16])
        .unwrap();

    let hpc_buf = n_hpc.poll().unwrap();
    assert_eq!(&hpc_buf.data()[..16], &[1; 16]);
    assert_eq!(&hpc_buf.data()[16..], &[2; 16]);
    let sock_buf = n_sock.poll().unwrap();
    assert_eq!(&sock_buf.data()[..16], &[3; 16]);
    assert_eq!(&sock_buf.data()[16..], &[4; 16]);
}

#[test]
fn close_midstream_discards_remaining_ops() {
    let (_net, target, init) = net_with_target();
    let win = target
        .init_window(VirtAddr::new(1), Threshold::bytes(64))
        .unwrap();
    let mut n = win.post_buffer(vec![0; 64]).unwrap();
    init.put_at(NodeAddr::node(0), VirtAddr::new(1), 0, &[1; 32])
        .unwrap();
    win.close();
    let err = init
        .put_at(NodeAddr::node(0), VirtAddr::new(1), 32, &[2; 32])
        .unwrap_err();
    assert_eq!(err, RvmaError::Nacked(NackReason::WindowClosed));
    assert!(n.poll().is_none(), "no completion after close");
    // The endpoint accounted exactly the accepted half.
    assert_eq!(target.stats().bytes_accepted, 32);
}

#[test]
fn ops_threshold_synchronization_barrier() {
    // Zero-byte puts as arrival signals: an op-counted window is a
    // receiver-side barrier over unordered delivery.
    let (_net, target, init) = net_with_target();
    let win = target
        .init_window(
            VirtAddr::new(7),
            Threshold {
                ty: EpochType::Ops,
                count: 6,
            },
        )
        .unwrap();
    let mut n = win.post_buffer(vec![0; 8]).unwrap();
    for _ in 0..5 {
        init.put(NodeAddr::node(0), VirtAddr::new(7), &[]).unwrap();
        assert!(n.poll().is_none());
    }
    let r = init.put(NodeAddr::node(0), VirtAddr::new(7), &[]).unwrap();
    assert!(r.completed_epoch);
    assert!(n.poll().is_some());
}

#[test]
fn catch_all_plus_eviction_flow() {
    // A service endpoint with a catch-all mailbox: strays land there;
    // evicting a closed window downgrades its NACK reason.
    let net = LossyNetwork::with_config(
        128,
        FaultModel::NONE,
        0,
        EndpointConfig {
            catch_all: Some(VirtAddr::new(0)),
            lut_capacity: Some(4),
            ..Default::default()
        },
    );
    let target = net.add_endpoint(NodeAddr::node(0));
    let init = net.initiator(NodeAddr::node(1));

    let catch_all = target
        .init_window(VirtAddr::new(0), Threshold::ops(1))
        .unwrap();
    let mut stray_note = catch_all.post_buffer(vec![0; 1024]).unwrap();
    // Stray put to an unregistered mailbox lands in the catch-all.
    init.put(NodeAddr::node(0), VirtAddr::new(0xDEAD), &[5; 100])
        .unwrap();
    assert_eq!(stray_note.poll().unwrap().len(), 100);

    // Fill the LUT to capacity, then evict to reclaim.
    let mut wins = Vec::new();
    for i in 1..4u64 {
        wins.push(
            target
                .init_window(VirtAddr::new(i), Threshold::ops(1))
                .unwrap(),
        );
    }
    assert_eq!(
        target
            .init_window(VirtAddr::new(9), Threshold::ops(1))
            .unwrap_err(),
        RvmaError::LutFull
    );
    wins[0].close();
    assert!(target.evict(VirtAddr::new(1)));
    let _replacement = target
        .init_window(VirtAddr::new(9), Threshold::ops(1))
        .unwrap();
}

#[test]
fn concurrent_producers_and_epoch_consumer() {
    // 4 producer threads each stream 32 messages into one mailbox; a
    // consumer thread fences epochs as they complete. End-to-end counts
    // must reconcile.
    let (net, target, _init) = net_with_target();
    let win = target
        .init_window(VirtAddr::new(1), Threshold::ops(1))
        .unwrap();
    let total = 4 * 32;
    let mut notes = win.post_buffers(vec![vec![0; 64]; total]).unwrap();

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let init = net.initiator(NodeAddr::node(t + 2));
            s.spawn(move || {
                for _ in 0..32 {
                    init.put(NodeAddr::node(0), VirtAddr::new(1), &[t as u8; 64])
                        .unwrap();
                }
            });
        }
        s.spawn(move || {
            let mut got = 0;
            for n in notes.iter_mut() {
                let _ = n.wait();
                got += 1;
            }
            assert_eq!(got, total);
        });
    });
    assert_eq!(win.epoch(), total as u64);
    assert_eq!(target.stats().epochs_completed, total as u64);
}
