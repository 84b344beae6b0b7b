//! Property-based tests of the RVMA core invariants (DESIGN.md §7).

use proptest::collection::vec;
use proptest::prelude::*;
use rvma::core::{
    AsyncNetwork, DeliverResult, DeliveryOrder, Fragment, NodeAddr, RvmaEndpoint, Threshold,
    Transport, VirtAddr,
};
use std::time::Duration;

fn frag_at(va: u64, offset: usize, data: Vec<u8>, op_id: u64, total: u64) -> Fragment {
    Fragment {
        initiator: NodeAddr::node(1),
        op_id,
        dst_vaddr: VirtAddr::new(va),
        op_total_len: total,
        offset,
        data: bytes::Bytes::from(data),
    }
}

proptest! {
    /// Threshold completion is order-independent: delivering the fragments
    /// of a message in ANY permutation yields the same completed buffer
    /// contents and exactly one notification.
    #[test]
    fn completion_is_order_independent(
        chunks in vec(1usize..64, 1..12),
        perm_seed in any::<u64>(),
    ) {
        let total: usize = chunks.iter().sum();
        // Build non-overlapping fragments covering [0, total).
        let mut frags = Vec::new();
        let mut off = 0usize;
        for (i, len) in chunks.iter().enumerate() {
            frags.push(frag_at(0xAA, off, vec![(i % 251) as u8 + 1; *len], 1, total as u64));
            off += len;
        }
        // Reference: in-order delivery.
        let deliver_all = |frags: &[Fragment]| -> Result<Vec<u8>, TestCaseError> {
            let ep = RvmaEndpoint::new(NodeAddr::node(0));
            let win = ep.init_window(VirtAddr::new(0xAA), Threshold::bytes(total as u64)).unwrap();
            let mut n = win.post_buffer(vec![0; total]).unwrap();
            let mut completions = 0;
            for f in frags {
                if let DeliverResult::Ok { completed_epoch: true } = ep.deliver(f) {
                    completions += 1;
                }
            }
            prop_assert_eq!(completions, 1);
            Ok(n.poll().expect("one completion").data().to_vec())
        };
        let reference = deliver_all(&frags)?;

        // Permute deterministically from the seed.
        let mut shuffled = frags.clone();
        let mut s = perm_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let permuted = deliver_all(&shuffled)?;
        prop_assert_eq!(reference, permuted);
    }

    /// Epoch rotation is FIFO and get_epoch counts completions exactly.
    #[test]
    fn epochs_rotate_fifo(msgs in vec(1u8..255, 1..10)) {
        let ep = RvmaEndpoint::new(NodeAddr::node(0));
        let win = ep.init_window(VirtAddr::new(1), Threshold::bytes(4)).unwrap();
        let mut notes = Vec::new();
        for _ in &msgs {
            notes.push(win.post_buffer(vec![0; 4]).unwrap());
        }
        for (i, m) in msgs.iter().enumerate() {
            prop_assert_eq!(win.epoch(), i as u64);
            ep.deliver(&frag_at(1, 0, vec![*m; 4], i as u64 + 1, 4));
        }
        prop_assert_eq!(win.epoch(), msgs.len() as u64);
        for (i, (n, m)) in notes.iter_mut().zip(&msgs).enumerate() {
            let buf = n.poll().expect("completed in order");
            prop_assert_eq!(buf.epoch(), i as u64);
            let want = vec![*m; 4];
            prop_assert_eq!(buf.data(), want.as_slice());
        }
    }

    /// A byte-counted epoch completes exactly when `threshold` bytes have
    /// landed — never before.
    #[test]
    fn byte_threshold_is_exact(threshold in 1u64..256, step in 1usize..32) {
        let ep = RvmaEndpoint::new(NodeAddr::node(0));
        let win = ep.init_window(VirtAddr::new(2), Threshold::bytes(threshold)).unwrap();
        let mut n = win.post_buffer(vec![0; threshold as usize]).unwrap();
        let mut sent = 0u64;
        let mut op = 0u64;
        while sent < threshold {
            prop_assert!(n.poll().is_none(), "completed early at {} / {}", sent, threshold);
            let len = step.min((threshold - sent) as usize);
            ep.deliver(&frag_at(2, sent as usize, vec![1; len], op, len as u64));
            op += 1;
            sent += len as u64;
        }
        prop_assert!(n.poll().is_some(), "did not complete at threshold");
    }

    /// Rewind(k) returns the buffer completed k epochs ago, contents
    /// intact, for every k within the retained ring.
    #[test]
    fn rewind_returns_history(count in 1usize..8, retain in 1usize..8) {
        let ep = RvmaEndpoint::with_config(NodeAddr::node(0), rvma::core::EndpointConfig {
            retain_epochs: retain,
            ..Default::default()
        });
        let win = ep.init_window(VirtAddr::new(3), Threshold::bytes(2)).unwrap();
        for _ in 0..count {
            let _ = win.post_buffer(vec![0; 2]).unwrap();
        }
        for i in 0..count {
            ep.deliver(&frag_at(3, 0, vec![i as u8 + 1; 2], i as u64, 2));
        }
        let retained = count.min(retain);
        for back in 1..=retained {
            let buf = win.rewind(back as u64).unwrap();
            let expect = (count - back) as u8 + 1;
            let want = vec![expect; 2];
            prop_assert_eq!(buf.data(), want.as_slice());
            prop_assert_eq!(buf.epoch(), (count - back) as u64);
        }
        prop_assert!(win.rewind(retained as u64 + 1).is_err());
    }

    /// Transport-level: a put of arbitrary size over an out-of-order
    /// (threaded, per-put shuffled) network arrives bit-exact.
    #[test]
    fn transport_roundtrip_any_size(
        payload in vec(any::<u8>(), 0..3000),
        mtu in 1usize..512,
        seed in any::<u64>(),
    ) {
        let net = AsyncNetwork::new(mtu, DeliveryOrder::OutOfOrder { seed }, Duration::ZERO);
        let target = net.add_endpoint(NodeAddr::node(1));
        let init = net.initiator(NodeAddr::node(2));
        let win = target
            .init_window(VirtAddr::new(4), Threshold::ops(1))
            .unwrap();
        let buf_len = payload.len().max(1);
        let mut n = win.post_buffer(vec![0; buf_len]).unwrap();
        init.put(NodeAddr::node(1), VirtAddr::new(4), &payload).unwrap();
        init.flush().unwrap();
        let buf = n.poll().expect("op threshold fired");
        prop_assert_eq!(buf.data(), payload.as_slice());
    }

    /// Closed windows never complete and never corrupt state, regardless
    /// of traffic.
    #[test]
    fn closed_windows_discard_everything(ops in vec(1usize..64, 1..16)) {
        let ep = RvmaEndpoint::new(NodeAddr::node(0));
        let win = ep.init_window(VirtAddr::new(5), Threshold::bytes(64)).unwrap();
        let mut n = win.post_buffer(vec![0; 64]).unwrap();
        win.close();
        for (i, len) in ops.iter().enumerate() {
            let r = ep.deliver(&frag_at(5, 0, vec![9; *len], i as u64, *len as u64));
            prop_assert!(matches!(r, DeliverResult::Nack(_)));
        }
        prop_assert!(n.poll().is_none());
        prop_assert_eq!(ep.stats().bytes_accepted, 0);
        prop_assert_eq!(ep.stats().fragments_discarded, ops.len() as u64);
    }
}
