//! Paper-verbatim API shim (Sec. III-C).
//!
//! The rest of this crate exposes RVMA through idiomatic Rust types
//! ([`Window`], [`Notification`], [`LossyInitiator`]). This module
//! mirrors the exact call set and naming of the paper's proposed C API,
//! one function per listing, so code can be written side-by-side with the
//! specification:
//!
//! | Paper | Here |
//! |---|---|
//! | `RVMA_Init_window(virtual_addr, key, epoch_threshold, epoch_type)` | [`rvma_init_window`] |
//! | `RVMA_Post_buffer(buffer, size, notification_ptr, win)` | [`rvma_post_buffer`] |
//! | `RVMA_Close_Win(win)` | [`rvma_close_win`] |
//! | `RVMA_Win_inc_epoch(win)` | [`rvma_win_inc_epoch`] |
//! | `RVMA_Win_get_epoch(win)` | [`rvma_win_get_epoch`] |
//! | `RVMA_Win_get_buf_ptrs(win, ptrs, count)` | [`rvma_win_get_buf_ptrs`] |
//! | `RVMA_Put(send_buffer, size, dest_addr, virtual_addr)` | [`rvma_put`] |
//! | `MPIX_Rewind(window)` (Sec. IV-F sketch) | [`rvma_win_rewind`] |
//!
//! Two asynchronous-native extensions follow the same naming style (they
//! have no listing in the paper, which leaves initiator-side local
//! completion to the implementation): [`rvma_post_buffer_async`] returns
//! the notification as a `Future`, and [`rvma_put_notify`] is a put whose
//! returned future resolves at local (delivery) completion.

use crate::addr::{NodeAddr, VirtAddr};
use crate::buffer::{CompletedBuffer, EpochType, Threshold};
use crate::endpoint::RvmaEndpoint;
use crate::error::Result;
use crate::notify::{Notification, NotifyFuture};
use crate::transport::PutResult;
use crate::transport_lossy::LossyInitiator;
use crate::transport_threaded::{AsyncInitiator, PutFuture};
use crate::window::Window;
use std::sync::Arc;

/// `RVMA_Init_window`: create a window at `virtual_addr` whose epochs
/// complete after `epoch_threshold` units of `epoch_type`.
///
/// The paper's `key_t* key` out-parameter (a protection key) is represented
/// by the returned [`Window`] handle itself, which is the capability to
/// post/close/rewind.
pub fn rvma_init_window(
    endpoint: &Arc<RvmaEndpoint>,
    virtual_addr: VirtAddr,
    epoch_threshold: u64,
    epoch_type: EpochType,
) -> Result<Window> {
    endpoint.init_window(
        virtual_addr,
        Threshold {
            ty: epoch_type,
            count: epoch_threshold,
        },
    )
}

/// `RVMA_Post_buffer`: attach `buffer` to the window's mailbox. The paper's
/// `void** notification_ptr` out-parameter is the returned [`Notification`].
pub fn rvma_post_buffer(win: &Window, buffer: Vec<u8>) -> Result<Notification> {
    win.post_buffer(buffer)
}

/// `RVMA_Close_Win`: stop accepting operations at the window's address.
/// Returns queued (never-activated) buffers to the caller.
pub fn rvma_close_win(win: &Window) -> Vec<Vec<u8>> {
    win.close()
}

/// `RVMA_Win_inc_epoch`: complete the active buffer early, handing a
/// partial buffer to software.
pub fn rvma_win_inc_epoch(win: &Window) -> Result<()> {
    win.inc_epoch()
}

/// `RVMA_Win_get_epoch`: the window's current epoch.
pub fn rvma_win_get_epoch(win: &Window) -> u64 {
    win.epoch()
}

/// `RVMA_Win_get_buf_ptrs`: poll up to `count` of the given notification
/// handles, collecting buffers whose epochs have completed. Returns the
/// completed buffers ("the number of valid notification pointers that were
/// returned" is their `len()`).
pub fn rvma_win_get_buf_ptrs(
    notifications: &mut [Notification],
    count: usize,
) -> Vec<CompletedBuffer> {
    notifications
        .iter_mut()
        .take(count)
        .filter_map(Notification::poll)
        .collect()
}

/// `RVMA_Put`: transfer `send_buffer` to mailbox `virtual_addr` on
/// `dest_addr`. No prior handshake or remote-address exchange is needed.
pub fn rvma_put(
    initiator: &LossyInitiator,
    send_buffer: &[u8],
    dest_addr: NodeAddr,
    virtual_addr: VirtAddr,
) -> Result<PutResult> {
    initiator.put(dest_addr, virtual_addr, send_buffer)
}

/// The `MPIX_Rewind` sketch of Sec. IV-F: return the window to the state of
/// the buffer completed `back` epochs ago.
pub fn rvma_win_rewind(win: &Window, back: u64) -> Result<CompletedBuffer> {
    win.rewind(back)
}

/// `RVMA_Post_buffer` variant whose `notification_ptr` out-parameter is a
/// `Future`: `.await` (or `block_on`) it to receive the completed buffer.
/// The completing write wakes the future directly through the slot's
/// waker — no condvar broadcast, no polling loop.
pub fn rvma_post_buffer_async(win: &Window, buffer: Vec<u8>) -> Result<NotifyFuture> {
    win.post_buffer_async(buffer)
}

/// `RVMA_Put` variant for the threaded transport returning a future that
/// resolves at the put's **local completion** — every fragment delivered
/// (or NACKed) by the wire — the point at which `send_buffer` could be
/// reused by a zero-copy initiator.
pub fn rvma_put_notify(
    initiator: &AsyncInitiator,
    send_buffer: &[u8],
    dest_addr: NodeAddr,
    virtual_addr: VirtAddr,
) -> Result<PutFuture> {
    initiator.put_notify(dest_addr, virtual_addr, send_buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DEFAULT_MTU;
    use crate::transport_lossy::{FaultModel, LossyNetwork};

    #[test]
    fn paper_call_sequence() {
        // The full Fig. 3 flow, written with the paper's call names.
        let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
        let target = net.add_endpoint(NodeAddr::node(1));
        let initiator = net.initiator(NodeAddr::node(2));

        let win = rvma_init_window(&target, VirtAddr::new(0xCAFE), 16, EpochType::Bytes).unwrap();
        let n1 = rvma_post_buffer(&win, vec![0; 16]).unwrap();
        let n2 = rvma_post_buffer(&win, vec![0; 16]).unwrap();

        rvma_put(
            &initiator,
            &[1; 16],
            NodeAddr::node(1),
            VirtAddr::new(0xCAFE),
        )
        .unwrap();
        assert_eq!(rvma_win_get_epoch(&win), 1);

        let mut ns = vec![n1, n2];
        let done = rvma_win_get_buf_ptrs(&mut ns, 2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].data(), &[1; 16]);

        rvma_put(
            &initiator,
            &[2; 16],
            NodeAddr::node(1),
            VirtAddr::new(0xCAFE),
        )
        .unwrap();
        assert_eq!(rvma_win_rewind(&win, 1).unwrap().data(), &[2; 16]);
        assert_eq!(rvma_win_rewind(&win, 2).unwrap().data(), &[1; 16]);

        let returned = rvma_close_win(&win);
        assert!(returned.is_empty());
        assert!(rvma_put(
            &initiator,
            &[3; 16],
            NodeAddr::node(1),
            VirtAddr::new(0xCAFE)
        )
        .is_err());
    }

    #[test]
    fn inc_epoch_via_shim() {
        let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
        let target = net.add_endpoint(NodeAddr::node(1));
        let initiator = net.initiator(NodeAddr::node(2));
        let win = rvma_init_window(&target, VirtAddr::new(1), 1024, EpochType::Bytes).unwrap();
        let mut n = rvma_post_buffer(&win, vec![0; 1024]).unwrap();
        rvma_put(&initiator, &[5; 10], NodeAddr::node(1), VirtAddr::new(1)).unwrap();
        assert_eq!(rvma_win_get_epoch(&win), 0);
        rvma_win_inc_epoch(&win).unwrap();
        assert_eq!(rvma_win_get_epoch(&win), 1);
        assert_eq!(n.poll().unwrap().len(), 10);
    }
}
