//! MPI-RMA-style epochs over RVMA (paper Secs. IV-E and IV-F).
//!
//! MPI's RMA model exposes *access epochs*: a window is opened for remote
//! access, remotely modified, and closed/fenced, after which the local
//! process may read it. The paper argues RVMA captures this natively —
//! each posted buffer *is* an epoch, the threshold *is* the fence
//! condition, and the retired-buffer ring gives the epoch history that
//! makes `MPIX_Rewind(MPI_Win)` ("return an RMA window to a previously
//! well known state") implementable in hardware.
//!
//! [`MpixWindow`] is that programming model rendered on `rvma-core`:
//!
//! ```
//! use rvma_core::{FaultModel, LossyNetwork, NodeAddr, VirtAddr, DEFAULT_MTU};
//! use rvma_core::mpix::MpixWindow;
//!
//! let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
//! let server = net.add_endpoint(NodeAddr::node(0));
//! let peer = net.initiator(NodeAddr::node(1));
//!
//! // A 64-byte RMA window, 3 epochs of history for rewind.
//! let mut win = MpixWindow::create(&server, VirtAddr::new(0x10), 64, 3)?;
//!
//! peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[1u8; 64])?;
//! let epoch0 = win.fence();                 // MPI_Win_fence: epoch closes
//! assert_eq!(epoch0.data(), &[1u8; 64]);
//!
//! peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[2u8; 64])?;
//! let _epoch1 = win.fence();
//!
//! // Roll communication back one timestep.
//! let recovered = win.rewind(1)?;           // MPIX_Rewind
//! assert_eq!(recovered.data(), &[2u8; 64]);
//! # Ok::<(), rvma_core::RvmaError>(())
//! ```

use crate::addr::VirtAddr;
use crate::buffer::{CompletedBuffer, Threshold};
use crate::endpoint::RvmaEndpoint;
use crate::error::{Result, RvmaError};
use crate::notify::Notification;
use crate::window::{EpochOutcome, Window};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// An MPI-RMA-style window: fixed-size epochs, always-posted buffers, and
/// hardware rewind.
#[derive(Debug)]
pub struct MpixWindow {
    window: Window,
    /// Notifications for posted-but-not-yet-fenced epochs, oldest first.
    pending: VecDeque<Notification>,
    epoch_bytes: u64,
    /// How many buffers to keep posted ahead (the bucket depth).
    depth: usize,
}

impl MpixWindow {
    /// Create a window of `epoch_bytes` at `vaddr`, keeping `depth` buffers
    /// posted at all times (so initiators never stall on an unposted
    /// epoch). Each epoch completes when exactly `epoch_bytes` have been
    /// written — the non-overlapping-puts usage the paper recommends.
    pub fn create(
        endpoint: &Arc<RvmaEndpoint>,
        vaddr: VirtAddr,
        epoch_bytes: u64,
        depth: usize,
    ) -> Result<Self> {
        if depth == 0 {
            return Err(RvmaError::ZeroThreshold);
        }
        let window = endpoint.init_window(vaddr, Threshold::bytes(epoch_bytes))?;
        let mut pending = VecDeque::with_capacity(depth);
        for _ in 0..depth {
            pending.push_back(window.post_buffer(vec![0u8; epoch_bytes as usize])?);
        }
        Ok(MpixWindow {
            window,
            pending,
            epoch_bytes,
            depth,
        })
    }

    /// The underlying RVMA window.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// `MPI_Win_fence`-like: block until the oldest open epoch completes,
    /// hand its buffer to the caller, and post a replacement so the bucket
    /// depth is maintained.
    ///
    /// # Panics
    /// Panics if the window was closed underneath the fence.
    pub fn fence(&mut self) -> CompletedBuffer {
        let mut note = self.pending.pop_front().expect("depth >= 1");
        let buf = note.wait();
        self.repost();
        buf
    }

    /// Non-blocking fence: completes only if the oldest open epoch has
    /// already finished (an `MPI_Win_test` analogue).
    pub fn try_fence(&mut self) -> Option<CompletedBuffer> {
        let note = self.pending.front_mut()?;
        let buf = note.poll()?;
        self.pending.pop_front();
        self.repost();
        Some(buf)
    }

    /// Fence with a timeout; `None` on expiry (the epoch stays open).
    pub fn fence_timeout(&mut self, timeout: Duration) -> Option<CompletedBuffer> {
        let note = self.pending.front_mut()?;
        let buf = note.wait_timeout(timeout)?;
        self.pending.pop_front();
        self.repost();
        Some(buf)
    }

    /// Fence with fault recovery: wait up to `timeout` for the oldest open
    /// epoch and, on expiry, force it closed with whatever arrived instead
    /// of wedging ([`Window::recover_timeout`] — the paper's Secs. IV-E/
    /// IV-F recovery story at the MPI level). Either way the bucket depth
    /// is maintained, so initiators never stall on an unposted epoch.
    ///
    /// On error (e.g. the window closed underneath the fence) the epoch
    /// stays open and queued for the next fence.
    pub fn fence_recover(&mut self, timeout: Duration) -> Result<EpochOutcome> {
        let mut note = self.pending.pop_front().expect("depth >= 1");
        match self.window.recover_timeout(&mut note, timeout) {
            Ok(outcome) => {
                self.repost();
                Ok(outcome)
            }
            Err(e) => {
                self.pending.push_front(note);
                Err(e)
            }
        }
    }

    /// Force the current epoch closed with whatever has arrived
    /// (`RVMA_Win_inc_epoch` surfaced at the MPI level — useful for
    /// error-recovery with partial buffers).
    pub fn flush_partial(&mut self) -> Result<CompletedBuffer> {
        self.window.inc_epoch()?;
        let mut note = self.pending.pop_front().expect("depth >= 1");
        let buf = note.wait();
        self.repost();
        Ok(buf)
    }

    /// `MPIX_Rewind`: the buffer fenced `back` epochs ago (`back = 1` is
    /// the most recently fenced), straight from the NIC's retired list.
    pub fn rewind(&self, back: u64) -> Result<CompletedBuffer> {
        self.window.rewind(back)
    }

    /// Number of epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.window.epoch()
    }

    /// Bytes each epoch carries.
    pub fn epoch_bytes(&self) -> u64 {
        self.epoch_bytes
    }

    /// Configured bucket depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Close the window; in-flight epochs are dropped and remote puts are
    /// NACKed from here on.
    pub fn close(self) {
        self.window.close();
    }

    fn repost(&mut self) {
        // Keep the bucket full. Failure here means the window was closed
        // concurrently; surfaced on the next fence as an empty bucket.
        if let Ok(n) = self
            .window
            .post_buffer(vec![0u8; self.epoch_bytes as usize])
        {
            self.pending.push_back(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::transport::DEFAULT_MTU;
    use crate::transport_lossy::{FaultModel, LossyNetwork};

    fn net() -> Arc<LossyNetwork> {
        LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0)
    }

    fn setup(depth: usize) -> (Arc<LossyNetwork>, Arc<RvmaEndpoint>, MpixWindow) {
        let net = net();
        let ep = net.add_endpoint(NodeAddr::node(0));
        let win = MpixWindow::create(&ep, VirtAddr::new(0x10), 32, depth).unwrap();
        (net, ep, win)
    }

    #[test]
    fn fence_yields_epochs_in_order() {
        let (net, _ep, mut win) = setup(4);
        let peer = net.initiator(NodeAddr::node(1));
        for i in 1..=3u8 {
            peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[i; 32])
                .unwrap();
        }
        for i in 1..=3u8 {
            let buf = win.fence();
            assert_eq!(buf.data(), &[i; 32]);
            assert_eq!(buf.epoch(), i as u64 - 1);
        }
        assert_eq!(win.epoch(), 3);
    }

    #[test]
    fn bucket_depth_is_maintained() {
        let (net, _ep, mut win) = setup(2);
        let peer = net.initiator(NodeAddr::node(1));
        // Fence 5 epochs through a depth-2 bucket: reposting must keep the
        // initiator from ever hitting NoBufferPosted.
        for i in 0..5u8 {
            peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[i + 1; 32])
                .unwrap();
            let buf = win.fence();
            assert_eq!(buf.data(), &[i + 1; 32]);
        }
        assert_eq!(win.depth(), 2);
        assert_eq!(win.window().posted_buffers(), 2);
    }

    #[test]
    fn try_fence_is_nonblocking() {
        let (net, _ep, mut win) = setup(2);
        assert!(win.try_fence().is_none());
        let peer = net.initiator(NodeAddr::node(1));
        peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[7; 32])
            .unwrap();
        let buf = win.try_fence().expect("epoch complete");
        assert_eq!(buf.data(), &[7; 32]);
        assert!(win.try_fence().is_none());
    }

    #[test]
    fn fence_timeout_expires_cleanly() {
        let (_net, _ep, mut win) = setup(1);
        assert!(win.fence_timeout(Duration::from_millis(5)).is_none());
        assert_eq!(win.epoch(), 0);
    }

    #[test]
    fn flush_partial_hands_over_incomplete_epoch() {
        let (net, _ep, mut win) = setup(2);
        let peer = net.initiator(NodeAddr::node(1));
        peer.put_at(NodeAddr::node(0), VirtAddr::new(0x10), 0, &[9; 10])
            .unwrap();
        let buf = win.flush_partial().unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.data(), &[9; 10]);
    }

    #[test]
    fn fence_recover_rotates_a_wedged_epoch() {
        // A lossy fabric loses most of the epoch; fence_recover hands the
        // partial buffer over after the timeout and the window keeps going.
        let (net, _ep, mut win) = setup(2);
        let peer = net.initiator(NodeAddr::node(1));
        peer.put_at(NodeAddr::node(0), VirtAddr::new(0x10), 0, &[5; 12])
            .unwrap();
        let outcome = win.fence_recover(Duration::from_millis(10)).unwrap();
        assert!(outcome.is_rewound());
        assert_eq!(outcome.into_buffer().data(), &[5; 12]);
        assert_eq!(win.window().posted_buffers(), 2, "depth maintained");
        // The next epoch completes normally.
        peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[6; 32])
            .unwrap();
        match win.fence_recover(Duration::from_secs(5)).unwrap() {
            EpochOutcome::Completed(buf) => assert_eq!(buf.data(), &[6; 32]),
            EpochOutcome::Rewound(_) => panic!("epoch was complete"),
        }
        assert_eq!(win.epoch(), 2);
    }

    #[test]
    fn rewind_recovers_previous_timesteps() {
        let (net, _ep, mut win) = setup(3);
        let peer = net.initiator(NodeAddr::node(1));
        for i in 1..=3u8 {
            peer.put(NodeAddr::node(0), VirtAddr::new(0x10), &[i; 32])
                .unwrap();
            let _ = win.fence();
        }
        assert_eq!(win.rewind(1).unwrap().data(), &[3; 32]);
        assert_eq!(win.rewind(2).unwrap().data(), &[2; 32]);
        assert_eq!(win.rewind(3).unwrap().data(), &[1; 32]);
        assert!(win.rewind(5).is_err());
    }

    #[test]
    fn close_nacks_later_puts() {
        let (net, _ep, win) = setup(1);
        let peer = net.initiator(NodeAddr::node(1));
        win.close();
        assert!(peer
            .put(NodeAddr::node(0), VirtAddr::new(0x10), &[1; 32])
            .is_err());
    }

    #[test]
    fn zero_depth_is_rejected() {
        let ep = net().add_endpoint(NodeAddr::node(0));
        assert!(MpixWindow::create(&ep, VirtAddr::new(1), 32, 0).is_err());
    }
}
