//! Buffers, thresholds, and epoch types.
//!
//! A receiver posts buffers to a mailbox; each buffer is consumed by exactly
//! one *epoch* of communication. The epoch's **threshold** — a count of
//! bytes or of operations, fixed when the window is created (paper
//! Sec. III-C, `epoch_threshold` + `epoch_type`) — tells the NIC when the
//! buffer is full, at which point the buffer is completed, the completion
//! pointer is written, and the mailbox rotates to the next posted buffer.

use crate::addr::VirtAddr;
use crate::cq::CqAttachment;
use crate::error::{Result, RvmaError};
use crate::notify::NotificationSlot;
use crate::pool::BufferPool;
use std::fmt;
use std::sync::Arc;

/// How an epoch threshold is interpreted (paper: `EPOCH_BYTES` / `EPOCH_OPS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpochType {
    /// The threshold counts bytes written into the active buffer.
    Bytes,
    /// The threshold counts completed operations on the active buffer.
    Ops,
}

/// An epoch completion threshold: type + count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threshold {
    /// Interpretation of `count`.
    pub ty: EpochType,
    /// Number of bytes or operations required to complete an epoch.
    pub count: u64,
}

impl Threshold {
    /// Epoch completes after `count` bytes have been written.
    pub const fn bytes(count: u64) -> Self {
        Threshold {
            ty: EpochType::Bytes,
            count,
        }
    }

    /// Epoch completes after `count` operations have landed.
    pub const fn ops(count: u64) -> Self {
        Threshold {
            ty: EpochType::Ops,
            count,
        }
    }

    /// Validate against a buffer of `buf_len` bytes.
    ///
    /// A zero threshold can never be meaningful, and a byte threshold larger
    /// than the buffer could never be reached (the paper recommends the byte
    /// threshold equal the window size for non-overlapping puts).
    pub fn validate(&self, buf_len: usize) -> Result<()> {
        if self.count == 0 {
            return Err(RvmaError::ZeroThreshold);
        }
        if self.ty == EpochType::Bytes && self.count > buf_len as u64 {
            return Err(RvmaError::BufferTooSmall {
                buffer: buf_len,
                threshold: self.count,
            });
        }
        Ok(())
    }
}

/// Where a posted buffer's completing write goes.
pub(crate) enum CompletionSink {
    /// A per-buffer completion pointer (`Notification`/`NotifyFuture`).
    Slot(Arc<NotificationSlot>),
    /// A completion queue's ready-list (`post_*_cq`): the completing write
    /// is one push, and no slot exists.
    Cq(CqAttachment),
}

impl From<Arc<NotificationSlot>> for CompletionSink {
    fn from(slot: Arc<NotificationSlot>) -> Self {
        CompletionSink::Slot(slot)
    }
}

/// A receiver-posted buffer waiting in (or active at the head of) a
/// mailbox's bucket. Internal to the crate; applications hand over a
/// `Vec<u8>` via `Window::post_buffer` and get ownership back through the
/// notification (or the completion queue) when the epoch completes.
pub(crate) struct PostedBuffer {
    pub(crate) data: Vec<u8>,
    pub(crate) threshold: Threshold,
    pub(crate) sink: CompletionSink,
    /// Pool the allocation returns to when the completed buffer's last
    /// owner drops it (None = caller keeps ownership, the seed behaviour).
    pub(crate) pool: Option<Arc<BufferPool>>,
}

impl PostedBuffer {
    pub(crate) fn new(
        data: Vec<u8>,
        threshold: Threshold,
        sink: impl Into<CompletionSink>,
    ) -> Self {
        PostedBuffer {
            data,
            threshold,
            sink: sink.into(),
            pool: None,
        }
    }
}

impl fmt::Debug for PostedBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PostedBuffer")
            .field("len", &self.data.len())
            .field("threshold", &self.threshold)
            .finish()
    }
}

/// A buffer whose epoch has completed, as delivered through the completion
/// pointer (and retained in the mailbox's retired ring for rewind).
///
/// The data is shared immutably: the notification holder, the retired ring,
/// and any rewind caller all see the same bytes. This mirrors the paper's
/// fault-tolerance caveat — "the application must not write new data over
/// communication buffers" if rewind is to return pristine contents — by
/// construction rather than convention.
#[derive(Clone)]
pub struct CompletedBuffer {
    inner: Arc<CompletedInner>,
}

struct CompletedInner {
    data: Vec<u8>,
    valid_len: usize,
    epoch: u64,
    vaddr: VirtAddr,
    /// Destination of the allocation when the last owner drops.
    pool: Option<Arc<BufferPool>>,
}

impl Drop for CompletedInner {
    fn drop(&mut self) {
        // Last-owner recycling: by the time the inner drops, the
        // notification holder, the retired ring, and every rewind clone are
        // gone, so nothing can still observe the bytes.
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.data));
        }
    }
}

impl CompletedBuffer {
    #[cfg(test)]
    pub(crate) fn new(data: Vec<u8>, valid_len: usize, epoch: u64, vaddr: VirtAddr) -> Self {
        Self::with_pool(data, valid_len, epoch, vaddr, None)
    }

    pub(crate) fn with_pool(
        data: Vec<u8>,
        valid_len: usize,
        epoch: u64,
        vaddr: VirtAddr,
        pool: Option<Arc<BufferPool>>,
    ) -> Self {
        debug_assert!(valid_len <= data.len());
        CompletedBuffer {
            inner: Arc::new(CompletedInner {
                data,
                valid_len,
                epoch,
                vaddr,
                pool,
            }),
        }
    }

    /// The valid (written) prefix of the buffer — the length the NIC wrote
    /// next to the completion pointer.
    pub fn data(&self) -> &[u8] {
        &self.inner.data[..self.inner.valid_len]
    }

    /// The entire posted buffer, including any tail beyond the valid length.
    pub fn full_buffer(&self) -> &[u8] {
        &self.inner.data
    }

    /// Number of valid bytes (bytes actually written this epoch).
    pub fn len(&self) -> usize {
        self.inner.valid_len
    }

    /// True when no bytes were written (possible via early `inc_epoch`).
    pub fn is_empty(&self) -> bool {
        self.inner.valid_len == 0
    }

    /// The epoch this buffer completed (0 is the first epoch of a mailbox).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The mailbox this buffer was posted to.
    pub fn vaddr(&self) -> VirtAddr {
        self.inner.vaddr
    }

    /// Reclaim the underlying allocation for reuse (e.g. to re-post it).
    /// Succeeds only when this is the last reference — i.e. the retired ring
    /// has dropped it and no other clone exists; otherwise returns `self`.
    /// Reclaiming takes precedence over the buffer's pool, if it has one.
    pub fn try_into_vec(self) -> std::result::Result<Vec<u8>, CompletedBuffer> {
        match Arc::try_unwrap(self.inner) {
            Ok(mut inner) => {
                inner.pool = None;
                Ok(std::mem::take(&mut inner.data))
            }
            Err(inner) => Err(CompletedBuffer { inner }),
        }
    }
}

impl fmt::Debug for CompletedBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletedBuffer")
            .field("vaddr", &self.inner.vaddr)
            .field("epoch", &self.inner.epoch)
            .field("valid_len", &self.inner.valid_len)
            .field("capacity", &self.inner.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_constructors() {
        assert_eq!(Threshold::bytes(64).ty, EpochType::Bytes);
        assert_eq!(Threshold::ops(4).ty, EpochType::Ops);
        assert_eq!(Threshold::ops(4).count, 4);
    }

    #[test]
    fn threshold_validation() {
        assert_eq!(
            Threshold::bytes(0).validate(10),
            Err(RvmaError::ZeroThreshold)
        );
        assert_eq!(
            Threshold::ops(0).validate(10),
            Err(RvmaError::ZeroThreshold)
        );
        assert_eq!(
            Threshold::bytes(11).validate(10),
            Err(RvmaError::BufferTooSmall {
                buffer: 10,
                threshold: 11
            })
        );
        assert!(Threshold::bytes(10).validate(10).is_ok());
        // Op thresholds are not bounded by buffer size.
        assert!(Threshold::ops(1000).validate(10).is_ok());
    }

    #[test]
    fn completed_buffer_views() {
        let cb = CompletedBuffer::new(vec![1, 2, 3, 4], 3, 7, VirtAddr::new(9));
        assert_eq!(cb.data(), &[1, 2, 3]);
        assert_eq!(cb.full_buffer(), &[1, 2, 3, 4]);
        assert_eq!(cb.len(), 3);
        assert!(!cb.is_empty());
        assert_eq!(cb.epoch(), 7);
        assert_eq!(cb.vaddr(), VirtAddr::new(9));
    }

    #[test]
    fn completed_buffer_empty() {
        let cb = CompletedBuffer::new(vec![0; 8], 0, 0, VirtAddr::new(0));
        assert!(cb.is_empty());
        assert_eq!(cb.data(), &[] as &[u8]);
    }

    #[test]
    fn try_into_vec_requires_sole_ownership() {
        let cb = CompletedBuffer::new(vec![5; 4], 4, 0, VirtAddr::new(1));
        let clone = cb.clone();
        let cb = cb.try_into_vec().unwrap_err();
        drop(clone);
        let v = cb.try_into_vec().unwrap();
        assert_eq!(v, vec![5; 4]);
    }

    #[test]
    fn pooled_buffer_recycles_on_last_drop() {
        let pool = Arc::new(BufferPool::new());
        let cb =
            CompletedBuffer::with_pool(vec![1; 32], 32, 0, VirtAddr::new(1), Some(pool.clone()));
        let clone = cb.clone();
        drop(cb);
        assert_eq!(pool.stats().shelved, 0, "a clone still owns the bytes");
        drop(clone);
        assert_eq!(pool.stats().shelved, 1, "last drop returns the allocation");
        // try_into_vec steals the allocation away from the pool instead.
        let cb = CompletedBuffer::with_pool(vec![2; 8], 8, 0, VirtAddr::new(1), Some(pool.clone()));
        let v = cb.try_into_vec().unwrap();
        assert_eq!(v, vec![2; 8]);
        assert_eq!(pool.stats().shelved, 1);
    }

    #[test]
    fn clones_share_data() {
        let cb = CompletedBuffer::new(vec![9; 16], 16, 2, VirtAddr::new(3));
        let c2 = cb.clone();
        assert_eq!(cb.data().as_ptr(), c2.data().as_ptr());
    }
}
