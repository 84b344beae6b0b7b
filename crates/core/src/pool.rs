//! Buffer pools for the allocation-light submission path.
//!
//! Two recycling stores keep the high-rate small-message path off the
//! allocator:
//!
//! * [`PayloadPool`] — initiator side. Every `put` must copy the caller's
//!   payload into storage that outlives the call (the fragment travels to a
//!   wire worker asynchronously). Instead of a fresh `Arc<[u8]>` per put,
//!   the pool shelves a bounded set of allocations and reuses any that no
//!   in-flight fragment still references, handing out zero-copy
//!   [`Bytes`] views over them. Payloads of at most [`bytes::INLINE_CAP`]
//!   bytes skip even that: they travel inline in the `Bytes` handle, with
//!   no allocation or refcount at all.
//! * [`BufferPool`] — receiver side. Epoch buffers posted through
//!   [`Window::post_pooled`](crate::window::Window::post_pooled) return
//!   their allocation to the pool automatically when the **last** owner of
//!   the completed buffer drops it (notification holder, retired-ring
//!   entry, rewind clones — whoever is last), so steady-state post → fill →
//!   complete → re-post cycles allocate nothing.
//!
//! Ownership rule: a pool never hands out storage that anything else can
//! still observe. `PayloadPool` proves uniqueness with `Arc::get_mut`
//! (the shelf holds the only reference); `BufferPool` receives allocations
//! only from `CompletedBuffer`'s last-drop hook or an explicit
//! [`BufferPool::recycle`]. Both are bounded by entries and by bytes
//! ([`PAYLOAD_SHELF_BYTES`] per payload class, [`BUFFER_SHELF_BYTES`] per
//! buffer pool): beyond either bound, retiring allocations are simply
//! freed.
//!
//! Hit/miss counters are exposed via [`PoolStats`]; the acceptance test for
//! the batched submission path asserts a 100 % hit rate in steady state.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum allocations a [`BufferPool`] retains. It must cover a window's
/// whole in-flight set of small buffers (4096 one-op epochs under a
/// completion queue), or most of them retire to the allocator and every
/// re-post misses.
pub const BUFFER_SHELF: usize = 8192;

/// Retained-byte budget of a [`BufferPool`] (allocation capacities,
/// summed). Large epoch buffers shelve only within it: a handful of
/// 64 MiB epochs must not pin gigabytes after their window goes quiet.
pub const BUFFER_SHELF_BYTES: usize = 64 << 20;

/// Maximum entries one size class of a [`PayloadPool`] retains (small
/// classes; large classes are further bounded by
/// [`PAYLOAD_SHELF_BYTES`]). The shelf only grows on a miss, so each
/// class converges to the initiator's peak number of in-flight payloads
/// of that size; the cap must exceed a deep submission pipeline or every
/// acquire under load degenerates to probe-then-allocate.
pub const PAYLOAD_SHELF: usize = 2048;

/// Per-class retained-byte budget of a [`PayloadPool`]: a class of size
/// `c` shelves at most `PAYLOAD_SHELF_BYTES / c` entries (min 4), so the
/// large classes added for the zero-copy/bulk datapath cannot pin
/// unbounded memory.
pub const PAYLOAD_SHELF_BYTES: usize = 4 << 20;

/// Smallest payload allocation class (bytes). Small puts share one class so
/// a 32 B and a 56 B put reuse the same shelf entries. (Payloads at or
/// below [`bytes::INLINE_CAP`] never reach the shelf at all — they ride
/// inline in the `Bytes` handle.)
const MIN_CLASS: usize = 64;

/// Largest pooled allocation class (bytes). Requests beyond it bypass the
/// shelf entirely: they allocate exact-class storage, are counted as
/// misses, and are never retained — a multi-MiB one-off must not evict a
/// working set of small classes (and the zero-copy lane means such
/// payloads normally never reach the pool at all).
pub const MAX_POOLED_CLASS: usize = 1 << 20;

/// Shelf entries probed per [`PayloadPool::acquire`]. Bounded so a deep
/// submission pipeline (every shelved allocation still in flight) costs a
/// few refcount checks per put, not a full class scan; the per-class
/// rotating cursor spreads the probes so freed entries are still found
/// promptly.
const MAX_PROBES: usize = 8;

/// Point-in-time counters of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served by reusing a shelved allocation.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh storage.
    pub misses: u64,
    /// Acquisitions served inline in the `Bytes` handle itself — no
    /// allocation and no shelf traffic (payloads of at most
    /// [`bytes::INLINE_CAP`] bytes).
    pub inline: u64,
    /// Allocations currently shelved.
    pub shelved: usize,
}

impl PoolStats {
    /// Allocation-free acquisitions (shelf reuse + inline) as a fraction of
    /// all acquisitions (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.inline + self.misses;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.inline) as f64 / total as f64
        }
    }
}

/// Recycles the `Arc<[u8]>` allocations backing fragment payloads.
///
/// `acquire` copies the caller's bytes into a shelved allocation when one
/// is free (unique) and large enough, otherwise allocates a
/// power-of-two-class buffer and shelves it for next time. The returned
/// [`Bytes`] shares the allocation; it becomes reusable again once every
/// fragment slice of it has been dropped by the wire workers.
#[derive(Debug, Default)]
pub struct PayloadPool {
    shelf: Mutex<PayloadShelf>,
    hits: AtomicU64,
    misses: AtomicU64,
    inline: AtomicU64,
}

/// Number of power-of-two classes between [`MIN_CLASS`] and
/// [`MAX_POOLED_CLASS`], inclusive.
const NUM_CLASSES: usize =
    (MAX_POOLED_CLASS.trailing_zeros() - MIN_CLASS.trailing_zeros() + 1) as usize;

/// Class index of a payload length, or `None` when it exceeds
/// [`MAX_POOLED_CLASS`] (the shelf bypass).
fn class_index(len: usize) -> Option<usize> {
    let class = len.next_power_of_two().max(MIN_CLASS);
    if class > MAX_POOLED_CLASS {
        None
    } else {
        Some((class.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize)
    }
}

/// Entry cap of one class: [`PAYLOAD_SHELF`] for small classes, tightened
/// to the [`PAYLOAD_SHELF_BYTES`] byte budget for large ones (min 4 so a
/// steady large-put pipeline still pools).
fn class_cap(class_size: usize) -> usize {
    (PAYLOAD_SHELF_BYTES / class_size).clamp(4, PAYLOAD_SHELF)
}

/// One size class of the shelf: same-capacity entries plus a rotating
/// probe cursor so consecutive acquires don't re-check the same
/// in-flight entries.
#[derive(Debug, Default)]
struct ClassShelf {
    entries: Vec<Arc<[u8]>>,
    cursor: usize,
}

#[derive(Debug)]
struct PayloadShelf {
    /// Per-class buckets, indexed by [`class_index`]. Size-classing is
    /// what makes large requests poolable: under the old single shelf, a
    /// bounded probe walk over a working set of small entries never
    /// reached an allocation big enough for a multi-KiB put, so every
    /// large acquire silently missed.
    classes: [ClassShelf; NUM_CLASSES],
}

impl Default for PayloadShelf {
    fn default() -> Self {
        PayloadShelf {
            classes: std::array::from_fn(|_| ClassShelf::default()),
        }
    }
}

impl PayloadPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `data` into pooled storage and return it as `Bytes`.
    pub fn acquire(&self, data: &[u8]) -> Bytes {
        if data.len() <= bytes::INLINE_CAP {
            // Tiny payloads ride inline in the `Bytes` handle: no
            // allocation, no refcount, and no shelf lock. This is the
            // hottest case on the small-message path.
            if !data.is_empty() {
                self.inline.fetch_add(1, Ordering::Relaxed);
            }
            return Bytes::copy_from_slice(data);
        }
        let class = data.len().next_power_of_two().max(MIN_CLASS);
        let Some(ci) = class_index(data.len()) else {
            // Beyond the largest pooled class: exact-class allocation,
            // never shelved (documented bypass — see MAX_POOLED_CLASS).
            self.misses.fetch_add(1, Ordering::Relaxed);
            return fresh(class, data);
        };
        let mut shelf = self.shelf.lock();
        let bucket = &mut shelf.classes[ci];
        let n = bucket.entries.len();
        let start = bucket.cursor;
        for p in 0..n.min(MAX_PROBES) {
            let i = (start + p) % n;
            let arc = &mut bucket.entries[i];
            // Unique means no in-flight fragment still references it: the
            // shelf holds the only count, so overwriting is race-free.
            // Every entry in the bucket has exactly `class` capacity, so
            // uniqueness is the only thing probed for.
            if let Some(buf) = Arc::get_mut(arc) {
                buf[..data.len()].copy_from_slice(data);
                let out = Bytes::from_shared(arc.clone(), data.len());
                bucket.cursor = (i + 1) % n;
                drop(shelf);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return out;
            }
        }
        if n > 0 {
            bucket.cursor = (start + n.min(MAX_PROBES)) % n;
        }
        // Miss: allocate a class-sized buffer so differently-sized puts
        // can share the bucket's entries, copy, and shelve it (bounded
        // per class).
        let mut arc: Arc<[u8]> = Arc::from(vec![0u8; class]);
        Arc::get_mut(&mut arc).expect("fresh allocation is unique")[..data.len()]
            .copy_from_slice(data);
        let out = Bytes::from_shared(arc.clone(), data.len());
        if bucket.entries.len() < class_cap(class) {
            bucket.entries.push(arc);
        }
        drop(shelf);
        self.misses.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            shelved: self
                .shelf
                .lock()
                .classes
                .iter()
                .map(|c| c.entries.len())
                .sum(),
        }
    }
}

/// An unshelved exact-class allocation holding a copy of `data`.
fn fresh(class: usize, data: &[u8]) -> Bytes {
    let mut arc: Arc<[u8]> = Arc::from(vec![0u8; class]);
    Arc::get_mut(&mut arc).expect("fresh allocation is unique")[..data.len()].copy_from_slice(data);
    Bytes::from_shared(arc, data.len())
}

/// Recycles the `Vec<u8>` allocations backing receiver epoch buffers.
///
/// Buffers enter through [`recycle`](BufferPool::recycle) (called
/// automatically by the last drop of a pooled
/// [`CompletedBuffer`](crate::buffer::CompletedBuffer)) and leave through
/// [`take`](BufferPool::take), zeroed to the requested length.
#[derive(Debug, Default)]
pub struct BufferPool {
    shelf: Mutex<BufferShelf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct BufferShelf {
    bufs: Vec<Vec<u8>>,
    /// Summed capacity of `bufs`, held within [`BUFFER_SHELF_BYTES`].
    bytes: usize,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed buffer of exactly `len` bytes, reusing a shelved allocation
    /// with sufficient capacity when one exists.
    pub fn take(&self, len: usize) -> Vec<u8> {
        let reused = {
            let mut shelf = self.shelf.lock();
            let found = shelf.bufs.iter().position(|v| v.capacity() >= len);
            found.map(|i| {
                let v = shelf.bufs.swap_remove(i);
                shelf.bytes -= v.capacity();
                v
            })
        };
        match reused {
            Some(mut v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                v.resize(len, 0);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0; len]
            }
        }
    }

    /// Return an allocation to the shelf (dropped if it is empty or would
    /// take the shelf past [`BUFFER_SHELF`] entries or
    /// [`BUFFER_SHELF_BYTES`] bytes).
    pub fn recycle(&self, v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        let mut shelf = self.shelf.lock();
        if shelf.bufs.len() < BUFFER_SHELF && shelf.bytes + v.capacity() <= BUFFER_SHELF_BYTES {
            shelf.bytes += v.capacity();
            shelf.bufs.push(v);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inline: 0,
            shelved: self.shelf.lock().bufs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_pool_reuses_when_unique() {
        let pool = PayloadPool::new();
        let b1 = pool.acquire(&[1; 32]);
        assert_eq!(pool.stats().misses, 1);
        // Still referenced: the next acquire must not reuse it.
        let b2 = pool.acquire(&[2; 32]);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(&b1[..], &[1; 32]);
        drop(b1);
        drop(b2);
        // Both shelved allocations are free now.
        let b3 = pool.acquire(&[3; 32]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(&b3[..], &[3; 32]);
        assert_eq!(pool.stats().shelved, 2);
    }

    #[test]
    fn payload_pool_size_classes_share_entries() {
        let pool = PayloadPool::new();
        drop(pool.acquire(&[7; 32]));
        // 32 B and 56 B both fall in the 64 B minimum class.
        let b = pool.acquire(&[9; 56]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(&b[..], &[9; 56]);
    }

    #[test]
    fn payload_pool_tiny_payload_is_inline() {
        // At or below the inline cap, acquisition bypasses the shelf
        // entirely: no allocation, nothing shelved, counted separately.
        let pool = PayloadPool::new();
        let b = pool.acquire(&[5; bytes::INLINE_CAP]);
        assert_eq!(&b[..], &[5; bytes::INLINE_CAP]);
        let stats = pool.stats();
        assert_eq!((stats.inline, stats.hits, stats.misses), (1, 0, 0));
        assert_eq!(stats.shelved, 0);
        assert_eq!(stats.hit_rate(), 1.0);
        // One past the cap takes the pooled path.
        drop(b);
        drop(pool.acquire(&[6; bytes::INLINE_CAP + 1]));
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().shelved, 1);
    }

    #[test]
    fn payload_pool_large_classes_hit_despite_small_traffic() {
        let pool = PayloadPool::new();
        // A working set of in-flight small payloads. Under the old
        // single-shelf rotating cursor, the bounded probe walk only ever
        // saw these entries, so a larger request could never be satisfied
        // from the shelf — the regression this test pins.
        let small: Vec<Bytes> = (0..64).map(|_| pool.acquire(&[1u8; 64])).collect();
        let big = vec![2u8; 64 * 1024];
        drop(pool.acquire(&big)); // miss: shelved in the 64 KiB class
        let b = pool.acquire(&big);
        assert_eq!(pool.stats().hits, 1, "large class reuses its own bucket");
        assert_eq!(&b[..], &big[..]);
        drop(small);
    }

    #[test]
    fn payload_pool_oversize_bypasses_shelf() {
        let pool = PayloadPool::new();
        let huge = vec![3u8; MAX_POOLED_CLASS + 1];
        let a = pool.acquire(&huge);
        drop(a);
        let b = pool.acquire(&huge);
        assert_eq!(&b[..], &huge[..]);
        let s = pool.stats();
        // Both acquires allocate (documented bypass) and nothing is
        // retained: a one-off multi-MiB payload must not pin memory.
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.shelved, 0);
    }

    #[test]
    fn payload_pool_large_class_caps_by_bytes() {
        // A large class's entry cap comes from the byte budget, not the
        // global entry cap.
        assert_eq!(class_cap(MAX_POOLED_CLASS), 4);
        assert_eq!(class_cap(64), PAYLOAD_SHELF);
        assert_eq!(class_cap(64 * 1024), PAYLOAD_SHELF_BYTES / (64 * 1024));
    }

    #[test]
    fn payload_pool_empty_payload_skips_pool() {
        let pool = PayloadPool::new();
        let b = pool.acquire(&[]);
        assert!(b.is_empty());
        assert_eq!(pool.stats(), PoolStats::default());
        assert_eq!(pool.stats().hit_rate(), 1.0);
    }

    #[test]
    fn buffer_pool_roundtrip_zeroes() {
        let pool = BufferPool::new();
        let mut v = pool.take(8);
        assert_eq!(pool.stats().misses, 1);
        v.copy_from_slice(&[9; 8]);
        pool.recycle(v);
        let v2 = pool.take(4);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(v2, vec![0; 4], "reused storage must come back zeroed");
    }

    #[test]
    fn buffer_pool_capacity_miss_allocates() {
        let pool = BufferPool::new();
        pool.recycle(vec![0; 4]);
        let v = pool.take(16);
        assert_eq!(v.len(), 16);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().shelved, 1, "small buffer stays shelved");
    }

    #[test]
    fn shelves_are_bounded() {
        // Small buffers: a completion queue's 4096 in-flight 16 B epochs
        // all shelve, and the entry bound still holds beyond that.
        let pool = BufferPool::new();
        for _ in 0..4096 {
            pool.recycle(vec![0; 16]);
        }
        assert_eq!(pool.stats().shelved, 4096);
        for _ in 0..BUFFER_SHELF {
            pool.recycle(vec![0; 16]);
        }
        assert_eq!(pool.stats().shelved, BUFFER_SHELF);

        // Large buffers: the byte budget caps them long before the entry
        // bound, and a buffer larger than the budget never shelves.
        const BIG: usize = 16 << 20;
        let pool = BufferPool::new();
        pool.recycle(vec![0; BUFFER_SHELF_BYTES + 1]);
        assert_eq!(pool.stats().shelved, 0);
        for _ in 0..64 {
            pool.recycle(vec![0; BIG]);
        }
        assert_eq!(pool.stats().shelved, BUFFER_SHELF_BYTES / BIG);
        // Taking one frees its share of the budget for the next recycle.
        let v = pool.take(BIG);
        assert_eq!(pool.stats().shelved, BUFFER_SHELF_BYTES / BIG - 1);
        pool.recycle(v);
        assert_eq!(pool.stats().shelved, BUFFER_SHELF_BYTES / BIG);
    }
}
