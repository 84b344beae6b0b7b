//! Shadow memory: per-location release clocks and plain-memory race
//! detection.
//!
//! The scheduler serializes every instrumented operation (one thread holds
//! the token at a time), so *values* behave sequentially consistent. What
//! this module adds is the *ordering* analysis: each atomic location
//! carries the release "message" clock the C11 model would attach to its
//! latest store, each thread carries an acquire frontier, and every
//! `UnsafeCell` access is checked FastTrack-style against those clocks.
//! Dropping a `Release`/`Acquire`/`SeqCst` pairing to `Relaxed` therefore
//! surfaces as a **data race on the guarded plain memory** even though the
//! token-serialized execution never actually corrupts a value.

use super::clock::VClock;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// How an instrumented atomic touched its location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomKind {
    Load,
    Store,
    /// Read-modify-write (swap/CAS-success/fetch_*). Continues the
    /// location's release sequence: the message clock is joined, never
    /// replaced.
    Rmw,
    /// `std::sync::atomic::fence` — no location.
    Fence,
}

/// Per-thread ordering state.
#[derive(Clone, Default, Debug)]
pub(crate) struct ThreadView {
    /// Everything this thread happens-after.
    pub(crate) clock: VClock,
    /// Snapshot of `clock` at the last release fence: a subsequent
    /// `Relaxed` store publishes this instead of the live clock.
    pub(crate) rel_fence: VClock,
    /// Messages read by `Relaxed` loads since the last acquire fence; an
    /// acquire fence promotes them into `clock`.
    pub(crate) acq_pending: VClock,
}

/// A detected plain-memory race (reported as a checker failure).
#[derive(Debug)]
pub(crate) struct Race {
    pub(crate) message: String,
}

#[derive(Default)]
struct CellState {
    /// Thread + its clock component at the last plain write.
    last_write: Option<(usize, u32)>,
    /// Per-thread clock component at each thread's last plain read.
    reads: VClock,
}

/// All shadow state of one execution.
#[derive(Default)]
pub(crate) struct Shadow {
    /// Release message clock per atomic location (and per mutex/
    /// park token, which reuse the same release–acquire rules).
    atoms: HashMap<usize, VClock>,
    /// Race-detection state per `UnsafeCell` location.
    cells: HashMap<usize, CellState>,
    /// The global order of `SeqCst` operations.
    sc: VClock,
}

impl Shadow {
    /// Apply one atomic access by `tid`. `views[tid].clock` is bumped: the
    /// access is an event.
    pub(crate) fn atomic(
        &mut self,
        views: &mut [ThreadView],
        tid: usize,
        addr: usize,
        kind: AtomKind,
        ord: Ordering,
    ) {
        let acquire = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        let seq_cst = ord == Ordering::SeqCst;

        if seq_cst {
            views[tid].clock.join(&self.sc);
        }
        match kind {
            AtomKind::Load => {
                let msg = self.atoms.entry(addr).or_default();
                if acquire {
                    views[tid].clock.join(msg);
                } else {
                    views[tid].acq_pending.join(msg);
                }
            }
            AtomKind::Store => {
                let published = if release {
                    views[tid].clock.clone()
                } else {
                    views[tid].rel_fence.clone()
                };
                self.atoms.insert(addr, published);
            }
            AtomKind::Rmw => {
                let msg = self.atoms.entry(addr).or_default();
                if acquire {
                    views[tid].clock.join(msg);
                } else {
                    views[tid].acq_pending.join(msg);
                }
                // Release sequence: the RMW's message extends, never
                // replaces, what the previous store published.
                let msg = self.atoms.entry(addr).or_default();
                if release {
                    let c = views[tid].clock.clone();
                    msg.join(&c);
                } else {
                    let f = views[tid].rel_fence.clone();
                    msg.join(&f);
                }
            }
            AtomKind::Fence => {
                if acquire {
                    let pending = std::mem::take(&mut views[tid].acq_pending);
                    views[tid].clock.join(&pending);
                }
                if release {
                    views[tid].rel_fence = views[tid].clock.clone();
                }
            }
        }
        if seq_cst {
            self.sc.join(&views[tid].clock);
        }
        views[tid].clock.bump(tid);
    }

    /// Check a plain (`UnsafeCell`) read by `tid`: it races with the last
    /// write unless that write happens-before the reader.
    pub(crate) fn cell_read(
        &mut self,
        views: &[ThreadView],
        tid: usize,
        addr: usize,
        label: &str,
    ) -> Result<(), Race> {
        let cell = self.cells.entry(addr).or_default();
        if let Some((w, at)) = cell.last_write {
            if w != tid && views[tid].clock.get(w) < at {
                return Err(Race {
                    message: format!(
                        "data race on {label} (cell {addr:#x}): thread {tid} reads a value \
                         written by thread {w} without a happens-before edge \
                         (missing release/acquire pairing)"
                    ),
                });
            }
        }
        cell.reads.set(tid, views[tid].clock.get(tid));
        Ok(())
    }

    /// Check a plain (`UnsafeCell`) write by `tid`: it races with the last
    /// write *and* with every read not ordered before it.
    pub(crate) fn cell_write(
        &mut self,
        views: &[ThreadView],
        tid: usize,
        addr: usize,
        label: &str,
    ) -> Result<(), Race> {
        let cell = self.cells.entry(addr).or_default();
        if let Some((w, at)) = cell.last_write {
            if w != tid && views[tid].clock.get(w) < at {
                return Err(Race {
                    message: format!(
                        "data race on {label} (cell {addr:#x}): thread {tid} overwrites a value \
                         written by thread {w} without a happens-before edge"
                    ),
                });
            }
        }
        for r in 0..views.len() {
            if r != tid && cell.reads.get(r) > views[tid].clock.get(r) {
                return Err(Race {
                    message: format!(
                        "data race on {label} (cell {addr:#x}): thread {tid} writes while \
                         thread {r}'s read is not ordered before it"
                    ),
                });
            }
        }
        cell.last_write = Some((tid, views[tid].clock.get(tid)));
        Ok(())
    }

    /// Forget a cell's history (storage reused for a logically new value
    /// whose ownership transfer is proven by other means).
    #[allow(dead_code)]
    pub(crate) fn cell_reset(&mut self, addr: usize) {
        self.cells.remove(&addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize) -> Vec<ThreadView> {
        let mut v = vec![ThreadView::default(); n];
        for (t, view) in v.iter_mut().enumerate() {
            view.clock.bump(t);
        }
        v
    }

    #[test]
    fn release_acquire_orders_cell_access() {
        let mut s = Shadow::default();
        let mut v = views(2);
        // T0: write cell, release-store flag. T1: acquire-load flag, read cell.
        s.cell_write(&v, 0, 0x100, "cell").unwrap();
        s.atomic(&mut v, 0, 0x200, AtomKind::Store, Ordering::Release);
        s.atomic(&mut v, 1, 0x200, AtomKind::Load, Ordering::Acquire);
        s.cell_read(&v, 1, 0x100, "cell").unwrap();
    }

    #[test]
    fn relaxed_store_does_not_publish() {
        let mut s = Shadow::default();
        let mut v = views(2);
        s.cell_write(&v, 0, 0x100, "cell").unwrap();
        s.atomic(&mut v, 0, 0x200, AtomKind::Store, Ordering::Relaxed);
        s.atomic(&mut v, 1, 0x200, AtomKind::Load, Ordering::Acquire);
        assert!(s.cell_read(&v, 1, 0x100, "cell").is_err());
    }

    #[test]
    fn fences_pair_relaxed_accesses() {
        let mut s = Shadow::default();
        let mut v = views(2);
        s.cell_write(&v, 0, 0x100, "cell").unwrap();
        // T0: release fence, then relaxed store.
        s.atomic(&mut v, 0, 0, AtomKind::Fence, Ordering::Release);
        s.atomic(&mut v, 0, 0x200, AtomKind::Store, Ordering::Relaxed);
        // T1: relaxed load, then acquire fence.
        s.atomic(&mut v, 1, 0x200, AtomKind::Load, Ordering::Relaxed);
        s.atomic(&mut v, 1, 0, AtomKind::Fence, Ordering::Acquire);
        s.cell_read(&v, 1, 0x100, "cell").unwrap();
    }

    #[test]
    fn rmw_extends_release_sequence() {
        let mut s = Shadow::default();
        let mut v = views(3);
        s.cell_write(&v, 0, 0x100, "cell").unwrap();
        s.atomic(&mut v, 0, 0x200, AtomKind::Store, Ordering::Release);
        // T2 interposes a relaxed RMW — the release sequence survives.
        s.atomic(&mut v, 2, 0x200, AtomKind::Rmw, Ordering::Relaxed);
        s.atomic(&mut v, 1, 0x200, AtomKind::Load, Ordering::Acquire);
        s.cell_read(&v, 1, 0x100, "cell").unwrap();
    }

    #[test]
    fn unordered_writes_race() {
        let mut s = Shadow::default();
        let v = views(2);
        s.cell_write(&v, 0, 0x100, "cell").unwrap();
        assert!(s.cell_write(&v, 1, 0x100, "cell").is_err());
    }
}
