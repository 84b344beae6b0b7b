//! Heap allocations per steady-state completion, counted by a counting
//! global allocator.
//!
//! A buffer posted into a `CompletionQueue` carries its queue, not a
//! notification slot: its completing write is one queue push, so the only
//! allocation left per completion is the `CompletedBuffer` record. A
//! `Notification` post still allocates its slot, so it costs two (slot +
//! record). The epoch buffers come from the window's pool, and every
//! container on the path (mailbox bucket, retired ring, CQ ring, pool
//! shelf, the drain vector) keeps its capacity once warm, so both counts
//! are exact, in debug and release alike.
//!
//! Both cases live in one `#[test]`, and the counter is per thread, so a
//! harness thread or a parallel test can never leak into a reading.
//! Delivery is the direct `RvmaEndpoint::deliver_slice` call on the test's
//! own thread: no transport thread allocates on the measured path's behalf.

use rvma::core::{CompletionQueue, NodeAddr, RvmaEndpoint, Threshold, VirtAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs during thread-local teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: forwards every call to the system allocator unchanged; the only
// addition is a per-thread counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const BATCH: usize = 1024;
const MSG: usize = 16;
const WARMUP: usize = 4;
const CYCLES: usize = 8;
const PAYLOAD: [u8; MSG] = [7; MSG];

fn endpoint() -> Arc<RvmaEndpoint> {
    RvmaEndpoint::new(NodeAddr::node(1))
}

/// One put that completes the active `Threshold::ops(1)` epoch.
fn put(ep: &RvmaEndpoint, vaddr: VirtAddr, op_id: u64) {
    let r = ep.deliver_slice(NodeAddr::node(2), op_id, vaddr, MSG as u64, 0, &PAYLOAD);
    assert_eq!(
        r,
        rvma::core::DeliverResult::Ok {
            completed_epoch: true
        }
    );
}

#[test]
fn cq_completion_allocates_one_record_and_notification_two() {
    // --- CQ posts: post 1,024 → deliver → poll_batch → drop. ---
    let ep = endpoint();
    let vaddr = VirtAddr::new(0x100);
    let win = ep.init_window(vaddr, Threshold::ops(1)).unwrap();
    let cq = CompletionQueue::new(2 * BATCH);
    let mut out = Vec::with_capacity(BATCH);
    let mut op = 0u64;
    let mut cycle = || {
        for user in 0..BATCH as u64 {
            win.post_pooled_cq(MSG, &cq, user).unwrap();
        }
        for _ in 0..BATCH {
            op += 1;
            put(&ep, vaddr, op);
        }
        assert_eq!(cq.poll_batch(BATCH, &mut out), BATCH);
        assert!(out.iter().all(|c| c.buffer.data() == PAYLOAD));
        out.clear();
    };
    for _ in 0..WARMUP {
        cycle();
    }
    let n = allocations(|| (0..CYCLES).for_each(|_| cycle()));
    let completions = (CYCLES * BATCH) as u64;
    assert_eq!(
        n, completions,
        "CQ completion: {n} allocations over {completions} completions, want exactly 1 each \
         (the CompletedBuffer record; a CQ post has no notification slot)"
    );

    // --- Notification posts: post_pooled → deliver → wait. ---
    let vaddr = VirtAddr::new(0x200);
    let win = ep.init_window(vaddr, Threshold::ops(1)).unwrap();
    let mut cycle = || {
        let mut note = win.post_pooled(MSG).unwrap();
        op += 1;
        put(&ep, vaddr, op);
        assert_eq!(note.wait().data(), PAYLOAD);
    };
    for _ in 0..WARMUP * BATCH {
        cycle();
    }
    let n = allocations(|| (0..CYCLES * BATCH).for_each(|_| cycle()));
    assert_eq!(
        n,
        2 * completions,
        "Notification completion: {n} allocations over {completions} completions, want exactly \
         2 each (the notification slot + the CompletedBuffer record)"
    );
}
