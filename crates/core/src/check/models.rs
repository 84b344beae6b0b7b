//! Checked models of the crate's lock-free structures.
//!
//! Each model is a tiny, self-checking concurrent program over the
//! *production* types — the shipping `RingQueue` and `SegmentRing`,
//! `NotificationSlot`, `PutFuture`, `CompletionQueue`, `RouteSlot` and
//! `Mailbox` — sized
//! so that
//! [`explore`] exhaustively enumerates every preemption-bounded schedule
//! within the CI budget. The invariants are ported from the stress suites
//! in `tests/ring_interleave.rs` and `tests/notify_handoff.rs`: there they
//! are sampled under real contention; here every interleaving in the
//! bound is executed.
//!
//! The models are plain functions (the segment ring's takes its segment)
//! so the mutation suite in [`super::mutations`] can re-explore the
//! identical programs with a seeded bad ordering switched on.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use super::{explore, explore_random, spawn, with_active, JoinHandle, Options, Report};
use crate::addr::VirtAddr;
use crate::buffer::{CompletedBuffer, PostedBuffer, Threshold};
use crate::cq::CompletionQueue;
use crate::csync::{self, AtomicU64 as CheckedU64, CheckCell};
use crate::link::{PutDelivery, PutFuture, PutNotify};
use crate::mailbox::{DeliveryOutcome, Mailbox, MailboxMode, OpKey, DEFAULT_RETAIN_EPOCHS};
use crate::notify::{wait_any, Notification, NotificationSlot};
use crate::ring::{PushError, Ring, RingQueue, SegmentRing};
use crate::shm::{default_segment_path, shm_supported, ShmSegment};
use crate::transport_threaded::RouteSlot;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Tag a value with its producer and per-producer sequence number.
fn tag(p: usize, i: u64) -> u64 {
    ((p as u64) << 32) | i
}

pub(super) fn demo_buf(byte: u8) -> CompletedBuffer {
    CompletedBuffer::new(vec![byte; 8], 8, 0, VirtAddr::new(byte as u64))
}

pub(super) fn spawn_completer(slot: &Arc<NotificationSlot>) -> JoinHandle<()> {
    let slot = Arc::clone(slot);
    spawn(move || slot.complete(demo_buf(7)))
}

/// A `Waker` that unparks the model thread `tid` — the model-world
/// equivalent of an executor waking a task. `wake()` may be called from
/// any model thread (the completer), which is exactly the cross-thread
/// handoff the notification path must order correctly.
fn park_waker(tid: usize) -> Waker {
    unsafe fn clone_raw(data: *const ()) -> RawWaker {
        RawWaker::new(data, &VTABLE)
    }
    unsafe fn wake_raw(data: *const ()) {
        super::unpark_model_thread(data as usize);
    }
    unsafe fn drop_raw(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone_raw, wake_raw, wake_raw, drop_raw);
    unsafe { Waker::from_raw(RawWaker::new(tid as *const (), &VTABLE)) }
}

fn model_tid() -> usize {
    with_active(|_, me| me).expect("model helper called outside an active exploration")
}

/// Explore every schedule within the default preemption bound and insist
/// the space was exhausted (not truncated by a schedule or step cap).
fn run_exhaustive(name: &str, model: impl Fn()) -> Report {
    let report = explore(Options::default(), model)
        .unwrap_or_else(|failure| panic!("{name}: counterexample found: {failure:?}"));
    assert!(
        report.complete,
        "{name}: schedule space was truncated, not exhausted ({} schedules)",
        report.schedules
    );
    println!(
        "{name}: exhaustively explored {} schedules ({} steps, {} threads max)",
        report.schedules, report.total_steps, report.max_threads
    );
    report
}

// ---------------------------------------------------------------------------
// Ring: push vs close vs single-consumer pop, on either storage
// ---------------------------------------------------------------------------

/// What the partition model drives: a two-slot ring of `u64`s.
pub(super) trait PartitionRing: Send + Sync + 'static {
    fn try_push(&self, v: u64) -> Result<(), PushError<u64>>;
    fn try_pop(&self) -> Option<u64>;
    fn close(&self);
    fn is_drained(&self) -> bool;
}

impl PartitionRing for RingQueue<u64> {
    fn try_push(&self, v: u64) -> Result<(), PushError<u64>> {
        RingQueue::try_push(self, v)
    }
    fn try_pop(&self) -> Option<u64> {
        RingQueue::try_pop(self)
    }
    fn close(&self) {
        RingQueue::close(self)
    }
    fn is_drained(&self) -> bool {
        Ring::is_drained(self)
    }
}

/// A segment ring whose slot payload is one race-checked `u64` cell.
struct SegmentU64(SegmentRing, Arc<ShmSegment>);

impl SegmentU64 {
    fn cell(&self, pos: usize) -> &CheckCell<u64> {
        // SAFETY: the payload offset is in the mapping and 8-aligned, and
        // `CheckCell` is transparent over the `u64` the zeroed bytes hold.
        unsafe { self.1.at(self.0.payload(pos)) }
    }
}

impl PartitionRing for SegmentU64 {
    fn try_push(&self, v: u64) -> Result<(), PushError<u64>> {
        let pos = match self.0.claim() {
            Ok(pos) => pos,
            Err(PushError::Full(())) => return Err(PushError::Full(v)),
            Err(PushError::Closed(())) => return Err(PushError::Closed(v)),
        };
        // SAFETY: the claim grants exclusive access until the publish.
        self.cell(pos).with_mut(|p| unsafe { *p = v });
        self.0.publish(pos);
        Ok(())
    }
    fn try_pop(&self) -> Option<u64> {
        // SAFETY: the consumer owns a popped slot until its recycle.
        self.0
            .pop_with(|idx| self.cell(idx).with(|p| unsafe { *p }))
    }
    fn close(&self) {
        self.0.close()
    }
    fn is_drained(&self) -> bool {
        self.0.is_drained()
    }
}

/// The partition model over a fresh heap ring.
pub(super) fn ring_partition_heap() {
    ring_partition_model(Arc::new(RingQueue::<u64>::new(2)));
}

/// A segment for one two-slot ring (cursor block, then 64-byte slots),
/// created once per test; `None` where segments are unsupported.
pub(super) fn partition_segment() -> Option<Arc<ShmSegment>> {
    shm_supported().then(|| {
        Arc::new(ShmSegment::create(&default_segment_path("check"), 256).expect("segment"))
    })
}

/// The partition model over `seg`'s ring, re-initialised per execution.
pub(super) fn ring_partition_segment(seg: &Arc<ShmSegment>) {
    let ring = SegmentRing::new(seg, 0, 64, 2).expect("two slots fit");
    ring.init();
    ring_partition_model(Arc::new(SegmentU64(ring, seg.clone())));
}

/// Two producers race `try_push` against a single consumer that pops at
/// most once, closes the ring, and then drains it to the final index the
/// close fixed — the wire worker's teardown. Ported invariants
/// (`tests/ring_interleave.rs`): every push that returned `Ok` is popped
/// exactly once (none strands behind the drain), delivered ∪ rejected
/// exactly partitions the pushed set, and per-producer order survives
/// into the delivered sequence. Producers are asymmetric (two ops vs.
/// one) and non-blocking — the blocking `push` retry loop multiplies
/// schedules far past the exhaustive budget without adding orderings
/// `try_push` doesn't hit (its full/closed rejections exercise the same
/// claim/publish races).
pub(super) fn ring_partition_model<R: PartitionRing>(ring: Arc<R>) {
    const PRODUCERS: usize = 2;
    const OPS: [u64; PRODUCERS] = [2, 1];
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ring = Arc::clone(&ring);
            spawn(move || {
                let (mut pushed, mut rejected) = (Vec::new(), Vec::new());
                for i in 0..OPS[p] {
                    match ring.try_push(tag(p, i)) {
                        Ok(()) => pushed.push(tag(p, i)),
                        Err(PushError::Full(v) | PushError::Closed(v)) => rejected.push(v),
                    }
                }
                (pushed, rejected)
            })
        })
        .collect();

    let mut delivered: Vec<u64> = ring.try_pop().into_iter().collect();
    ring.close();
    while !ring.is_drained() {
        match ring.try_pop() {
            Some(v) => delivered.push(v),
            None => csync::spin_loop(),
        }
    }

    let (mut pushed, mut rejected) = (Vec::new(), Vec::new());
    for h in handles {
        let (p, r) = h.join();
        pushed.extend(p);
        rejected.extend(r);
    }

    let mut popped = delivered.clone();
    popped.sort_unstable();
    pushed.sort_unstable();
    assert_eq!(popped, pushed, "every Ok push is popped exactly once");
    let mut all: Vec<u64> = pushed.iter().chain(rejected.iter()).copied().collect();
    all.sort_unstable();
    let mut expect: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..OPS[p]).map(move |i| tag(p, i)))
        .collect();
    expect.sort_unstable();
    assert_eq!(
        all, expect,
        "delivered ∪ rejected must partition the pushes"
    );

    for p in 0..PRODUCERS {
        let seqs: Vec<u64> = delivered
            .iter()
            .filter(|v| (**v >> 32) as usize == p)
            .map(|v| v & 0xffff_ffff)
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "producer {p} delivered out of order: {seqs:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Notification handoff: completing write vs every consumer flavor
// ---------------------------------------------------------------------------

/// Completing write races a blocking `wait()` (spin, register, park).
pub(super) fn notify_wait_model() {
    let slot = NotificationSlot::new();
    let completer = spawn_completer(&slot);
    let mut note = Notification::new(Arc::clone(&slot));
    let buf = note.wait();
    assert_eq!(buf.data(), &[7u8; 8]);
    assert!(note.poll().is_none(), "payload must be taken exactly once");
    completer.join();
}

/// Completing write races `wait_timeout`. The deadline is far in the
/// future in real time, and the modeled timed park only times out when no
/// other thread can run, so this enumerates the timed park/wake handoff
/// deterministically; the `None` arm keeps the program total either way.
pub(super) fn notify_timeout_model() {
    let slot = NotificationSlot::new();
    let completer = spawn_completer(&slot);
    let mut note = Notification::new(Arc::clone(&slot));
    let buf = match note.wait_timeout(Duration::from_secs(3600)) {
        Some(buf) => buf,
        None => note.wait(),
    };
    assert_eq!(buf.data(), &[7u8; 8]);
    completer.join();
}

/// Completing write races a lock-free polling consumer.
pub(super) fn notify_poll_model() {
    let slot = NotificationSlot::new();
    let completer = spawn_completer(&slot);
    let mut note = Notification::new(Arc::clone(&slot));
    let buf = loop {
        if let Some(buf) = note.poll() {
            break buf;
        }
        csync::spin_loop();
    };
    assert_eq!(buf.data(), &[7u8; 8]);
    assert!(note.poll().is_none(), "payload must be taken exactly once");
    completer.join();
}

/// Completing write races an async consumer: poll → register waker →
/// park, woken by the completer through the registered waker. Covers the
/// wake-before-register race inside `AtomicWaker` — a lost wakeup here
/// shows up as a modeled deadlock.
pub(super) fn notify_future_model() {
    let slot = NotificationSlot::new();
    let completer = spawn_completer(&slot);
    let waker = park_waker(model_tid());
    let mut cx = Context::from_waker(&waker);
    let mut fut = Notification::new(Arc::clone(&slot)).into_future();
    let buf = loop {
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(buf) => break buf,
            Poll::Pending => csync::thread::park(),
        }
    };
    assert_eq!(buf.data(), &[7u8; 8]);
    completer.join();
}

/// Two completers race one `wait_any` consumer over both slots: spin,
/// register one parking waker in each slot's cell, re-check, park,
/// deregister. Each completion is returned exactly once, with its own
/// bytes, and a third call reports exhaustion.
pub(super) fn notify_wait_any_model() {
    let slots = [NotificationSlot::new(), NotificationSlot::new()];
    let completers: Vec<_> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let slot = Arc::clone(slot);
            spawn(move || slot.complete(demo_buf(i as u8 + 1)))
        })
        .collect();
    let mut notes: Vec<_> = slots
        .iter()
        .map(|s| Notification::new(Arc::clone(s)))
        .collect();
    let mut seen = [false; 2];
    for _ in 0..2 {
        let (i, buf) = wait_any(&mut notes).expect("a completion is pending");
        assert!(!seen[i], "slot {i} delivered twice");
        seen[i] = true;
        assert_eq!(buf.data(), &[i as u8 + 1; 8]);
    }
    assert!(wait_any(&mut notes).is_none(), "both consumed");
    for c in completers {
        c.join();
    }
}

/// A future is polled once and dropped mid-flight while the completer
/// runs. Whatever interleaving occurs, the payload is delivered exactly
/// once: either the single poll consumed it, or a fresh `Notification`
/// on the same slot receives it after the drop.
pub(super) fn notify_dropped_future_model() {
    let slot = NotificationSlot::new();
    let completer = spawn_completer(&slot);
    let waker = park_waker(model_tid());
    let mut cx = Context::from_waker(&waker);
    let mut fut = Notification::new(Arc::clone(&slot)).into_future();
    let first = match Pin::new(&mut fut).poll(&mut cx) {
        Poll::Ready(buf) => Some(buf),
        Poll::Pending => None,
    };
    drop(fut);
    match first {
        Some(buf) => {
            assert_eq!(buf.data(), &[7u8; 8]);
            assert!(
                Notification::new(Arc::clone(&slot)).poll().is_none(),
                "consumed payload resurfaced after the future was dropped"
            );
        }
        None => {
            let mut note = Notification::new(Arc::clone(&slot));
            let buf = note.wait();
            assert_eq!(
                buf.data(),
                &[7u8; 8],
                "slot must stay consumable after an abandoned future"
            );
        }
    }
    completer.join();
}

// ---------------------------------------------------------------------------
// Put countdown: two completers vs one blocking PutFuture
// ---------------------------------------------------------------------------

/// Two completers each count one unit of a two-unit countdown down
/// (`fragments_done`, as two wire workers ack a flush's markers) while
/// the waiter blocks on its `PutFuture` through the shipping `wait`:
/// spin, then poll → register → re-check → park. The future resolves
/// exactly once, clean; a wake lost between the first check and the
/// register shows up as a modeled deadlock.
pub(super) fn put_future_countdown_model() {
    let notify = PutNotify::new(2);
    let completers: Vec<_> = (0..2)
        .map(|_| {
            let notify = Arc::clone(&notify);
            spawn(move || notify.fragments_done(1, false))
        })
        .collect();
    let delivery = PutFuture::from_notify(Arc::clone(&notify), None).wait();
    let clean = PutDelivery {
        fragments: 2,
        nacked: false,
    };
    assert_eq!(delivery, clean, "the countdown resolved wrong");
    for c in completers {
        c.join();
    }
}

// ---------------------------------------------------------------------------
// Seqlock route cache: read vs publish vs generation bump
// ---------------------------------------------------------------------------

/// A reader races a republish of the cached route slot. A hit must carry
/// the queue that was published together with the key it validated —
/// never a torn mix of old and new fields.
pub(super) fn seqlock_read_vs_publish_model() {
    let slot = Arc::new(RouteSlot::default());
    slot.publish(1, 0x10, 1, 5);
    let writer = {
        let slot = Arc::clone(&slot);
        spawn(move || slot.publish(2, 0x20, 1, 7))
    };
    if let Some(q) = slot.read(1, 0x10, 1) {
        assert_eq!(q, 5, "hit on the old route returned the new queue");
    }
    if let Some(q) = slot.read(2, 0x20, 1) {
        assert_eq!(q, 7, "hit on the new route returned the old queue");
    }
    writer.join();
}

/// A generation bump (endpoint remap) races a reader revalidating the
/// same key. A hit under generation `g` must return the queue published
/// for `g` — the stale route is only ever served under the stale
/// generation, where it is still correct.
pub(super) fn seqlock_generation_bump_model() {
    let slot = Arc::new(RouteSlot::default());
    let generation = Arc::new(CheckedU64::new(1));
    slot.publish(1, 0x10, 1, 5);
    let writer = {
        let slot = Arc::clone(&slot);
        let generation = Arc::clone(&generation);
        spawn(move || {
            generation.fetch_add(1, Ordering::Release);
            slot.publish(1, 0x10, 2, 7);
        })
    };
    let g = generation.load(Ordering::Acquire);
    match slot.read(1, 0x10, g) {
        None => {}
        Some(q) => {
            let expect = if g == 1 { 5 } else { 7 };
            assert_eq!(q, expect, "hit under generation {g} returned queue {q}");
        }
    }
    writer.join();
}

// ---------------------------------------------------------------------------
// Completion queue: ring-vs-spill FIFO across overflow episodes
// ---------------------------------------------------------------------------

fn cq_buf(byte: u8) -> CompletedBuffer {
    CompletedBuffer::new(vec![byte; 4], 4, 0, VirtAddr::new(byte as u64))
}

/// Two producers push completions while the consumer drains; every
/// completion arrives exactly once and per-producer order holds, spill
/// or no spill (ring capacity 2 forces overflow under contention).
pub(super) fn cq_two_producer_model() {
    const PER: u64 = 2;
    let cq = Arc::new(CompletionQueue::new(2));
    let handles: Vec<_> = (0..2u64)
        .map(|p| {
            let cq = Arc::clone(&cq);
            spawn(move || {
                let att = cq.attachment(p);
                for i in 0..PER {
                    att.push(cq_buf((p * 10 + i) as u8));
                }
            })
        })
        .collect();
    let mut got: Vec<(u64, u8)> = Vec::new();
    let mut batch = Vec::new();
    while got.len() < 2 * PER as usize {
        batch.clear();
        if cq.poll_batch(4, &mut batch) == 0 {
            csync::spin_loop();
        }
        got.extend(batch.drain(..).map(|c| (c.user, c.buffer.data()[0])));
    }
    for h in handles {
        h.join();
    }
    let mut bytes: Vec<u8> = got.iter().map(|&(_, b)| b).collect();
    bytes.sort_unstable();
    assert_eq!(bytes, vec![0, 1, 10, 11], "completions lost or duplicated");
    for p in 0..2u64 {
        let seq: Vec<u8> = got
            .iter()
            .filter(|&&(user, _)| user == p)
            .map(|&(_, b)| b)
            .collect();
        assert!(
            seq.windows(2).all(|w| w[0] < w[1]),
            "producer {p} completions reordered: {seq:?}"
        );
    }
}

/// The PR-8 regression shape: an overflow episode is already open (ring
/// full, one entry spilled) when a late producer pushes concurrently with
/// the consumer's drain. Global FIFO must hold across the episode — the
/// late push must never overtake the entry sitting in the spill queue.
pub(super) fn cq_spill_episode_model() {
    let cq = Arc::new(CompletionQueue::new(2));
    // Uncontended setup on the host thread: fill the ring, then spill one
    // entry so the overflow episode is open before the race starts.
    let att = cq.attachment(0);
    att.push(cq_buf(1));
    att.push(cq_buf(2));
    att.push(cq_buf(3));
    let producer = {
        let cq = Arc::clone(&cq);
        spawn(move || cq.attachment(0).push(cq_buf(4)))
    };
    let mut order = Vec::new();
    let mut batch = Vec::new();
    while order.len() < 4 {
        batch.clear();
        if cq.poll_batch(4, &mut batch) == 0 {
            csync::spin_loop();
        }
        order.extend(batch.drain(..).map(|c| c.buffer.data()[0]));
    }
    producer.join();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        vec![1, 2, 3, 4],
        "spill episode lost or duplicated a completion"
    );
    let pos = |b: u8| order.iter().position(|&x| x == b).unwrap();
    assert!(pos(1) < pos(2), "ring FIFO violated: {order:?}");
    assert!(
        pos(2) < pos(3),
        "spilled entry overtook the ring: {order:?}"
    );
    assert!(
        pos(3) < pos(4),
        "late push overtook the open overflow episode: {order:?}"
    );
}

// ---------------------------------------------------------------------------
// Mailbox: dedup window vs epoch rotation
// ---------------------------------------------------------------------------

pub(super) fn post_bytes(m: &mut Mailbox, len: usize) -> Notification {
    let slot = NotificationSlot::new();
    m.post(PostedBuffer::new(
        vec![0; len],
        Threshold::bytes(len as u64),
        slot.clone(),
    ))
    .expect("post");
    Notification::new(slot)
}

pub(super) fn op(id: u64) -> OpKey {
    OpKey {
        op_id: id,
        initiator: 1,
    }
}

/// A retransmitted final fragment of epoch 0's completing op races fresh
/// epoch-1 traffic. The mailbox is exclusive-borrow by construction, so
/// the model serializes deliveries through a checked mutex and lets the
/// scheduler enumerate both arrival orders: the duplicate must hit the
/// dedup window (which survives rotation) in *every* interleaving and
/// never land bytes in — let alone complete — epoch 1.
pub(super) fn mailbox_dedup_rotation_model() {
    let m = Arc::new(csync::Mutex::new(Mailbox::with_dedup(
        VirtAddr::new(0xAB),
        MailboxMode::Steered,
        DEFAULT_RETAIN_EPOCHS,
        8,
    )));
    let (mut n1, mut n2) = {
        let mut mb = m.lock();
        let n1 = post_bytes(&mut mb, 4);
        let n2 = post_bytes(&mut mb, 4);
        // Epoch 0 completes with op 9 before the race begins.
        assert_eq!(mb.deliver(op(9), 4, 0, &[1; 4]), DeliveryOutcome::Completed);
        (n1, n2)
    };
    let dup = {
        let m = Arc::clone(&m);
        spawn(move || m.lock().deliver(op(9), 4, 0, &[1; 4]))
    };
    let fresh = {
        let m = Arc::clone(&m);
        spawn(move || m.lock().deliver(op(10), 2, 0, &[2; 2]))
    };
    assert_eq!(
        dup.join(),
        DeliveryOutcome::Duplicate,
        "replayed final fragment must dedup in every interleaving"
    );
    assert_eq!(fresh.join(), DeliveryOutcome::Accepted);
    let mb = m.lock();
    assert_eq!(mb.epoch(), 1);
    assert_eq!(
        mb.bytes_this_epoch(),
        2,
        "the duplicate landed bytes in epoch N+1"
    );
    let b1 = n1.poll().expect("epoch 0 completed");
    assert_eq!(b1.data(), &[1; 4]);
    assert!(n2.poll().is_none(), "epoch 1 completed early");
}

// ---------------------------------------------------------------------------
// Exhaustive exploration tests
// ---------------------------------------------------------------------------

#[test]
fn ring_push_close_pop_partition() {
    run_exhaustive("ring_partition", ring_partition_heap);
}

#[test]
fn ring_push_close_pop_partition_in_segment() {
    if let Some(seg) = partition_segment() {
        run_exhaustive("ring_partition_segment", || ring_partition_segment(&seg));
    }
}

#[test]
fn notify_wait_handoff() {
    run_exhaustive("notify_wait", notify_wait_model);
}

#[test]
fn notify_timeout_handoff() {
    run_exhaustive("notify_timeout", notify_timeout_model);
}

#[test]
fn notify_poll_handoff() {
    run_exhaustive("notify_poll", notify_poll_model);
}

#[test]
fn notify_future_handoff() {
    run_exhaustive("notify_future", notify_future_model);
}

#[test]
fn notify_wait_any_handoff() {
    run_exhaustive("notify_wait_any", notify_wait_any_model);
}

#[test]
fn notify_dropped_future_reuse() {
    run_exhaustive("notify_dropped_future", notify_dropped_future_model);
}

#[test]
fn put_future_countdown_handoff() {
    run_exhaustive("put_future_countdown", put_future_countdown_model);
}

#[test]
fn seqlock_read_vs_publish() {
    run_exhaustive("seqlock_read_vs_publish", seqlock_read_vs_publish_model);
}

#[test]
fn seqlock_generation_bump() {
    run_exhaustive("seqlock_generation_bump", seqlock_generation_bump_model);
}

#[test]
fn cq_two_producer_fifo() {
    run_exhaustive("cq_two_producer", cq_two_producer_model);
}

#[test]
fn cq_spill_episode_fifo() {
    run_exhaustive("cq_spill_episode", cq_spill_episode_model);
}

#[test]
fn mailbox_dedup_vs_rotation() {
    run_exhaustive("mailbox_dedup_rotation", mailbox_dedup_rotation_model);
}

/// Seeded randomized smoke over the richest model with the preemption
/// bound lifted — the lane CI runs with a printed seed for replay.
#[test]
fn randomized_schedule_smoke() {
    let seed = std::env::var("RVMA_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x52564d41u64);
    println!("RVMA_CHECK_SEED={seed}");
    let opts = Options {
        preemption_bound: None,
        ..Options::default()
    };
    let report = explore_random(opts, seed, 128, ring_partition_heap)
        .unwrap_or_else(|f| panic!("randomized smoke (seed {seed}): {f:?}"));
    println!(
        "randomized smoke: {} schedules sampled ({} steps)",
        report.schedules, report.total_steps
    );
}
