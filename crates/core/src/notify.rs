//! Completion pointers: lightweight, per-buffer completion notification.
//!
//! The paper's key completion idea (Sec. III-A, IV-C): when a buffer's
//! threshold is reached, the NIC writes the buffer's head address and length
//! to a **cache-line-aligned completion pointer** in host memory. Because
//! each buffer has its *own* known notification address — unlike a shared
//! completion queue — a thread can wait on exactly the completions it cares
//! about, using Monitor/MWait-style wake-on-write or plain polling.
//!
//! [`NotificationSlot`] is the software analogue: one cache line holding an
//! atomic state word (`EMPTY → COMPLETE → TAKEN`) that guards an
//! `UnsafeCell` payload, and one `AtomicWaker` cell. The completing write
//! is a plain store, one `SeqCst` state swap and one drain of the waker
//! cell — no lock, no allocation. A buffer posted into a
//! [`CompletionQueue`](crate::cq::CompletionQueue) has no slot: its
//! completing write is the queue push. The waker cell is the **only** way a
//! completion reaches a waiter:
//!
//! * [`NotifyFuture`] registers its task's waker there;
//! * the blocking waits — [`Notification::wait`] /
//!   [`wait_timeout`](Notification::wait_timeout), [`wait_any`] /
//!   [`wait_any_timeout`] — share one waiter: spin on the state word(s)
//!   (the Monitor/MWait fast path: a completion is one cache miss away)
//!   under the crate's one adaptive idle policy, `csync::Idle`, then
//!   register a waker that unparks this thread in every pending slot,
//!   re-check, and park.
//!
//! Ownership of the completed buffer transfers through the slot, which is
//! the Rust-safe rendering of "the pointer to the data buffer is deposited
//! into the notification address".

use crate::buffer::CompletedBuffer;
use crate::csync::{self, AtomicBool, AtomicU8, CheckCell, Mutation};
use crate::telemetry::{self, EventKind, Telemetry};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

const STATE_EMPTY: u8 = 0;
const STATE_COMPLETE: u8 = 1;
const STATE_TAKEN: u8 = 2;

const WAKER_IDLE: u8 = 0;
const WAKER_REGISTERING: u8 = 0b01;
const WAKER_WAKING: u8 = 0b10;

/// A lock-free one-waker parking cell (the `futures`-style atomic-waker
/// protocol): the consumer registers its task's [`Waker`] and the completing
/// write hands exactly one wake to it, race-free, without a mutex on either
/// side.
///
/// States: `IDLE` (cell quiescent), `REGISTERING` (consumer storing a
/// waker), `WAKING` (producer emptying the cell). The interesting race —
/// the completing write landing *while* the consumer is mid-registration —
/// resolves by bit-marking: the producer sets the `WAKING` bit and walks
/// away; the consumer's publish CAS fails, and it delivers the wake to
/// itself. A wake is therefore never lost and never delivered twice.
pub(crate) struct AtomicWaker {
    state: AtomicU8,
    waker: CheckCell<Option<Waker>>,
}

// SAFETY: the waker cell is accessed only inside the exclusive state-machine
// windows (`REGISTERING` by the registering consumer, `WAKING` by whichever
// side won the drain CAS), so there is never a concurrent &mut.
unsafe impl Send for AtomicWaker {}
unsafe impl Sync for AtomicWaker {}

impl AtomicWaker {
    pub(crate) const fn new() -> Self {
        AtomicWaker {
            state: AtomicU8::new(WAKER_IDLE),
            waker: CheckCell::new(None),
        }
    }

    /// Consumer side: park `waker` for the next wake. All orderings are
    /// `SeqCst` — the caller's post-registration state re-check relies on
    /// a single total order against the producer's completing `swap`.
    pub(crate) fn register(&self, waker: &Waker) {
        match self.state.compare_exchange(
            WAKER_IDLE,
            WAKER_REGISTERING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                // SAFETY: the REGISTERING window grants exclusive cell access.
                self.waker.with_mut(|w| unsafe { *w = Some(waker.clone()) });
                if self
                    .state
                    .compare_exchange(
                        WAKER_REGISTERING,
                        WAKER_IDLE,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_err()
                {
                    // A wake landed mid-registration: the producer set the
                    // WAKING bit and left the cell to us. Deliver the wake
                    // to ourselves so it is not lost.
                    // SAFETY: the producer never touches the cell when it
                    // finds REGISTERING set; we still own it.
                    let w = self.waker.with_mut(|w| unsafe { (*w).take() });
                    self.state.store(WAKER_IDLE, Ordering::SeqCst);
                    if let Some(w) = w {
                        w.wake();
                    }
                }
            }
            Err(s) if s & WAKER_WAKING != 0 => {
                // A wake is being drained right now; don't park behind it.
                waker.wake_by_ref();
            }
            Err(_) => {
                // Concurrent register: single-consumer misuse; drop ours.
            }
        }
    }

    /// Producer side: hand one wake to the registered waker, if any.
    /// Returns true when a waker was actually woken.
    pub(crate) fn wake(&self) -> bool {
        match self.state.fetch_or(WAKER_WAKING, Ordering::SeqCst) {
            WAKER_IDLE => {
                // SAFETY: the IDLE→WAKING transition grants exclusive
                // access to the cell until the IDLE store below.
                let w = self.waker.with_mut(|w| unsafe { (*w).take() });
                self.state.store(WAKER_IDLE, Ordering::SeqCst);
                match w {
                    Some(w) => {
                        w.wake();
                        true
                    }
                    None => false,
                }
            }
            // REGISTERING: the consumer's publish CAS will fail and it
            // wakes itself. WAKING: another drain is already in flight.
            _ => false,
        }
    }

    /// Take back any parked waker without waking it (future cancellation,
    /// a blocking waiter leaving its park phase).
    pub(crate) fn take(&self) -> Option<Waker> {
        if self
            .state
            .compare_exchange(WAKER_IDLE, WAKER_WAKING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // SAFETY: same exclusive WAKING window as `wake`.
            let w = self.waker.with_mut(|w| unsafe { (*w).take() });
            self.state.store(WAKER_IDLE, Ordering::SeqCst);
            w
        } else {
            None
        }
    }
}

impl std::fmt::Debug for AtomicWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicWaker").finish_non_exhaustive()
    }
}

/// Counters for the async completion path, owned by the endpoint
/// (`EndpointStats`), armed into every slot its windows post and held by
/// every mailbox, which counts its CQ pushes. All relaxed: diagnostics,
/// never synchronization.
#[derive(Debug, Default)]
pub struct AsyncNotifyStats {
    /// Completing writes that actually woke someone: the waker parked in
    /// the slot's cell (a pending future's task, or a blocking waiter past
    /// its spin phase), or a CQ push (each counts as one wake).
    pub(crate) notify_wakes: AtomicU64,
    /// Future polls that found the slot still pending after a previous
    /// registration — the woken-but-nothing-ready metric.
    pub(crate) spurious_polls: AtomicU64,
    /// `NotifyFuture`s dropped before consuming their completion.
    pub(crate) futures_dropped: AtomicU64,
    /// Completions pushed onto a `CompletionQueue`.
    pub(crate) cq_completions: AtomicU64,
}

/// The shared, cache-line-aligned completion slot written once by the NIC.
#[repr(align(64))]
pub struct NotificationSlot {
    /// `STATE_EMPTY` until the NIC's single completing write flips it to
    /// `STATE_COMPLETE`; the consuming waiter retires it to `STATE_TAKEN`.
    state: AtomicU8,
    /// The completed buffer "pointer + length", transferred to the waiter.
    /// Guarded by `state`: written by the sole completer before the
    /// `COMPLETE` transition, read by the sole consumer after it.
    payload: CheckCell<Option<CompletedBuffer>>,
    /// The one handoff cell: a pending [`NotifyFuture`] or a parked
    /// blocking waiter registers here, and the completing write drains it
    /// (Dekker-paired with the state swap, both `SeqCst`).
    waker: AtomicWaker,
    /// True for slots posted through `post_*_async`. Set before posting, so
    /// the mailbox's completion funnel can record `NotifyWake`
    /// deterministically.
    async_armed: AtomicBool,
    /// Endpoint-level async counters, armed by the posting window.
    stats: OnceLock<Arc<AsyncNotifyStats>>,
}

// SAFETY: `payload` is handed from the single completer (the endpoint
// delivery path calls `complete` at most once per slot, under the mailbox
// lock) to the single consumer (`Notification` enforces one take via the
// `COMPLETE → TAKEN` CAS); the state word orders the write before the read.
unsafe impl Send for NotificationSlot {}
unsafe impl Sync for NotificationSlot {}

impl NotificationSlot {
    /// A fresh, un-completed slot on the lock-free handoff path.
    pub fn new() -> Arc<Self> {
        Arc::new(NotificationSlot {
            state: AtomicU8::new(STATE_EMPTY),
            payload: CheckCell::new(None),
            waker: AtomicWaker::new(),
            async_armed: AtomicBool::new(false),
            stats: OnceLock::new(),
        })
    }

    /// Arm the endpoint's async counters into this slot (first arm wins).
    pub(crate) fn arm_stats(&self, stats: Arc<AsyncNotifyStats>) {
        let _ = self.stats.set(stats);
    }

    /// Mark this slot as async-visible: its completing write is recorded as
    /// a `NotifyWake` telemetry event. Must be called before posting so the
    /// flag can never race the completer.
    pub(crate) fn arm_async(&self) {
        self.async_armed.store(true, Ordering::Release);
    }

    pub(crate) fn is_async_armed(&self) -> bool {
        self.async_armed.load(Ordering::Acquire)
    }

    /// The NIC-side completing write: store the buffer, swap the state
    /// word, drain the waker cell once. Must be called at most once per
    /// slot; a second call panics in debug builds.
    pub(crate) fn complete(&self, buf: CompletedBuffer) {
        // SAFETY: sole completer (mailbox lock serialises delivery; debug
        // assert below catches double-complete). No consumer reads the
        // payload until the SeqCst transition publishes it.
        debug_assert!(
            self.payload.with(|p| unsafe { (*p).is_none() }),
            "notification slot completed twice"
        );
        self.payload.with_mut(|p| unsafe { *p = Some(buf) });
        // SeqCst, not just Release: Dekker with waker registration. Either
        // this swap is ordered before the waiter's post-registration state
        // re-check (which then sees COMPLETE and never parks), or the drain
        // below sees the registered waker and wakes it. Future and blocking
        // waiters register in the same cell, so one pairing covers both.
        //
        // The two `csync::mutation` branches are the seeded-bad-ordering
        // hooks for exactly the properties this comment argues: weakening
        // the swap loses the payload-publication edge (a data race the
        // checker's vector clocks flag), and emptying the cell before the
        // swap re-opens the lost-wakeup window (a modeled deadlock). Both
        // are `const false` outside `--features check`.
        let completing_order = if csync::mutation(Mutation::RelaxedCompletingSwap) {
            Ordering::Relaxed
        } else {
            Ordering::SeqCst
        };
        let early_drain =
            csync::mutation(Mutation::WakerDrainBeforeSwap).then(|| self.waker.wake());
        let prev = self.state.swap(STATE_COMPLETE, completing_order);
        debug_assert_eq!(prev, STATE_EMPTY, "notification slot completed twice");
        if early_drain.unwrap_or_else(|| self.waker.wake()) {
            if let Some(stats) = self.stats.get() {
                stats.notify_wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_COMPLETE
    }

    fn take_payload(&self) -> Option<CompletedBuffer> {
        // The COMPLETE → TAKEN CAS elects exactly one taker and (Acquire)
        // orders the payload read after the completer's write. A failed
        // CAS means another handle over this slot won the election —
        // return `None` so the loser backs off instead of panicking
        // (two handles can coexist after a cancelled future).
        if self
            .state
            .compare_exchange(
                STATE_COMPLETE,
                STATE_TAKEN,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return None;
        }
        // SAFETY: the CAS above grants this thread sole ownership of the
        // published payload.
        Some(
            self.payload
                .with_mut(|p| unsafe { (*p).take() })
                .expect("COMPLETE slot with no payload"),
        )
    }
}

impl std::fmt::Debug for NotificationSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotificationSlot")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// A waker that unparks the calling thread — what a blocking waiter
/// registers in its slots' cells. Built once per thread and cloned (a
/// refcount bump) per park, so parking allocates nothing after a thread's
/// first park. Under a checker execution a fresh one names the current
/// model thread.
fn park_waker() -> Waker {
    struct Unpark(csync::thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }
    fn fresh() -> Waker {
        Waker::from(Arc::new(Unpark(csync::thread::current())))
    }
    thread_local! {
        static PARK_WAKER: Waker = fresh();
    }
    if csync::modeled() {
        fresh()
    } else {
        // `try_with`: a wait from another thread-local's destructor runs
        // after this one may have been torn down.
        PARK_WAKER
            .try_with(Waker::clone)
            .unwrap_or_else(|_| fresh())
    }
}

/// Index of the first unconsumed notification whose slot completed.
fn first_complete(notes: &[Notification], order: Ordering) -> Option<usize> {
    notes
        .iter()
        .position(|n| !n.consumed && n.slot.state.load(order) == STATE_COMPLETE)
}

/// The one blocking waiter behind [`Notification::wait`],
/// [`Notification::wait_timeout`], [`wait_any`] and [`wait_any_timeout`].
/// Spins on the pending slots' state words under this thread's
/// [`csync::Idle`] budget (checking `deadline` at its yield cadence); then
/// registers this thread's parking waker in every pending slot, re-checks,
/// and parks until a completing write drains one of them. Returns the
/// index of a completed (not yet taken) notification, or `None` once
/// `deadline` passes.
fn block_until(notes: &[Notification], deadline: Option<Instant>) -> Option<usize> {
    let mut idle = csync::Idle::new();
    loop {
        if let Some(i) = first_complete(notes, Ordering::Acquire) {
            idle.done();
            return Some(i);
        }
        if deadline.is_some_and(|d| idle.past(d)) {
            return None;
        }
        if !idle.spin() {
            break;
        }
    }
    let waker = park_waker();
    let pending = || notes.iter().filter(|n| !n.consumed);
    for n in pending() {
        n.slot.waker.register(&waker);
    }
    let hit = loop {
        // SeqCst re-check after registering: the waiter half of the
        // Dekker pair in `complete`. A spurious unpark lands back here.
        if let Some(i) = first_complete(notes, Ordering::SeqCst) {
            break Some(i);
        }
        match deadline {
            None => csync::thread::park(),
            Some(d) => {
                let now = Instant::now();
                if now >= d || csync::thread::park_timeout(d - now) {
                    // One last look, so a completion racing the deadline
                    // is not reported as a timeout.
                    break first_complete(notes, Ordering::SeqCst);
                }
            }
        }
    };
    for n in pending() {
        drop(n.slot.waker.take());
    }
    hit
}

/// The application-side handle to one buffer's completion pointer, returned
/// by `Window::post_buffer` (paper: the `notification_ptr` out-parameter of
/// `RVMA_Post_buffer`).
///
/// Exactly one of [`poll`](Notification::poll) / [`wait`](Notification::wait)
/// / [`wait_timeout`](Notification::wait_timeout) consumes the completion;
/// afterwards [`is_consumed`](Notification::is_consumed) reports `true`.
#[derive(Debug)]
pub struct Notification {
    slot: Arc<NotificationSlot>,
    consumed: bool,
    /// Op-level event recorder: the consuming take stamps
    /// `NotifyHandoff`. `None` unless the owning endpoint enabled
    /// telemetry (set by `Window::post_buffer_with`).
    telemetry: Option<Arc<Telemetry>>,
}

impl Notification {
    pub(crate) fn new(slot: Arc<NotificationSlot>) -> Self {
        Notification {
            slot,
            consumed: false,
            telemetry: None,
        }
    }

    /// Stamp this notification's consuming take into `telemetry`.
    pub(crate) fn trace_into(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The consuming take: flip `consumed`, take the payload, stamp the
    /// handoff. Every `poll`/`wait`/`wait_timeout` success funnels here.
    /// Panics if another handle over the same slot won the take election;
    /// blocking paths hold the only handle, so a loss there is a bug.
    fn take(&mut self) -> CompletedBuffer {
        self.try_take().expect("notification payload already taken")
    }

    /// The election-aware take: `None` means another handle over the same
    /// slot raced us to the `COMPLETE → TAKEN` CAS and owns the payload.
    /// Either way this handle is spent (`consumed` flips).
    fn try_take(&mut self) -> Option<CompletedBuffer> {
        self.consumed = true;
        let buf = self.slot.take_payload()?;
        telemetry::record(
            &self.telemetry,
            EventKind::NotifyHandoff,
            buf.vaddr().raw(),
            buf.epoch(),
            buf.len() as u64,
        );
        Some(buf)
    }

    /// Non-blocking check of the completion pointer (the polling idiom).
    /// Returns the completed buffer on the first call after completion.
    pub fn poll(&mut self) -> Option<CompletedBuffer> {
        if self.consumed || !self.slot.is_complete() {
            return None;
        }
        self.try_take()
    }

    /// True if the completion fired, without consuming it. This is the raw
    /// "has the memory location changed" check a Monitor/MWait would arm.
    pub fn is_complete(&self) -> bool {
        !self.consumed && self.slot.is_complete()
    }

    /// True once the completion has been taken via `poll`/`wait`.
    pub fn is_consumed(&self) -> bool {
        self.consumed
    }

    /// Block until the buffer completes (Monitor/MWait idiom: spin on the
    /// state word under this thread's adaptive budget, then park). Panics
    /// if the completion was already consumed.
    pub fn wait(&mut self) -> CompletedBuffer {
        assert!(!self.consumed, "notification already consumed");
        block_until(std::slice::from_ref(self), None);
        self.take()
    }

    /// Like [`wait`](Notification::wait) but gives up after `timeout`,
    /// returning `None` on expiry. The deadline is checked during the spin
    /// as well as the park, so a short timeout is not stretched by the
    /// spin budget; a zero timeout is a single check.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<CompletedBuffer> {
        assert!(!self.consumed, "notification already consumed");
        block_until(
            std::slice::from_ref(self),
            Instant::now().checked_add(timeout),
        )?;
        Some(self.take())
    }

    /// Convert into the async waiting idiom: a future that resolves to the
    /// completed buffer when the completing write lands. The completing
    /// write wakes the registered task directly through the slot's
    /// `AtomicWaker`. Panics (when polled) if the notification was already
    /// consumed.
    pub fn into_future(self) -> NotifyFuture {
        NotifyFuture {
            inner: self,
            registered: false,
        }
    }
}

/// The async half of a completion pointer: resolves to the
/// [`CompletedBuffer`] once the completing write lands.
///
/// Created by [`Notification::into_future`] or the window's `post_*_async`
/// methods. Cancellation is dropping the future: the parked waker (if any)
/// is discarded, the slot is left in a consumable state (never `TAKEN`),
/// and the completion — whether it already landed or lands later — still
/// transfers buffer ownership to the slot, whose last `Arc` drop releases
/// it back to the pool.
#[derive(Debug)]
pub struct NotifyFuture {
    inner: Notification,
    /// True once a waker has been parked — a later poll that still finds
    /// the slot pending is a spurious wakeup, counted as such.
    registered: bool,
}

impl Future for NotifyFuture {
    type Output = CompletedBuffer;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<CompletedBuffer> {
        let this = self.get_mut();
        assert!(
            !this.inner.is_consumed(),
            "NotifyFuture polled after completion"
        );
        // Fast path: the completing write already landed.
        if this.inner.slot.is_complete() {
            return Poll::Ready(this.inner.take());
        }
        // Park, then re-check (the async half of the Dekker pair in
        // `complete`): either the completer's drain sees our waker, or its
        // SeqCst state swap is ordered before our registration and this
        // load observes COMPLETE.
        this.inner.slot.waker.register(cx.waker());
        if this.inner.slot.state.load(Ordering::SeqCst) == STATE_COMPLETE {
            return Poll::Ready(this.inner.take());
        }
        if this.registered {
            if let Some(stats) = this.inner.slot.stats.get() {
                stats.spurious_polls.fetch_add(1, Ordering::Relaxed);
            }
        }
        this.registered = true;
        Poll::Pending
    }
}

impl Drop for NotifyFuture {
    fn drop(&mut self) {
        if !self.inner.is_consumed() {
            // Cancelled mid-flight: discard the parked waker so a later
            // completing write doesn't wake a dead task, and count the
            // abandonment. The slot stays consumable (EMPTY or COMPLETE,
            // never TAKEN).
            drop(self.inner.slot.waker.take());
            if let Some(stats) = self.inner.slot.stats.get() {
                stats.futures_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Wait until *any* of the given notifications completes; returns the index
/// of the winner and its buffer. This is the fine-grained completion story
/// of paper Sec. IV-C: because every buffer has its own known notification
/// address, a thread waits on exactly the set it cares about — no shared
/// completion queue, no stolen events.
///
/// Already-consumed notifications are skipped. Returns `None` if every
/// notification in the slice has been consumed.
///
/// # Blocking
/// Spins across the slots (each check is one atomic load — the multi-slot
/// analogue of arming Monitor/MWait on several lines), then registers one
/// parking waker in every pending slot's cell and parks once for the whole
/// set; whichever completing write lands first unparks it.
pub fn wait_any(notifications: &mut [Notification]) -> Option<(usize, CompletedBuffer)> {
    wait_any_until(notifications, None)
}

/// [`wait_any`] with a deadline: returns `None` once `timeout` elapses with
/// no completion (or when every notification was already consumed). The
/// escape hatch a fault-tolerant consumer needs — on a lossy fabric "any of
/// these will complete" is no longer a certainty.
///
/// The deadline is computed **once**, up front, so the cost of scanning a
/// long slot list can never stretch the caller's timeout.
pub fn wait_any_timeout(
    notifications: &mut [Notification],
    timeout: Duration,
) -> Option<(usize, CompletedBuffer)> {
    wait_any_until(notifications, Instant::now().checked_add(timeout))
}

fn wait_any_until(
    notes: &mut [Notification],
    deadline: Option<Instant>,
) -> Option<(usize, CompletedBuffer)> {
    while !notes.iter().all(Notification::is_consumed) {
        let i = block_until(notes, deadline)?;
        // A lost take election spends that handle; keep waiting on the rest.
        if let Some(buf) = notes[i].try_take() {
            return Some((i, buf));
        }
    }
    None
}

/// Collect the completions of *all* given notifications, blocking until
/// each fires, and returning buffers in slice order. Panics if any
/// notification was already consumed.
pub fn wait_all(notifications: &mut [Notification]) -> Vec<CompletedBuffer> {
    notifications.iter_mut().map(Notification::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;

    fn completed(tag: u8) -> CompletedBuffer {
        CompletedBuffer::new(vec![tag; 8], 8, 0, VirtAddr::new(tag as u64))
    }

    #[test]
    fn slot_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<NotificationSlot>(), 64);
    }

    #[test]
    fn poll_before_completion_is_none() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot);
        assert!(n.poll().is_none());
        assert!(!n.is_complete());
        assert!(!n.is_consumed());
    }

    #[test]
    fn poll_after_completion_yields_once() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot.clone());
        slot.complete(completed(3));
        assert!(n.is_complete());
        let buf = n.poll().expect("completion visible");
        assert_eq!(buf.data(), &[3; 8]);
        assert!(n.is_consumed());
        assert!(n.poll().is_none(), "second poll must not re-deliver");
        assert!(!n.is_complete(), "consumed notifications report incomplete");
    }

    #[test]
    fn wait_returns_immediately_when_already_complete() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot.clone());
        slot.complete(completed(9));
        assert_eq!(n.wait().data(), &[9; 8]);
    }

    #[test]
    fn wait_blocks_until_cross_thread_completion() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot.clone());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.complete(completed(5));
        });
        let buf = n.wait();
        assert_eq!(buf.data(), &[5; 8]);
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot);
        assert!(n.wait_timeout(Duration::from_millis(10)).is_none());
        assert!(!n.is_consumed());
    }

    #[test]
    fn wait_timeout_succeeds_when_completed() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot.clone());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete(completed(7));
        });
        let buf = n
            .wait_timeout(Duration::from_secs(5))
            .expect("completes within timeout");
        assert_eq!(buf.epoch(), 0);
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "already consumed")]
    fn wait_after_consume_panics() {
        let slot = NotificationSlot::new();
        let mut n = Notification::new(slot.clone());
        slot.complete(completed(1));
        let _ = n.poll();
        let _ = n.wait();
    }

    #[test]
    fn wait_any_returns_first_completion() {
        let slots: Vec<_> = (0..4).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        slots[2].complete(completed(9));
        let (idx, buf) = wait_any(&mut ns).expect("one completes");
        assert_eq!(idx, 2);
        assert_eq!(buf.data(), &[9; 8]);
        assert!(ns[2].is_consumed());
        assert!(!ns[0].is_consumed());
    }

    #[test]
    fn wait_any_blocks_for_cross_thread_completion() {
        let slots: Vec<_> = (0..3).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        let slot = slots[1].clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            slot.complete(completed(4));
        });
        let (idx, _) = wait_any(&mut ns).expect("completion arrives");
        assert_eq!(idx, 1);
        t.join().unwrap();
    }

    #[test]
    fn wait_any_parks_and_wakes_after_spin_budget() {
        // Completion arrives long after the spin budget: the waiter must be
        // parked with its waker in both slots by then, and the completing
        // write must wake it.
        let slots: Vec<_> = (0..2).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        let slot = slots[0].clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            slot.complete(completed(8));
        });
        let (idx, buf) = wait_any(&mut ns).expect("completion arrives");
        assert_eq!(idx, 0);
        assert_eq!(buf.data(), &[8; 8]);
        t.join().unwrap();
    }

    #[test]
    fn wait_any_all_consumed_is_none() {
        let slot = NotificationSlot::new();
        let mut ns = vec![Notification::new(slot.clone())];
        slot.complete(completed(1));
        let _ = ns[0].poll();
        assert!(wait_any(&mut ns).is_none());
        assert!(wait_any(&mut []).is_none());
    }

    #[test]
    fn wait_any_timeout_expires_without_consuming() {
        let slots: Vec<_> = (0..3).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        assert!(wait_any_timeout(&mut ns, Duration::from_millis(10)).is_none());
        assert!(ns.iter().all(|n| !n.is_consumed()));
        // A completion arriving later is still observable.
        slots[1].complete(completed(2));
        let (idx, buf) = wait_any_timeout(&mut ns, Duration::from_secs(5)).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(buf.data(), &[2; 8]);
    }

    #[test]
    fn wait_any_timeout_wakes_from_park() {
        let slots: Vec<_> = (0..2).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        let slot = slots[1].clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            slot.complete(completed(3));
        });
        let (idx, _) = wait_any_timeout(&mut ns, Duration::from_secs(10)).expect("arrives");
        assert_eq!(idx, 1);
        t.join().unwrap();
    }

    #[test]
    fn wait_all_collects_in_order() {
        let slots: Vec<_> = (0..3).map(|_| NotificationSlot::new()).collect();
        let mut ns: Vec<_> = slots.iter().map(|s| Notification::new(s.clone())).collect();
        // Complete in reverse order; results must still be slice-ordered.
        for (i, s) in slots.iter().enumerate().rev() {
            s.complete(completed(i as u8));
        }
        let bufs = wait_all(&mut ns);
        assert_eq!(bufs.len(), 3);
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(b.vaddr().raw(), i as u64);
        }
    }

    #[test]
    fn many_waiters_on_distinct_slots() {
        // The fine-grained completion story: N threads each wait on their own
        // slot; completing one wakes exactly that waiter.
        let slots: Vec<_> = (0..8).map(|_| NotificationSlot::new()).collect();
        let handles: Vec<_> = slots
            .iter()
            .map(|s| {
                let mut n = Notification::new(s.clone());
                std::thread::spawn(move || n.wait().vaddr().raw())
            })
            .collect();
        for (i, s) in slots.iter().enumerate() {
            s.complete(completed(i as u8));
        }
        let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
    }
}
