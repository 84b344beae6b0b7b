//! Completion pointers: lightweight, per-buffer completion notification.
//!
//! The paper's key completion idea (Sec. III-A, IV-C): when a buffer's
//! threshold is reached, the NIC writes the buffer's head address and length
//! to a **cache-line-aligned completion pointer** in host memory. Because
//! each buffer has its *own* known notification address — unlike a shared
//! completion queue — a thread can wait on exactly the completions it cares
//! about, using Monitor/MWait-style wake-on-write or plain polling.
//!
//! [`NotificationSlot`] is the software analogue, and after the latency
//! rework it really is a completion *pointer*, not a mutex-wrapped mailbox:
//!
//! * The payload lives in an `UnsafeCell`, guarded by a single atomic state
//!   word (`EMPTY → COMPLETE → TAKEN`). The NIC's completing write is a
//!   plain store followed by one release/`SeqCst` state transition — no
//!   lock, no allocation.
//! * The condvar slow path is armed only when a waiter has *registered*
//!   (a waiter-count atomic, Dekker-paired with the completing write). A
//!   pure-polling receiver costs the completer one relaxed-ish load; the
//!   old path took a mutex and broadcast `notify_all` on every completion.
//! * [`wait_any`] / [`wait_any_timeout`] park on one shared eventcount
//!   instead of burning a core polling every slot; the completing write
//!   bumps the eventcount only when a multi-slot waiter is parked.
//!
//! Waiters get the same menu as before:
//!
//! * [`Notification::poll`] — the polling idiom,
//! * [`Notification::wait`] — the Monitor/MWait idiom: a bounded spin on the
//!   state word (the mwait fast path, wake in ~one cache miss) followed by a
//!   parked wait (the power-saving path).
//!
//! Ownership of the completed buffer transfers through the slot, which is
//! the Rust-safe rendering of "the pointer to the data buffer is deposited
//! into the notification address".

use crate::buffer::CompletedBuffer;
use crate::cq::CqAttachment;
use crate::csync::{
    self, AtomicBool, AtomicU32, AtomicU8, AtomicUsize, CheckCell, Condvar, Mutation, Mutex,
};
use crate::telemetry::{self, EventKind, Telemetry};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

const STATE_EMPTY: u8 = 0;
const STATE_COMPLETE: u8 = 1;
const STATE_TAKEN: u8 = 2;

/// Spin iterations before falling back to parking — long enough to catch
/// completions that are a cache-miss away, short enough not to burn a core.
const SPIN_LIMIT: u32 = 4096;

const WAKER_IDLE: u8 = 0;
const WAKER_REGISTERING: u8 = 0b01;
const WAKER_WAKING: u8 = 0b10;

/// A lock-free one-waker parking cell (the `futures`-style atomic-waker
/// protocol): the consumer registers its task's [`Waker`] and the completing
/// write hands exactly one wake to it, race-free, without a mutex on either
/// side.
///
/// States: `IDLE` (cell quiescent), `REGISTERING` (consumer storing a
/// waker), `WAKING` (producer draining the cell). The interesting race —
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

    /// Drop any parked waker without waking it (future cancellation).
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
/// (`EndpointStats`) and armed into every slot its windows post. All relaxed:
/// diagnostics, never synchronization.
#[derive(Debug, Default)]
pub struct AsyncNotifyStats {
    /// Completing writes that actually woke someone (condvar waiter, parked
    /// task waker, CQ consumer, or multi-slot eventcount).
    pub(crate) notify_wakes: AtomicU64,
    /// Future polls that found the slot still pending after a previous
    /// registration — the woken-but-nothing-ready metric.
    pub(crate) spurious_polls: AtomicU64,
    /// `NotifyFuture`s dropped before consuming their completion.
    pub(crate) futures_dropped: AtomicU64,
    /// Completions routed into an attached `CompletionQueue`.
    pub(crate) cq_completions: AtomicU64,
}

/// The shared, cache-line-aligned completion slot written once by the NIC.
#[repr(align(64))]
pub struct NotificationSlot {
    /// `STATE_EMPTY` until the NIC's single completing write flips it to
    /// `STATE_COMPLETE`; the consuming waiter retires it to `STATE_TAKEN`.
    state: AtomicU8,
    /// Parked waiters registered on this slot. The completing write takes
    /// the condvar path only when this is non-zero (Dekker-paired with the
    /// state transition, both `SeqCst`).
    waiters: AtomicU32,
    /// The completed buffer "pointer + length", transferred to the waiter.
    /// Guarded by `state`: written by the sole completer before the
    /// `COMPLETE` transition, read by the sole consumer after it.
    payload: CheckCell<Option<CompletedBuffer>>,
    /// Pairs with `condvar` for the parked slow path. Never guards the
    /// payload.
    wake: Mutex<()>,
    /// Wakes parked waiters (the Monitor/MWait slow path).
    condvar: Condvar,
    /// The async parking cell: [`NotifyFuture::poll`] registers here and the
    /// completing write wakes it directly — no condvar, no spin.
    waker: AtomicWaker,
    /// `wait_any`/`wait_any_timeout` callers parked on the shared eventcount
    /// with this slot in their scan set. The completing write signals the
    /// eventcount only when this is non-zero (Dekker-paired, both `SeqCst`),
    /// so unrelated multi-slot waiters no longer take spurious wakeups.
    multi_waiters: AtomicU32,
    /// Ready-list attachment: when set (always before posting, so never
    /// racing the completer), the completing write pushes the buffer into
    /// the attached [`CompletionQueue`](crate::cq::CompletionQueue).
    cq: OnceLock<CqAttachment>,
    /// True for slots posted through an async-aware path (`post_*_async`,
    /// CQ-attached posts). Set before posting, so the mailbox's completion
    /// funnel can record `NotifyWake` deterministically.
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
            waiters: AtomicU32::new(0),
            payload: CheckCell::new(None),
            wake: Mutex::new(()),
            condvar: Condvar::new(),
            waker: AtomicWaker::new(),
            multi_waiters: AtomicU32::new(0),
            cq: OnceLock::new(),
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

    /// Route this slot's completion into a [`CompletionQueue`] ready-list.
    /// Must be called before posting (the `OnceLock` is written exactly
    /// once, and the completer only reads it after the slot was posted).
    ///
    /// [`CompletionQueue`]: crate::cq::CompletionQueue
    pub(crate) fn attach_cq(&self, att: CqAttachment) {
        self.async_armed.store(true, Ordering::Release);
        let ok = self.cq.set(att).is_ok();
        debug_assert!(ok, "slot already attached to a completion queue");
    }

    /// The NIC-side completing write. Stores the buffer, flips the state
    /// word, and wakes parked waiters — touching the mutex/condvar only
    /// when a waiter has actually registered. Must be called at most once
    /// per slot; a second call panics in debug builds.
    pub(crate) fn complete(&self, buf: CompletedBuffer) {
        // Clone for the CQ ready-list before publishing. The attachment is
        // made before posting, so it cannot race this read; the clone is an
        // Arc bump on the buffer's shared inner.
        let cq_entry = self.cq.get().map(|att| (att, buf.clone()));
        // SAFETY: sole completer (mailbox lock serialises delivery; debug
        // assert below catches double-complete). No consumer reads the
        // payload until the SeqCst transition publishes it.
        debug_assert!(
            self.payload.with(|p| unsafe { (*p).is_none() }),
            "notification slot completed twice"
        );
        self.payload.with_mut(|p| unsafe { *p = Some(buf) });
        // SeqCst, not just Release: Dekker with waiter registration. Either
        // this store is ordered before the waiter's registration (then the
        // waiter's post-registration state check sees COMPLETE and never
        // parks), or the `waiters` load below sees the registration (and we
        // take the condvar path). The same pairing covers the async waker
        // (`NotifyFuture::poll` re-checks state after registering) and the
        // `multi_waiters` eventcount scope.
        //
        // The two `csync::mutation` branches are the seeded-bad-ordering
        // hooks for exactly the properties this comment argues: weakening
        // the swap loses the payload-publication edge (a data race the
        // checker's vector clocks flag), and hoisting the waiter check
        // above the swap re-opens the lost-wakeup window (a modeled
        // deadlock). Both are `const false` outside `--features check`.
        let completing_order = if csync::mutation(Mutation::RelaxedCompletingSwap) {
            Ordering::Relaxed
        } else {
            Ordering::SeqCst
        };
        let waiters_early = if csync::mutation(Mutation::WaitersCheckBeforeSwap) {
            Some(self.waiters.load(Ordering::SeqCst))
        } else {
            None
        };
        let prev = self.state.swap(STATE_COMPLETE, completing_order);
        debug_assert_eq!(prev, STATE_EMPTY, "notification slot completed twice");
        let mut woke = false;
        let waiters_now = waiters_early.unwrap_or_else(|| self.waiters.load(Ordering::SeqCst));
        if waiters_now > 0 {
            // Lock-then-unlock before notifying: a waiter that observed
            // EMPTY is either not yet inside `condvar.wait` (then it holds
            // or will take `wake`, and its re-check under the lock sees
            // COMPLETE) or already parked (then notify_all wakes it).
            drop(self.wake.lock());
            self.condvar.notify_all();
            woke = true;
        }
        // The async handoff: one lock-free drain of the waker cell wakes the
        // parked task directly.
        if self.waker.wake() {
            woke = true;
        }
        if let Some((att, buf)) = cq_entry {
            att.push(buf);
            if let Some(stats) = self.stats.get() {
                stats.cq_completions.fetch_add(1, Ordering::Relaxed);
            }
            woke = true;
        }
        // Scoped, not broadcast: only signal the process-wide eventcount
        // when a `wait_any` caller actually registered on *this* slot.
        if self.multi_waiters.load(Ordering::SeqCst) > 0 {
            any_event().signal();
            woke = true;
        }
        if woke {
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

    /// Parked wait until the completing write, with an optional deadline.
    /// Returns `false` on timeout. Caller has already spun.
    fn park_until(&self, deadline: Option<Instant>) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Re-check after registering (the other half of the Dekker pair in
        // `complete`): if the completing write already landed we must not
        // sleep — its `waiters` load may have seen zero.
        let mut completed = self.state.load(Ordering::SeqCst) == STATE_COMPLETE;
        if !completed {
            let mut guard = self.wake.lock();
            loop {
                if self.state.load(Ordering::SeqCst) == STATE_COMPLETE {
                    completed = true;
                    break;
                }
                match deadline {
                    Some(d) => {
                        if self.condvar.wait_until(&mut guard, d).timed_out() {
                            completed = self.state.load(Ordering::SeqCst) == STATE_COMPLETE;
                            break;
                        }
                    }
                    None => self.condvar.wait(&mut guard),
                }
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        completed
    }
}

/// One iteration of the pre-park spin phase, yielding the CPU every
/// 256 spins: if the completer is runnable but not running
/// (oversubscribed or single-CPU host), a yield hands it the core
/// instead of burning the rest of the spin budget against a state word
/// that cannot change.
fn spin_step(spins: u32) {
    if spins % 256 == 255 {
        csync::thread::yield_now();
    } else {
        csync::spin_loop();
    }
}

impl std::fmt::Debug for NotificationSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotificationSlot")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// A shared eventcount: multi-slot waiters park here once instead of
/// polling every slot. `signal` costs completers one `SeqCst` load while no
/// waiter is parked.
struct EventCount {
    /// Bumped by every signal that found a registered waiter; waiters
    /// sleep only while the epoch they captured is still current.
    epoch: AtomicUsize,
    /// Registered multi-slot waiters (parked or about to park).
    waiters: AtomicUsize,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl EventCount {
    const fn new() -> Self {
        EventCount {
            epoch: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Completer side. Dekker with `wait`: either the waiter's registration
    /// is visible here (bump + broadcast), or the completing write is
    /// visible to the waiter's post-registration rescan.
    fn signal(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        drop(self.mutex.lock());
        self.condvar.notify_all();
    }

    /// Waiter side: register, capture the epoch, let `rescan` run once, and
    /// park until the epoch moves (or the deadline passes). Returns what
    /// `rescan` returned; `None` means "parked and woke (or timed out),
    /// rescan again".
    fn wait_for<T>(
        &self,
        deadline: Option<Instant>,
        mut rescan: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let epoch = self.epoch.load(Ordering::SeqCst);
        let hit = rescan();
        if hit.is_none() {
            let mut guard = self.mutex.lock();
            while self.epoch.load(Ordering::SeqCst) == epoch {
                match deadline {
                    Some(d) => {
                        if self.condvar.wait_until(&mut guard, d).timed_out() {
                            break;
                        }
                    }
                    None => self.condvar.wait(&mut guard),
                }
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        hit
    }
}

/// The process-wide eventcount shared by all slots. One static is enough:
/// cross-slot spurious wakeups only cost a rescan, and missed wakeups are
/// impossible (see `EventCount::signal`).
fn any_event() -> &'static EventCount {
    static EVENT: EventCount = EventCount::new();
    &EVENT
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

    /// Block until the buffer completes (Monitor/MWait idiom: bounded spin,
    /// then park). Panics if the completion was already consumed.
    pub fn wait(&mut self) -> CompletedBuffer {
        assert!(!self.consumed, "notification already consumed");
        // Fast path: spin on the state word (budget collapses to ~2 under
        // an active checker execution — spinning is modeled as blocking).
        for spins in 0..csync::spin_budget(SPIN_LIMIT) {
            if self.slot.is_complete() {
                return self.take();
            }
            spin_step(spins);
        }
        // Slow path: register and park.
        self.slot.park_until(None);
        self.take()
    }

    /// Like [`wait`](Notification::wait) but gives up after `timeout`,
    /// returning `None` on expiry.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<CompletedBuffer> {
        assert!(!self.consumed, "notification already consumed");
        let deadline = Instant::now() + timeout;
        for spins in 0..csync::spin_budget(SPIN_LIMIT) {
            if self.slot.is_complete() {
                return Some(self.take());
            }
            spin_step(spins);
        }
        if self.slot.park_until(Some(deadline)) {
            Some(self.take())
        } else {
            None
        }
    }

    /// Convert into the async waiting idiom: a future that resolves to the
    /// completed buffer when the completing write lands. The completing
    /// write wakes the registered task directly through the slot's
    /// `AtomicWaker` — no condvar, no spin. Panics (when polled) if the
    /// notification was already consumed.
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

fn scan(notifications: &mut [Notification]) -> Option<(usize, CompletedBuffer)> {
    for (i, n) in notifications.iter_mut().enumerate() {
        if let Some(buf) = n.poll() {
            return Some((i, buf));
        }
    }
    None
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
/// analogue of arming Monitor/MWait on several lines), then parks on a
/// shared eventcount that every completing write signals — one park for the
/// whole set, instead of a poll loop over every slot.
pub fn wait_any(notifications: &mut [Notification]) -> Option<(usize, CompletedBuffer)> {
    if notifications.iter().all(Notification::is_consumed) {
        return None;
    }
    for spins in 0..csync::spin_budget(SPIN_LIMIT) {
        if let Some(hit) = scan(notifications) {
            return Some(hit);
        }
        if spins % 1024 == 1023 {
            csync::thread::yield_now();
        } else {
            csync::spin_loop();
        }
    }
    loop {
        // Register interest on every slot in the set before the rescan, so
        // completers signal the eventcount only for slots someone is
        // actually parked on. Dekker: a completer that misses the
        // registration is ordered before it, so the rescan (which runs
        // after) observes the COMPLETE state.
        for n in notifications.iter() {
            n.slot.multi_waiters.fetch_add(1, Ordering::SeqCst);
        }
        let hit = any_event().wait_for(None, || scan(notifications));
        for n in notifications.iter() {
            n.slot.multi_waiters.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(hit) = hit {
            return Some(hit);
        }
    }
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
    if notifications.iter().all(Notification::is_consumed) {
        return None;
    }
    let deadline = Instant::now() + timeout;
    for spins in 0..csync::spin_budget(SPIN_LIMIT) {
        if let Some(hit) = scan(notifications) {
            return Some(hit);
        }
        if Instant::now() >= deadline {
            return None;
        }
        if spins % 1024 == 1023 {
            csync::thread::yield_now();
        } else {
            csync::spin_loop();
        }
    }
    loop {
        // Same scoped registration as `wait_any` (see the comment there).
        for n in notifications.iter() {
            n.slot.multi_waiters.fetch_add(1, Ordering::SeqCst);
        }
        let hit = any_event().wait_for(Some(deadline), || scan(notifications));
        for n in notifications.iter() {
            n.slot.multi_waiters.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(hit) = hit {
            return Some(hit);
        }
        if Instant::now() >= deadline {
            // One last scan so a completion racing the deadline is not
            // reported as a timeout.
            return scan(notifications);
        }
    }
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
        // parked on the eventcount by then, and the completing write must
        // wake it.
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
