//! `csync` — the crate's single seam between production synchronization
//! primitives and the `rvma-check` model checker.
//!
//! Every lock-free module (`ring`, `notify`, `cq`, the seqlock route
//! cache in `transport_threaded`, the telemetry shards) takes its
//! atomics, `UnsafeCell`s, locks, park/unpark, futex and spin hints from
//! here instead of `std`/`parking_lot` directly.
//!
//! * **Default build** (no `check` feature): everything is a plain
//!   re-export or a `#[repr(transparent)]` `#[inline(always)]` wrapper —
//!   zero cost, the hot path compiles to exactly the code it did before
//!   (guarded by the `put_latency --quick` overhead check in CI).
//! * **`--features check`**: the same names become instrumented wrappers
//!   that, *when the calling thread belongs to an active
//!   [`check`](crate::check) execution*, funnel every operation through
//!   the cooperative scheduler (a DFS choice point per op) and the
//!   vector-clock race detector. Outside an execution they fall through
//!   to the real operation, so regular tests behave identically under
//!   either feature set.
//!
//! The [`Mutation`] enum is the seeded bad-ordering registry for the
//! mutation-test harness: production code asks [`mutation`] whether a
//! specific known-bad weakening is active. In default builds this is
//! `const false` and folds away entirely.

/// Seeded bad orderings for the mutation-test harness. Each names a
/// specific weakening of a load-bearing ordering in production code; a
/// checker execution activates one via `check::Options::mutations` and
/// the corresponding test proves the checker catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// `NotificationSlot::complete`: perform the completing
    /// EMPTY→COMPLETE swap `Relaxed` instead of `SeqCst` — breaks the
    /// payload-publication happens-before edge.
    RelaxedCompletingSwap,
    /// `NotificationSlot::complete`: drain the slot's `AtomicWaker`
    /// *before* the completing swap (inverting the Dekker store→load
    /// order) — a waiter that registers between the two is never woken.
    WakerDrainBeforeSwap,
    /// `Ring::publish`: publish the slot sequence `Relaxed`
    /// instead of `Release` — the consumer can read an unpublished
    /// payload.
    RingPublishRelaxed,
    /// `RouteSlot::publish`: skip the odd-sequence write lock and store
    /// the fields directly — readers can observe a torn route.
    SeqlockTornPublish,
    /// `CompletionQueue::push`: ignore the spill-episode flag and push
    /// straight to the ring — re-creates the pre-PR-8 FIFO inversion
    /// across overflow episodes.
    CqSpillBypass,
    /// `Ring::claim`: test the closed flag once, before the claim
    /// loop, instead of inside the claim CAS — a push racing `close` can
    /// succeed behind the consumer's final index and never be popped.
    RingClosedApartFromClaim,
    /// `PutFuture::poll`: skip the re-check of `done` after registering
    /// the waker — a countdown that ends between the first check and the
    /// register wakes nobody, and the waiter parks for good.
    PutFutureSkipRecheck,
    /// `Doorbell::sleep_unless`: re-check the predicate before
    /// advertising in `waiters` — a publish between the two finds no
    /// waiter and rings nobody, and the sleeper sleeps through it.
    DoorbellRecheckFirst,
    /// `Doorbell::ring`: wake the sleepers without bumping `seq` — one
    /// between its re-check and its futex wait still finds the word it
    /// read, and sleeps through the wake.
    DoorbellWithoutBump,
}

impl Mutation {
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    pub(crate) fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    use std::cell::UnsafeCell;

    pub(crate) use crate::shm::{futex_wait, futex_wake};
    pub(crate) use parking_lot::Mutex;
    pub(crate) use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };

    pub(crate) mod thread {
        pub(crate) use std::thread::{current, park, yield_now, Thread};

        /// Park for at most `dur`; true when `dur` elapsed (the caller
        /// still re-checks its condition — a wake may race the timeout).
        pub(crate) fn park_timeout(dur: std::time::Duration) -> bool {
            let start = std::time::Instant::now();
            std::thread::park_timeout(dur);
            start.elapsed() >= dur
        }
    }

    #[inline(always)]
    pub(crate) fn spin_loop() {
        std::hint::spin_loop();
    }

    /// True on a thread inside an active checker execution; never here.
    #[inline(always)]
    pub(crate) fn modeled() -> bool {
        false
    }

    /// A checker execution's fixed spin allowance; never here.
    #[inline(always)]
    pub(crate) fn modeled_spins() -> Option<u32> {
        None
    }

    /// Seeded mutations never fire outside the checker.
    #[inline(always)]
    pub(crate) fn mutation(_m: super::Mutation) -> bool {
        false
    }

    /// Transparent `UnsafeCell`: the checker's plain-memory hook, free in
    /// real builds.
    #[repr(transparent)]
    pub(crate) struct CheckCell<T>(UnsafeCell<T>);

    impl<T> CheckCell<T> {
        #[inline(always)]
        pub(crate) const fn new(v: T) -> Self {
            CheckCell(UnsafeCell::new(v))
        }

        /// Shared access to the cell's raw pointer. The *caller* is
        /// responsible for the aliasing discipline, exactly as with
        /// `UnsafeCell::get`; the checker build verifies it.
        #[inline(always)]
        pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access to the cell's raw pointer (same contract).
        #[inline(always)]
        pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

#[cfg(feature = "check")]
mod imp {
    use crate::check::{with_active, AtomKind, Execution};
    use std::cell::UnsafeCell;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn ctx() -> Option<(Arc<Execution>, usize)> {
        with_active(|e, me| (e.clone(), me))
    }

    /// Seeded mutations fire only inside an execution that listed them.
    #[inline]
    pub(crate) fn mutation(m: super::Mutation) -> bool {
        crate::check::mutation_active(m)
    }

    #[inline]
    pub(crate) fn modeled() -> bool {
        ctx().is_some()
    }

    pub(crate) use crate::check::modeled_spins;

    pub(crate) fn spin_loop() {
        match ctx() {
            Some((e, me)) => e.spin_yield(me),
            None => std::hint::spin_loop(),
        }
    }

    pub(crate) fn fence(ord: Ordering) {
        match ctx() {
            Some((e, me)) => {
                e.schedule_point(me);
                std::sync::atomic::fence(ord);
                e.op_done(me, 0, AtomKind::Fence, ord);
            }
            None => std::sync::atomic::fence(ord),
        }
    }

    macro_rules! check_atomic {
        ($name:ident, $raw:ident, $prim:ty) => {
            /// Instrumented atomic: schedule point before the operation,
            /// shadow-clock bookkeeping after. Falls through to the real
            /// op outside an active execution. Transparent, so it can sit
            /// in a shared segment.
            #[derive(Debug, Default)]
            #[repr(transparent)]
            pub(crate) struct $name {
                real: std::sync::atomic::$raw,
            }

            #[allow(dead_code)]
            impl $name {
                pub(crate) const fn new(v: $prim) -> Self {
                    $name {
                        real: std::sync::atomic::$raw::new(v),
                    }
                }

                fn addr(&self) -> usize {
                    self as *const _ as usize
                }

                #[inline]
                fn instr<R>(&self, kind: AtomKind, ord: Ordering, f: impl FnOnce() -> R) -> R {
                    match ctx() {
                        Some((e, me)) => {
                            e.schedule_point(me);
                            let r = f();
                            e.op_done(me, self.addr(), kind, ord);
                            r
                        }
                        None => f(),
                    }
                }

                pub(crate) fn load(&self, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Load, ord, || self.real.load(ord))
                }

                pub(crate) fn store(&self, v: $prim, ord: Ordering) {
                    self.instr(AtomKind::Store, ord, || self.real.store(v, ord))
                }

                pub(crate) fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Rmw, ord, || self.real.swap(v, ord))
                }

                pub(crate) fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    match ctx() {
                        Some((e, me)) => {
                            e.schedule_point(me);
                            let r = self.real.compare_exchange(cur, new, ok, err);
                            // A failed CAS is a load with the failure
                            // ordering; a successful one is an RMW.
                            match r {
                                Ok(_) => e.op_done(me, self.addr(), AtomKind::Rmw, ok),
                                Err(_) => e.op_done(me, self.addr(), AtomKind::Load, err),
                            }
                            r
                        }
                        None => self.real.compare_exchange(cur, new, ok, err),
                    }
                }

                /// Under the model, "weak" failure is indistinguishable
                /// from strong (no spurious failures to enumerate — the
                /// retry loop around it is exercised via genuine
                /// contention instead).
                pub(crate) fn compare_exchange_weak(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(cur, new, ok, err)
                }
            }
        };
    }

    /// Integer-only RMW methods, appended to the shared surface.
    macro_rules! check_atomic_int {
        ($name:ident, $prim:ty) => {
            #[allow(dead_code)]
            impl $name {
                pub(crate) fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Rmw, ord, || self.real.fetch_add(v, ord))
                }

                pub(crate) fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Rmw, ord, || self.real.fetch_sub(v, ord))
                }

                pub(crate) fn fetch_or(&self, v: $prim, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Rmw, ord, || self.real.fetch_or(v, ord))
                }

                pub(crate) fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                    self.instr(AtomKind::Rmw, ord, || self.real.fetch_max(v, ord))
                }
            }
        };
    }

    check_atomic!(AtomicBool, AtomicBool, bool);
    check_atomic!(AtomicU8, AtomicU8, u8);
    check_atomic!(AtomicU32, AtomicU32, u32);
    check_atomic!(AtomicU64, AtomicU64, u64);
    check_atomic!(AtomicUsize, AtomicUsize, usize);
    check_atomic_int!(AtomicU8, u8);
    check_atomic_int!(AtomicU32, u32);
    check_atomic_int!(AtomicU64, u64);
    check_atomic_int!(AtomicUsize, usize);

    /// Instrumented `UnsafeCell`: plain accesses are race-checked against
    /// the vector clocks (not scheduling points — only sync ops branch).
    #[repr(transparent)]
    pub(crate) struct CheckCell<T> {
        inner: UnsafeCell<T>,
    }

    impl<T> CheckCell<T> {
        pub(crate) const fn new(v: T) -> Self {
            CheckCell {
                inner: UnsafeCell::new(v),
            }
        }

        fn note(&self, write: bool) {
            if let Some((e, me)) = ctx() {
                e.cell_access(
                    me,
                    self as *const _ as usize,
                    write,
                    std::any::type_name::<T>(),
                );
            }
        }

        pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            self.note(false);
            f(self.inner.get())
        }

        pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            self.note(true);
            f(self.inner.get())
        }
    }

    /// Model-aware mutex: inside an execution the *model* lock provides
    /// mutual exclusion and blocking (so contention is enumerable and
    /// deadlocks are detected); the embedded real lock is then always
    /// uncontended and merely carries the data.
    pub(crate) struct Mutex<T> {
        inner: parking_lot::Mutex<T>,
    }

    pub(crate) struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<parking_lot::MutexGuard<'a, T>>,
        model: bool,
    }

    impl<T> Mutex<T> {
        pub(crate) const fn new(v: T) -> Self {
            Mutex {
                inner: parking_lot::Mutex::new(v),
            }
        }

        fn addr(&self) -> usize {
            self as *const _ as usize
        }

        pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
            match ctx() {
                Some((e, me)) => {
                    e.mutex_lock(me, self.addr());
                    MutexGuard {
                        lock: self,
                        inner: Some(self.inner.lock()),
                        model: true,
                    }
                }
                None => MutexGuard {
                    lock: self,
                    inner: Some(self.inner.lock()),
                    model: false,
                },
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard released")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard released")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.model {
                // Release the real lock first so the next model owner's
                // uncontended real acquire succeeds; `ctx()` is `None`
                // during unwinding, making this drop abort-safe.
                self.inner = None;
                if let Some((e, me)) = ctx() {
                    e.mutex_unlock(me, self.lock.addr());
                }
            }
        }
    }

    /// Model futex: reading `word` and blocking are one step, and the
    /// `timeout` never fires — a wake the protocol loses is a `Deadlock`,
    /// not a stall. Outside an execution, the real futex.
    pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: std::time::Duration) {
        let holds = || word.real.load(Ordering::Relaxed) == expected;
        match ctx() {
            Some((e, me)) => e.futex_wait(me, word.addr(), holds),
            None => crate::shm::futex_wait(&word.real, expected, timeout),
        }
    }

    /// Wake up to `n` model threads blocked on `word` (real ones outside).
    pub(crate) fn futex_wake(word: &AtomicU32, n: u32) {
        match ctx() {
            Some((e, me)) => e.futex_wake(me, word.addr(), n),
            None => crate::shm::futex_wake(&word.real, n),
        }
    }

    pub(crate) mod thread {
        use super::ctx;

        /// Model-aware thread handle: unparking a model thread routes
        /// through the scheduler; real threads get a real unpark.
        #[derive(Clone, Debug)]
        pub(crate) struct Thread {
            real: std::thread::Thread,
            model: Option<usize>,
        }

        impl Thread {
            pub(crate) fn unpark(&self) {
                match (ctx(), self.model) {
                    (Some((e, me)), Some(target)) => e.unpark(me, target),
                    _ => self.real.unpark(),
                }
            }
        }

        pub(crate) fn current() -> Thread {
            Thread {
                real: std::thread::current(),
                model: ctx().map(|(_, me)| me),
            }
        }

        pub(crate) fn park() {
            match ctx() {
                Some((e, me)) => {
                    e.park(me, false);
                }
                None => std::thread::park(),
            }
        }

        /// Timed park. Under the model the timeout fires only when no
        /// other model thread can run (the timed-park rule), so a
        /// timed park never masks a lost wakeup; returns true when it
        /// fired. Outside, a real timed park.
        pub(crate) fn park_timeout(dur: std::time::Duration) -> bool {
            match ctx() {
                Some((e, me)) => e.park(me, true),
                None => {
                    let start = std::time::Instant::now();
                    std::thread::park_timeout(dur);
                    start.elapsed() >= dur
                }
            }
        }

        pub(crate) fn yield_now() {
            match ctx() {
                Some((e, me)) => e.spin_yield(me),
                None => std::thread::yield_now(),
            }
        }
    }
}

pub(crate) use imp::*;

/// Every thread's starting spin budget, and its cap.
const SPIN_LIMIT: u32 = 4096;
/// Steps between yields: if the awaited thread is runnable but not
/// running, a yield hands it the core.
const YIELD_EVERY: u32 = 256;
/// At budget 0, every `PROBE_EVERY`th wait spins [`PROBE_SPINS`] steps.
const PROBE_EVERY: u32 = 64;
const PROBE_SPINS: u32 = 256;

/// This thread's adaptive spin budget (see [`Idle`]): the allowance of its
/// next wait, and the waits it has made since the budget reached 0.
#[derive(Clone, Copy)]
struct SpinBudget {
    spins: u32,
    zero_waits: u32,
}

std::thread_local! {
    static SPIN: std::cell::Cell<SpinBudget> = const {
        std::cell::Cell::new(SpinBudget {
            spins: SPIN_LIMIT,
            zero_waits: 0,
        })
    };
}

impl SpinBudget {
    /// The allowance of this thread's next wait. Under a checker execution
    /// the budget is neither read nor written (schedule IDs stay
    /// replayable) and a wait spins the execution's fixed
    /// `Options::spins` steps (2 unless a model asks otherwise), as
    /// spinning is modeled as blocking.
    fn allowance() -> u32 {
        if let Some(spins) = modeled_spins() {
            return spins;
        }
        SPIN.with(|c| {
            let mut b = c.get();
            if b.spins > 0 {
                return b.spins;
            }
            b.zero_waits = b.zero_waits.wrapping_add(1);
            c.set(b);
            if b.zero_waits % PROBE_EVERY == 0 {
                PROBE_SPINS
            } else {
                0
            }
        })
    }

    /// Feed one wait back: satisfied after `checks` checks, or (`None`)
    /// the allowance ran out. Satisfied only after a yield counts as
    /// running out: the awaited thread needed this core.
    fn settle(allowance: u32, checks: Option<u32>) {
        if allowance == 0 || modeled() {
            return;
        }
        SPIN.with(|c| {
            let mut b = c.get();
            match checks {
                Some(n) if n <= YIELD_EVERY => {
                    b.spins = (b.spins * 2).max(n * 4).min(SPIN_LIMIT);
                }
                _ => {
                    b.spins /= 2;
                    if b.spins == 0 {
                        b.zero_waits = 0;
                    }
                }
            }
            c.set(b);
        });
    }
}

/// One wait under this thread's adaptive spin budget: the crate's single
/// idle policy. Every waiter loops "check → [`spin`] → its own park" (a
/// ring's doorbell, a waker); one with nothing to park on
/// [`snooze`]s. A wait satisfied while spinning doubles the budget (to at
/// least 4× its checks); one that runs out, or is satisfied only after a
/// yield, halves it. DESIGN.md §11 states the rules and why they adapt.
///
/// The allowance is taken at the first step, so a wait satisfied at its
/// first check costs nothing; an `Idle` dropped unsettled (a deadline
/// passed mid-spin) leaves the budget as it was.
///
/// [`spin`]: Idle::spin
/// [`snooze`]: Idle::snooze
pub(crate) struct Idle {
    /// Taken at the first step; 0 once the wait has settled as a miss.
    allowance: Option<u32>,
    steps: u32,
}

impl Idle {
    pub(crate) const fn new() -> Idle {
        Idle {
            allowance: None,
            steps: 0,
        }
    }

    /// One step of the spin: a spin hint, or every `YIELD_EVERY`th step a
    /// yield. Returns false — and settles the wait as a miss, once — when
    /// the allowance is spent: time for the caller's park.
    pub(crate) fn spin(&mut self) -> bool {
        let allowance = *self.allowance.get_or_insert_with(SpinBudget::allowance);
        if self.steps >= allowance {
            SpinBudget::settle(allowance, None);
            self.allowance = Some(0);
            return false;
        }
        if self.steps % YIELD_EVERY == YIELD_EVERY - 1 {
            thread::yield_now();
        } else {
            spin_loop();
        }
        self.steps += 1;
        true
    }

    /// [`spin`](Idle::spin), or once the allowance is spent a bare yield:
    /// the park of a waiter with no doorbell.
    pub(crate) fn snooze(&mut self) {
        if !self.spin() {
            thread::yield_now();
        }
    }

    /// The awaited event arrived: settle the wait as a hit (a miss if it
    /// took a yield, or if the allowance was already spent) and start
    /// afresh, so a loop can keep one `Idle` across its waits.
    pub(crate) fn done(&mut self) {
        if let Some(allowance) = self.allowance.take() {
            SpinBudget::settle(allowance, Some(self.steps + 1));
        }
        self.steps = 0;
    }

    /// Whether `deadline` has passed, read from the clock only every
    /// `YIELD_EVERY` steps (the first check included).
    pub(crate) fn past(&self, deadline: std::time::Instant) -> bool {
        self.steps.is_multiple_of(YIELD_EVERY) && std::time::Instant::now() >= deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> u32 {
        SPIN.with(|c| c.get().spins)
    }

    #[test]
    fn spin_budget_decays_on_slow_waits_and_recovers_through_the_probe() {
        assert_eq!(budget(), SPIN_LIMIT, "a fresh thread starts at the limit");
        // Waits that always run out of spin halve the budget down to 0.
        let mut slow_waits = 0;
        while budget() > 0 {
            slow_waits += 1;
            assert!(slow_waits <= 64, "budget stuck at {}", budget());
            let mut idle = Idle::new();
            while idle.spin() {}
        }
        assert!(slow_waits > SPIN_LIMIT.ilog2() as usize);
        // At budget 0 a wait parks at once, with no spin and no feedback ...
        for _ in 1..PROBE_EVERY {
            let mut idle = Idle::new();
            assert!(!idle.spin());
            idle.done();
            assert_eq!(budget(), 0);
        }
        // ... until the probe wait, whose hit restores a spin budget.
        let mut idle = Idle::new();
        assert!(idle.spin(), "the probe spins");
        idle.done();
        assert_eq!(budget(), 8, "a probe hit at its second check keeps 4x it");
    }

    #[test]
    fn a_hit_after_a_yield_settles_as_a_miss() {
        assert_eq!(budget(), SPIN_LIMIT);
        // The last check before the first yield is still a hit.
        let mut idle = Idle::new();
        for _ in 1..YIELD_EVERY {
            assert!(idle.spin());
        }
        idle.done();
        assert_eq!(budget(), SPIN_LIMIT);
        // One step more is the yield: the hit right after it is a miss.
        for _ in 0..YIELD_EVERY {
            assert!(idle.spin());
        }
        idle.done();
        assert_eq!(budget(), SPIN_LIMIT / 2);
        // A hit after the allowance ran out settled as a miss already.
        let mut idle = Idle::new();
        while idle.spin() {}
        assert_eq!(budget(), SPIN_LIMIT / 4);
        idle.done();
        assert_eq!(budget(), SPIN_LIMIT / 4);
    }
}
