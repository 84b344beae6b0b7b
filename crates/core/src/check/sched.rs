//! The schedule-enumerating executor.
//!
//! One *execution* runs the model closure with every instrumented
//! operation (atomic access, lock, futex, park, spin hint) funneled
//! through a cooperative scheduler: model threads are real OS threads, but
//! a single token is handed between them so exactly one runs at a time and
//! every hand-off position is a potential *choice point*. The DFS explorer
//! re-runs the model, systematically taking the next untried choice at the
//! deepest branch, until the (preemption-bounded) schedule space is
//! exhausted — or a schedule fails, in which case the recorded choice list
//! *is* the schedule ID: replayable and minimizable deterministically.
//!
//! Blocking is modeled, never real: a thread that would block (contended
//! model mutex, futex wait, `park`, full-ring spin) is marked blocked
//! and the token moves on. "No runnable thread" is therefore a *detected
//! outcome* — deadlock (someone waits on a lock/futex/join) or livelock
//! (only spinners remain) — not a hung test process.

use super::shadow::{AtomKind, Shadow, ThreadView};
use crate::csync::Mutation;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Hard cap on model threads: one hex digit per scheduling choice keeps
/// schedule IDs compact, and 15-way branching is far beyond any model here.
pub(crate) const MAX_THREADS: usize = 15;

/// Synthetic shadow addresses for per-thread park tokens. Real heap/stack
/// addresses never live in the first page, so these cannot collide.
fn park_token_addr(tid: usize) -> usize {
    0x10 + tid * 8
}

// ---------------------------------------------------------------------------
// Public-facing configuration and results (re-exported via `check`).
// ---------------------------------------------------------------------------

/// Exploration options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Maximum number of *preemptive* context switches per schedule (a
    /// switch away from a thread that could have kept running). `None`
    /// enumerates the full space. CHESS-style bounding: most real
    /// concurrency bugs manifest within 2–3 preemptions.
    pub preemption_bound: Option<u32>,
    /// Abort exploration (incomplete) after this many schedules.
    pub max_schedules: u64,
    /// Per-schedule step budget; exceeding it is reported as a livelock.
    pub max_steps: u64,
    /// Seeded bad-ordering mutations to activate inside the model (the
    /// mutation-test harness; production code is unaffected outside an
    /// execution that lists a mutation here).
    pub mutations: Vec<Mutation>,
    /// Spin steps a modeled idle wait takes before its park (the real
    /// allowance adapts; a model's is fixed so schedules replay). 0 leaves
    /// each wait's sleep protocol alone to the preemption bound.
    pub spins: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: Some(2),
            max_schedules: 1_000_000,
            max_steps: 100_000,
            mutations: Vec::new(),
            spins: 2,
        }
    }
}

/// Outcome of a completed exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: u64,
    /// True iff the (bounded) schedule space was exhausted — the
    /// "exhaustively enumerated, not sampled" guarantee.
    pub complete: bool,
    /// Instrumented steps across all schedules.
    pub total_steps: u64,
    /// Largest thread count any schedule reached.
    pub max_threads: usize,
}

/// Why a schedule failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure).
    Panic,
    /// No runnable thread and at least one waiter on a lock/futex/join/
    /// park with no timeout to fire.
    Deadlock,
    /// Only spin-waiters remain (or the step bound was exceeded).
    Livelock,
    /// Conflicting plain-memory accesses without a happens-before edge.
    DataRace,
}

/// A failing schedule: everything needed to reproduce and debug it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    /// The exact schedule that failed.
    pub schedule: ScheduleId,
    /// Greedily minimized variant (fewest forced context switches) that
    /// still fails; always worth replaying first.
    pub minimized: Option<ScheduleId>,
    /// Schedules explored before this one failed.
    pub schedules_before: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "schedule check failed: {:?}: {}",
            self.kind, self.message
        )?;
        writeln!(
            f,
            "  schedule id: {} ({} switches, found after {} schedules)",
            self.schedule,
            self.schedule.context_switches(),
            self.schedules_before
        )?;
        if let Some(min) = &self.minimized {
            writeln!(
                f,
                "  minimized:   {} ({} switches)",
                min,
                min.context_switches()
            )?;
        }
        write!(
            f,
            "  replay with: RVMA_CHECK_SCHEDULE={} cargo test -p rvma-core \
             --features check <this test>",
            self.minimized.as_ref().unwrap_or(&self.schedule)
        )
    }
}

/// A seed-stable schedule identifier: the list of branch choices taken, one
/// hex digit per choice point, rendered as `rvc1-<digits>`. Trailing
/// default choices (`0` = keep running the current thread) are trimmed, so
/// the empty suffix replays implicitly and minimized IDs stay short.
#[derive(Clone, PartialEq, Eq)]
pub struct ScheduleId(Vec<u8>);

impl ScheduleId {
    pub(crate) fn new(mut choices: Vec<u8>) -> Self {
        while choices.last() == Some(&0) {
            choices.pop();
        }
        ScheduleId(choices)
    }

    /// Parse `rvc1-<hex digits>`; `None` on malformed input.
    pub fn decode(s: &str) -> Option<ScheduleId> {
        let digits = s.strip_prefix("rvc1-")?;
        let mut out = Vec::with_capacity(digits.len());
        for c in digits.chars() {
            out.push(c.to_digit(16)? as u8);
        }
        Some(ScheduleId::new(out))
    }

    /// Number of non-default choices — a proxy for forced context
    /// switches, the quantity minimization drives down.
    pub fn context_switches(&self) -> usize {
        self.0.iter().filter(|&&c| c != 0).count()
    }

    pub(crate) fn choices(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rvc1-")?;
        for c in &self.0 {
            write!(f, "{c:x}")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ScheduleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

// ---------------------------------------------------------------------------
// Engine state.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    /// Waiting for a model mutex at this address.
    Lock(usize),
    /// Waiting on the futex at this address; never timed out.
    Futex(usize),
    /// `thread::park()` / `park_timeout` without a pending permit;
    /// `timed` parks may be woken by the timeout-resolution rule.
    Park { timed: bool },
    /// Joining model thread `tid`.
    Join(usize),
    /// Spin hint (`spin_loop`/`yield_now`): runnable again as soon as any
    /// other thread completes an operation.
    Spin,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Ready,
    Blocked(Block),
    Done,
}

struct Thr {
    state: Run,
    /// An `unpark` delivered while not parked (std semantics).
    park_permit: bool,
    /// Set when a timed wait was woken by its timeout.
    timed_out: bool,
    /// One "final look" credit for a spin-blocked thread once nothing
    /// else can run. A real spin loop always returns and re-checks its
    /// condition, and state may have changed between that condition's
    /// last check and the `spin_loop` call (e.g. a producer finished its
    /// push *after* a consumer's failed pop but *before* the consumer's
    /// spin hint). Restored whenever another thread performs a
    /// state-changing operation; consumed by the grace resume in
    /// `resolve_stuck`. A spinner that re-blocks without anyone changing
    /// state in between is then a genuine livelock.
    spin_grace: bool,
}

impl Thr {
    fn ready() -> Self {
        Thr {
            state: Run::Ready,
            park_permit: false,
            timed_out: false,
            spin_grace: true,
        }
    }
}

/// Deterministic PRNG for randomized-schedule smoke runs (SplitMix64).
#[derive(Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Eng {
    threads: Vec<Thr>,
    views: Vec<ThreadView>,
    shadow: Shadow,
    /// Owner per model-mutex address.
    locks: HashMap<usize, usize>,
    /// Which thread currently holds the execution token.
    active: usize,
    finished: usize,
    /// Forced choices (replay prefix); beyond it, DFS default / random.
    prefix: Vec<u8>,
    /// `(options, chosen)` per branch point encountered this run.
    branches: Vec<(u8, u8)>,
    rng: Option<SplitMix64>,
    preemptions: u32,
    bound: Option<u32>,
    steps: u64,
    max_steps: u64,
    failure: Option<(FailureKind, String)>,
    abort: bool,
}

impl Eng {
    fn ready_tids(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].state == Run::Ready)
            .collect()
    }

    fn all_done(&self) -> bool {
        self.finished == self.threads.len()
    }

    fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some((kind, message));
        }
        self.abort = true;
    }

    /// Consume the next branch choice among `n` options.
    fn next_choice(&mut self, n: usize) -> usize {
        let idx = self.branches.len();
        let c = if idx < self.prefix.len() {
            self.prefix[idx] as usize
        } else if let Some(rng) = &mut self.rng {
            (rng.next() % n as u64) as usize
        } else {
            0
        };
        // Clamp out-of-range prefix digits (minimization candidates may
        // carry choices from a run whose branch had more options).
        let c = c.min(n - 1);
        self.branches.push((n as u8, c as u8));
        c
    }

    /// Pick who runs next, `current` being runnable and about to perform
    /// an operation. Canonical option order is `current` first (choice 0 =
    /// "no context switch"), then the other ready threads ascending.
    fn choose_running(&mut self, current: usize) -> usize {
        let mut opts = self.ready_tids();
        opts.retain(|&t| t != current);
        // Budget exhausted: switching away would cost a preemption we do
        // not have, so the only option is to keep running.
        if let Some(b) = self.bound {
            if self.preemptions >= b {
                return current;
            }
        }
        if opts.is_empty() {
            return current;
        }
        opts.insert(0, current);
        let c = self.next_choice(opts.len());
        if c > 0 {
            self.preemptions += 1;
        }
        opts[c]
    }

    /// Pick who runs next when the current thread just blocked or
    /// finished (a forced switch — costs no preemption). `None` when no
    /// thread is runnable.
    fn choose_blocked(&mut self) -> Option<usize> {
        let opts = self.ready_tids();
        match opts.len() {
            0 => None,
            1 => Some(opts[0]),
            n => Some(opts[self.next_choice(n)]),
        }
    }

    /// Any operation completed: spin-waiters get another look.
    fn wake_spinners(&mut self) {
        for t in &mut self.threads {
            if t.state == Run::Blocked(Block::Spin) {
                t.state = Run::Ready;
            }
        }
    }

    /// Thread `by` performed a state-changing operation (store, RMW,
    /// unlock, futex wake, unpark, cell write, exit): every *other* thread's
    /// spin grace is restored — whatever they were spinning on may now be
    /// satisfiable. Pure loads don't restore grace (they change nothing a
    /// spinner could newly observe), which keeps mutually-spinning
    /// threads from feeding each other credits forever.
    fn note_progress(&mut self, by: usize) {
        for (tid, t) in self.threads.iter_mut().enumerate() {
            if tid != by {
                t.spin_grace = true;
            }
        }
    }

    /// No thread is runnable. Fire the canonical earliest timeout (a timed
    /// park) if one exists; otherwise classify and record the stuck state.
    fn resolve_stuck(&mut self) -> Option<usize> {
        for (tid, t) in self.threads.iter_mut().enumerate() {
            if t.state == Run::Blocked(Block::Park { timed: true }) {
                t.state = Run::Ready;
                t.timed_out = true;
                return Some(tid);
            }
        }
        // Spin-blocked threads with an unspent grace credit get one final
        // look before the state is classified: resume the lowest such tid
        // (deterministic, so replays agree). See `Thr::spin_grace`.
        for (tid, t) in self.threads.iter_mut().enumerate() {
            if t.state == Run::Blocked(Block::Spin) && t.spin_grace {
                t.spin_grace = false;
                t.state = Run::Ready;
                return Some(tid);
            }
        }
        let mut spinners = 0usize;
        let mut waiters: Vec<String> = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            if let Run::Blocked(b) = t.state {
                if b == Block::Spin {
                    spinners += 1;
                } else {
                    waiters.push(format!("thread {tid} blocked on {b:?}"));
                }
            }
        }
        if waiters.is_empty() && spinners > 0 {
            self.fail(
                FailureKind::Livelock,
                format!("{spinners} spinning thread(s) and nothing else can run"),
            );
        } else {
            self.fail(
                FailureKind::Deadlock,
                format!("no runnable thread: {}", waiters.join("; ")),
            );
        }
        None
    }
}

/// One model execution: engine state plus the token condvar.
pub(crate) struct Execution {
    eng: StdMutex<Eng>,
    cv: StdCondvar,
    /// OS handles of spawned model threads, joined at teardown.
    real: StdMutex<Vec<std::thread::JoinHandle<()>>>,
    /// Active seeded-mutation set (bitmask), immutable per execution.
    mutations: u32,
    /// [`Options::spins`].
    spins: u32,
}

/// Panic payload used to unwind model threads when an execution aborts.
struct AbortUnwind;

fn abort_panic() -> ! {
    std::panic::panic_any(AbortUnwind);
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// Run `f` with the calling thread's execution context, if it is a model
/// thread. Returns `None` outside executions **and while panicking** — the
/// latter turns every instrumented op in a Drop during unwinding into a
/// plain op, so an aborting execution cannot double-panic.
pub(crate) fn with_active<R>(f: impl FnOnce(&Arc<Execution>, usize) -> R) -> Option<R> {
    if std::thread::panicking() {
        return None;
    }
    CTX.with(|c| {
        let b = c.borrow();
        b.as_ref().map(|(e, t)| f(e, *t))
    })
}

/// Is any seeded mutation active for the calling model thread?
pub(crate) fn mutation_active(m: Mutation) -> bool {
    with_active(|e, _| e.mutations & m.bit() != 0).unwrap_or(false)
}

/// The calling model thread's [`Options::spins`]; `None` outside an
/// execution.
pub(crate) fn modeled_spins() -> Option<u32> {
    with_active(|e, _| e.spins)
}

impl Execution {
    /// Hand the token to `next` and wait until it comes back to `me`.
    /// The guard is held across the wait (condvar); aborts unwind.
    fn wait_for_token<'a>(
        &'a self,
        mut g: std::sync::MutexGuard<'a, Eng>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, Eng> {
        loop {
            if g.abort {
                drop(g);
                self.cv.notify_all();
                abort_panic();
            }
            if g.active == me && g.threads[me].state == Run::Ready {
                return g;
            }
            g = self.cv.wait(g).expect("engine mutex poisoned");
        }
    }

    fn lock_eng(&self) -> std::sync::MutexGuard<'_, Eng> {
        self.eng.lock().expect("engine mutex poisoned")
    }

    /// The scheduling point before every instrumented operation: account
    /// the step, let spinners re-check, branch on who runs next.
    pub(crate) fn schedule_point(self: &Arc<Self>, me: usize) {
        let mut g = self.lock_eng();
        if g.abort {
            drop(g);
            abort_panic();
        }
        g.steps += 1;
        if g.steps > g.max_steps {
            let msg = format!("step bound ({}) exceeded", g.max_steps);
            g.fail(FailureKind::Livelock, msg);
            drop(g);
            self.cv.notify_all();
            abort_panic();
        }
        g.wake_spinners();
        let next = g.choose_running(me);
        if next != me {
            g.active = next;
            self.cv.notify_all();
            let _g = self.wait_for_token(g, me);
        }
    }

    /// After the real operation executed: record its ordering effects and
    /// give spin-waiters another look. A shadow race aborts the execution.
    pub(crate) fn op_done(self: &Arc<Self>, me: usize, addr: usize, kind: AtomKind, ord: Ordering) {
        let mut g = self.lock_eng();
        let Eng { shadow, views, .. } = &mut *g;
        shadow.atomic(views, me, addr, kind, ord);
        if kind != AtomKind::Load {
            g.note_progress(me);
        }
        g.wake_spinners();
    }

    /// A plain-memory access through a `CheckCell`. Not a scheduling
    /// point (loom-style: only sync ops branch), but race-checked.
    pub(crate) fn cell_access(self: &Arc<Self>, me: usize, addr: usize, write: bool, label: &str) {
        let mut g = self.lock_eng();
        if g.abort {
            drop(g);
            abort_panic();
        }
        let Eng { shadow, views, .. } = &mut *g;
        let res = if write {
            shadow.cell_write(views, me, addr, label)
        } else {
            shadow.cell_read(views, me, addr, label)
        };
        if write {
            g.note_progress(me);
        }
        if let Err(race) = res {
            g.fail(FailureKind::DataRace, race.message);
            drop(g);
            self.cv.notify_all();
            abort_panic();
        }
    }

    /// Block `me` on `b`; returns the timed-out flag once rescheduled.
    fn block_on(self: &Arc<Self>, me: usize, b: Block) -> bool {
        let mut g = self.lock_eng();
        if g.abort {
            drop(g);
            abort_panic();
        }
        g.threads[me].state = Run::Blocked(b);
        g.threads[me].timed_out = false;
        match g.choose_blocked() {
            Some(next) => g.active = next,
            None => {
                if let Some(next) = g.resolve_stuck() {
                    // A timed waiter fired; it may be us or someone else.
                    g.active = next;
                } else {
                    drop(g);
                    self.cv.notify_all();
                    abort_panic();
                }
            }
        }
        self.cv.notify_all();
        let g = self.wait_for_token(g, me);
        g.threads[me].timed_out
    }

    // -- model mutex ------------------------------------------------------

    pub(crate) fn mutex_lock(self: &Arc<Self>, me: usize, addr: usize) {
        self.schedule_point(me);
        loop {
            {
                let mut g = self.lock_eng();
                if g.abort {
                    drop(g);
                    abort_panic();
                }
                if let std::collections::hash_map::Entry::Vacant(slot) = g.locks.entry(addr) {
                    slot.insert(me);
                    let Eng { shadow, views, .. } = &mut *g;
                    shadow.atomic(views, me, addr, AtomKind::Rmw, Ordering::AcqRel);
                    return;
                }
            }
            self.block_on(me, Block::Lock(addr));
        }
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, me: usize, addr: usize) {
        self.schedule_point(me);
        let mut g = self.lock_eng();
        let Eng { shadow, views, .. } = &mut *g;
        shadow.atomic(views, me, addr, AtomKind::Rmw, Ordering::AcqRel);
        debug_assert_eq!(g.locks.get(&addr), Some(&me), "unlock by non-owner");
        g.locks.remove(&addr);
        for t in g.threads.iter_mut() {
            if t.state == Run::Blocked(Block::Lock(addr)) {
                t.state = Run::Ready;
            }
        }
        g.note_progress(me);
        g.wake_spinners();
    }

    // -- model futex ------------------------------------------------------

    /// Block `me` on the futex at `addr` if `holds()` — the word still
    /// reads the expected value — checked and blocked in one step, as the
    /// kernel does. There is no timeout: only a `futex_wake` on `addr`
    /// makes the thread runnable again.
    pub(crate) fn futex_wait(
        self: &Arc<Self>,
        me: usize,
        addr: usize,
        holds: impl FnOnce() -> bool,
    ) {
        self.schedule_point(me);
        let sleep = holds();
        {
            let mut g = self.lock_eng();
            let Eng { shadow, views, .. } = &mut *g;
            shadow.atomic(views, me, addr, AtomKind::Load, Ordering::Relaxed);
        }
        if sleep {
            self.block_on(me, Block::Futex(addr));
        }
    }

    /// Make up to `n` threads blocked on the futex at `addr` runnable.
    pub(crate) fn futex_wake(self: &Arc<Self>, me: usize, addr: usize, n: u32) {
        self.schedule_point(me);
        let mut g = self.lock_eng();
        let mut left = n;
        for t in g.threads.iter_mut() {
            if left > 0 && t.state == Run::Blocked(Block::Futex(addr)) {
                t.state = Run::Ready;
                left -= 1;
            }
        }
        g.note_progress(me);
        g.wake_spinners();
    }

    // -- park / unpark ----------------------------------------------------

    /// Park `me` unless a permit is pending; returns true when a `timed`
    /// park was woken by the timeout-resolution rule.
    pub(crate) fn park(self: &Arc<Self>, me: usize, timed: bool) -> bool {
        self.schedule_point(me);
        let consumed_permit = {
            let mut g = self.lock_eng();
            if g.threads[me].park_permit {
                g.threads[me].park_permit = false;
                true
            } else {
                false
            }
        };
        let timed_out = !consumed_permit && self.block_on(me, Block::Park { timed });
        // Synchronize with the unparker.
        let mut g = self.lock_eng();
        let Eng { shadow, views, .. } = &mut *g;
        shadow.atomic(
            views,
            me,
            park_token_addr(me),
            AtomKind::Load,
            Ordering::Acquire,
        );
        timed_out
    }

    pub(crate) fn unpark(self: &Arc<Self>, me: usize, target: usize) {
        self.schedule_point(me);
        let mut g = self.lock_eng();
        let Eng { shadow, views, .. } = &mut *g;
        shadow.atomic(
            views,
            me,
            park_token_addr(target),
            AtomKind::Rmw,
            Ordering::AcqRel,
        );
        if let Run::Blocked(Block::Park { .. }) = g.threads[target].state {
            g.threads[target].state = Run::Ready;
        } else {
            g.threads[target].park_permit = true;
        }
        g.note_progress(me);
        g.wake_spinners();
    }

    // -- spin hints -------------------------------------------------------

    /// `spin_loop`/`yield_now` under the model: block until any other
    /// thread completes an operation (progress a spin could observe).
    pub(crate) fn spin_yield(self: &Arc<Self>, me: usize) {
        self.block_on(me, Block::Spin);
    }

    // -- thread lifecycle -------------------------------------------------

    fn finish_thread(self: &Arc<Self>, me: usize) {
        let mut g = self.lock_eng();
        g.threads[me].state = Run::Done;
        g.finished += 1;
        for t in g.threads.iter_mut() {
            if t.state == Run::Blocked(Block::Join(me)) {
                t.state = Run::Ready;
            }
        }
        g.note_progress(me);
        g.wake_spinners();
        if !g.abort && !g.all_done() {
            match g.choose_blocked() {
                Some(next) => g.active = next,
                None => {
                    if let Some(next) = g.resolve_stuck() {
                        g.active = next;
                    }
                }
            }
        }
        drop(g);
        self.cv.notify_all();
    }

    fn record_panic(self: &Arc<Self>, me: usize, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<AbortUnwind>().is_some() {
            return; // engine-initiated unwind; failure already recorded
        }
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "model thread panicked".to_string()
        };
        let mut g = self.lock_eng();
        g.fail(FailureKind::Panic, format!("thread {me}: {msg}"));
        drop(g);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Model-thread spawning / joining (public via `check`).
// ---------------------------------------------------------------------------

/// Handle to a model thread, usable only inside the spawning execution.
pub struct JoinHandle<T> {
    exec: Arc<Execution>,
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The model thread id (also its schedule-choice identity).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Join the model thread; a scheduling point. Panics (aborting the
    /// schedule) if the thread itself panicked.
    pub fn join(self) -> T {
        let caller =
            with_active(|e, me| (e.clone(), me)).expect("JoinHandle::join outside a model");
        let (exec, me) = caller;
        assert!(
            Arc::ptr_eq(&exec, &self.exec),
            "JoinHandle::join from a different execution"
        );
        exec.schedule_point(me);
        loop {
            {
                let mut g = exec.lock_eng();
                if g.abort {
                    drop(g);
                    abort_panic();
                }
                if g.threads[self.tid].state == Run::Done {
                    // Happens-before: everything the child did.
                    let child = g.views[self.tid].clock.clone();
                    g.views[me].clock.join(&child);
                    g.views[me].clock.bump(me);
                    break;
                }
            }
            exec.block_on(me, Block::Join(self.tid));
        }
        let v = self.result.lock().expect("result mutex poisoned").take();
        v.expect("model thread produced no result")
    }
}

/// Unpark a model thread by its [`JoinHandle::tid`] (models of
/// doorbell-style wakeups; production code goes through
/// `csync::thread::Thread::unpark` instead).
pub fn unpark_model_thread(tid: usize) {
    let (exec, me) =
        with_active(|e, t| (e.clone(), t)).expect("unpark_model_thread outside a model");
    exec.unpark(me, tid);
}

/// Spawn a model thread. Must be called from inside an execution.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = with_active(|e, t| (e.clone(), t)).expect("check::spawn outside a model");
    exec.schedule_point(me);
    let tid = {
        let mut g = exec.lock_eng();
        let tid = g.threads.len();
        assert!(tid < MAX_THREADS, "model thread limit ({MAX_THREADS})");
        g.threads.push(Thr::ready());
        let mut view = ThreadView {
            clock: g.views[me].clock.clone(),
            ..Default::default()
        };
        view.clock.bump(tid);
        g.views.push(view);
        g.views[me].clock.bump(me);
        tid
    };
    let result = Arc::new(StdMutex::new(None));
    let exec2 = exec.clone();
    let result2 = result.clone();
    let os = std::thread::Builder::new()
        .name(format!("rvma-check-{tid}"))
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((exec2.clone(), tid)));
            // Wait to be scheduled for the first time.
            let mut aborted = false;
            {
                let mut g = exec2.lock_eng();
                loop {
                    if g.abort {
                        aborted = true;
                        break;
                    }
                    if g.active == tid && g.threads[tid].state == Run::Ready {
                        break;
                    }
                    g = exec2.cv.wait(g).expect("engine mutex poisoned");
                }
            }
            if !aborted {
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *result2.lock().expect("result mutex poisoned") = Some(v);
                    }
                    Err(p) => exec2.record_panic(tid, p),
                }
            }
            exec2.finish_thread(tid);
            CTX.with(|c| *c.borrow_mut() = None);
        })
        .expect("failed to spawn model thread");
    exec.real.lock().expect("handle list poisoned").push(os);
    JoinHandle { exec, tid, result }
}

// ---------------------------------------------------------------------------
// Running one schedule.
// ---------------------------------------------------------------------------

struct RunOutcome {
    /// `(options, chosen)` per branch point, in order.
    branches: Vec<(u8, u8)>,
    steps: u64,
    threads: usize,
    failure: Option<(FailureKind, String)>,
}

fn run_once<F: Fn()>(
    opts: &Options,
    prefix: &[u8],
    rng: Option<SplitMix64>,
    model: &F,
) -> RunOutcome {
    let mut eng = Eng {
        threads: vec![Thr::ready()],
        views: vec![ThreadView::default()],
        shadow: Shadow::default(),
        locks: HashMap::new(),
        active: 0,
        finished: 0,
        prefix: prefix.to_vec(),
        branches: Vec::new(),
        rng,
        preemptions: 0,
        bound: opts.preemption_bound,
        steps: 0,
        max_steps: opts.max_steps,
        failure: None,
        abort: false,
    };
    eng.views[0].clock.bump(0);
    let mutations = opts.mutations.iter().fold(0u32, |m, x| m | x.bit());
    let exec = Arc::new(Execution {
        eng: StdMutex::new(eng),
        cv: StdCondvar::new(),
        real: StdMutex::new(Vec::new()),
        mutations,
        spins: opts.spins,
    });

    CTX.with(|c| *c.borrow_mut() = Some((exec.clone(), 0)));
    if let Err(p) = catch_unwind(AssertUnwindSafe(model)) {
        exec.record_panic(0, p);
    }
    exec.finish_thread(0);
    CTX.with(|c| *c.borrow_mut() = None);

    // Let the remaining model threads run (or abort) to completion.
    {
        let mut g = exec.lock_eng();
        while !g.all_done() {
            g = exec.cv.wait(g).expect("engine mutex poisoned");
        }
    }
    let handles: Vec<_> = std::mem::take(&mut *exec.real.lock().expect("handle list poisoned"));
    for h in handles {
        let _ = h.join(); // model panics were already caught inside
    }

    let g = exec.lock_eng();
    RunOutcome {
        branches: g.branches.clone(),
        steps: g.steps,
        threads: g.threads.len(),
        failure: g.failure.clone(),
    }
}

// ---------------------------------------------------------------------------
// Exploration strategies (public via `check`).
// ---------------------------------------------------------------------------

fn choices_of(branches: &[(u8, u8)]) -> Vec<u8> {
    branches.iter().map(|&(_, c)| c).collect()
}

/// Greedy minimization: repeatedly truncate at the rightmost non-default
/// choice (defaults beyond); keep any candidate that still fails.
fn minimize<F: Fn()>(opts: &Options, model: &F, failing: Vec<u8>) -> ScheduleId {
    let mut cur = failing;
    let mut scan_end = cur.len();
    let mut budget = 64u32;
    while let Some(j) = cur[..scan_end].iter().rposition(|&c| c != 0) {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let cand = cur[..j].to_vec();
        let out = run_once(opts, &cand, None, model);
        if out.failure.is_some() {
            cur = choices_of(&out.branches);
            scan_end = cur.len();
        } else {
            scan_end = j;
        }
    }
    ScheduleId::new(cur)
}

fn build_failure<F: Fn()>(
    opts: &Options,
    model: &F,
    out: RunOutcome,
    schedules_before: u64,
    minimize_it: bool,
) -> Box<Failure> {
    let (kind, message) = out.failure.expect("build_failure without failure");
    let schedule = ScheduleId::new(choices_of(&out.branches));
    let minimized = if minimize_it {
        Some(minimize(opts, model, schedule.choices().to_vec()))
    } else {
        None
    };
    Box::new(Failure {
        kind,
        message,
        schedule,
        minimized,
        schedules_before,
    })
}

/// Exhaustive bounded-preemption DFS over the model's schedule space.
///
/// Honors `RVMA_CHECK_SCHEDULE=<id>`: when set, runs exactly that schedule
/// (single-test replay) instead of exploring.
pub fn explore<F: Fn()>(opts: Options, model: F) -> Result<Report, Box<Failure>> {
    if let Ok(id) = std::env::var("RVMA_CHECK_SCHEDULE") {
        let sched = ScheduleId::decode(&id)
            .unwrap_or_else(|| panic!("malformed RVMA_CHECK_SCHEDULE {id:?}"));
        return replay(&sched, opts, model);
    }
    let mut prefix: Vec<u8> = Vec::new();
    let mut schedules = 0u64;
    let mut total_steps = 0u64;
    let mut max_threads = 0usize;
    loop {
        let out = run_once(&opts, &prefix, None, &model);
        schedules += 1;
        total_steps += out.steps;
        max_threads = max_threads.max(out.threads);
        if out.failure.is_some() {
            return Err(build_failure(&opts, &model, out, schedules - 1, true));
        }
        // Backtrack: deepest branch with an untried alternative.
        let mut branches = out.branches;
        while let Some(&(options, chosen)) = branches.last() {
            if chosen + 1 < options {
                break;
            }
            branches.pop();
        }
        let Some(last) = branches.last_mut() else {
            return Ok(Report {
                schedules,
                complete: true,
                total_steps,
                max_threads,
            });
        };
        last.1 += 1;
        prefix = choices_of(&branches);
        if schedules >= opts.max_schedules {
            return Ok(Report {
                schedules,
                complete: false,
                total_steps,
                max_threads,
            });
        }
    }
}

/// Randomized-schedule smoke: `iters` runs with uniformly random branch
/// choices from `seed`. Failures carry the exact (replayable) schedule;
/// the seed is printed so CI logs pin the whole run.
pub fn explore_random<F: Fn()>(
    opts: Options,
    seed: u64,
    iters: u64,
    model: F,
) -> Result<Report, Box<Failure>> {
    println!("rvma-check: randomized exploration, RVMA_CHECK_SEED={seed} iters={iters}");
    let mut rng = SplitMix64(seed);
    let mut total_steps = 0u64;
    let mut max_threads = 0usize;
    for i in 0..iters {
        let run_rng = SplitMix64(rng.next());
        let out = run_once(&opts, &[], Some(run_rng), &model);
        total_steps += out.steps;
        max_threads = max_threads.max(out.threads);
        if out.failure.is_some() {
            return Err(build_failure(&opts, &model, out, i, true));
        }
    }
    Ok(Report {
        schedules: iters,
        complete: false, // sampled, by construction
        total_steps,
        max_threads,
    })
}

/// Re-run exactly one schedule (typically a reported `ScheduleId`).
pub fn replay<F: Fn()>(id: &ScheduleId, opts: Options, model: F) -> Result<Report, Box<Failure>> {
    let out = run_once(&opts, id.choices(), None, &model);
    let steps = out.steps;
    let threads = out.threads;
    if out.failure.is_some() {
        return Err(build_failure(&opts, &model, out, 0, false));
    }
    Ok(Report {
        schedules: 1,
        complete: false,
        total_steps: steps,
        max_threads: threads,
    })
}
