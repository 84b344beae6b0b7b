//! The discrete-event engine: sharded conservative-window execution.
//!
//! [`ParEngine`] partitions components into `SimConfig::shards` logical
//! shards, each owning its own event queue, RNG stream, stats registry, and
//! trace ring. Worker threads advance all shards in lockstep *conservative
//! windows*: every round the workers agree on the global minimum pending
//! time `W` and then independently process events in `[W, W + window)`.
//! Cross-shard events wait in the sending worker's outbox (one `Vec` per
//! destination shard) until the window's barrier, after which each
//! destination's worker drains them into its queue — which is safe
//! precisely because the window never exceeds the model's
//! *lookahead* (the minimum cross-component latency): an event emitted to
//! another shard always fires at or after the current window's end, and the
//! sink asserts it.
//!
//! One shard is the sequential reference: [`SimConfig::default`] runs one
//! shard on the calling thread, whose single window spans the whole run
//! (nothing can cross shards), so events fire in plain `(time, seq)` order.
//!
//! # Determinism
//!
//! Results are bit-identical for any worker thread count, because every
//! source of ordering is tied to the *fixed* logical shard count, never to
//! the thread count:
//!
//! - **Sequence numbers.** Shard `s` of `S` allocates seqs `base + s`,
//!   `base + s + S`, … (`base` clears the densely-numbered setup events), so
//!   shards draw from disjoint residue classes and the global `(time, seq)`
//!   total order is independent of which thread stamped the event. Events
//!   pop in exactly that order within a shard, so the order in which
//!   outboxes are drained is invisible.
//! - **RNG.** A single shard draws `SimRng::new(seed)` itself. With two or
//!   more, shard `s` uses a `SimRng` forked from the root seed in shard
//!   order; a component always draws from its own shard's stream.
//! - **Stats and traces.** Collected per shard, merged in shard-id order.
//!
//! The parity suites (`crates/sim/tests/parallel_parity.rs` and the motif
//! suite) prove this by comparing clocks, counters, histogram samples, and
//! merged traces across 1/2/4/8 threads.

use crate::engine::{Component, ComponentId, Ctx};
use crate::event::{EventQueue, ScheduledEvent};
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::SimTime;
use crate::trace::{TraceEntry, TraceRing};
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Parallel-execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Worker threads (clamped to the shard count; 1 = no extra threads).
    pub threads: usize,
    /// Conservative window width. Must not exceed the model's lookahead —
    /// the minimum cross-shard event latency (for the network fabric, the
    /// minimum link propagation latency). Violations panic at emit time.
    pub window: SimTime,
    /// Logical shard count. This — not `threads` — is the unit of
    /// determinism: changing it changes seq/RNG stream assignment and thus
    /// legitimately produces a different (still valid) execution. Keep it
    /// fixed while varying `threads` to get bit-identical runs.
    pub shards: usize,
}

impl Default for SimConfig {
    /// The sequential reference: one shard on the calling thread.
    fn default() -> Self {
        SimConfig {
            threads: 1,
            window: SimTime::MAX,
            shards: 1,
        }
    }
}

impl SimConfig {
    /// A config running `threads` workers with window `window` over 16
    /// logical shards.
    pub fn new(threads: usize, window: SimTime) -> Self {
        SimConfig {
            threads,
            window,
            shards: 16,
        }
    }
}

/// One logical shard: a slice of the component space plus everything needed
/// to advance it independently for one window.
struct Shard<E> {
    id: usize,
    queue: EventQueue<E>,
    rng: SimRng,
    stats: StatsRegistry,
    trace: Option<TraceRing>,
    components: Vec<Option<Box<dyn Component<E> + Send>>>,
    now: SimTime,
    fired: u64,
    stop: bool,
}

/// One worker's cross-shard sends of the current window, indexed by
/// destination shard. Its worker holds the lock while it processes a window;
/// after the barrier every worker takes it briefly to drain the entries for
/// its own shards, so a sender never waits on a drainer.
type Outbox<E> = Mutex<Vec<Vec<ScheduledEvent<E>>>>;

/// Lock an outbox even if a panicking component poisoned it. A `push` leaves
/// the vectors valid at every step and the run is ending anyway, while a
/// second panic here could displace the first one's payload.
fn lock<E>(outbox: &Outbox<E>) -> MutexGuard<'_, Vec<Vec<ScheduledEvent<E>>>> {
    outbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Sense-reversing spin barrier whose last arriver runs a closure before
/// releasing the others. `poison` unblocks every waiter permanently (used
/// when a worker panics so the rest don't spin forever).
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Wait for all `n` threads; the last arriver runs `leader` inside the
    /// barrier. Returns `false` if the barrier was poisoned.
    fn wait_leader(&self, leader: impl FnOnce()) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            leader();
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        !self.poisoned.load(Ordering::Acquire)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }
}

/// Shared coordination state for one `run_*` call.
struct Control {
    barrier: SpinBarrier,
    /// Exclusive end (ps) of the window being processed.
    window_end_ps: AtomicU64,
    done: AtomicBool,
    stop: AtomicBool,
    /// Per-shard earliest pending time (ps; `u64::MAX` = empty), published
    /// after each drain phase.
    next_time: Vec<AtomicU64>,
    cross_sent: AtomicU64,
    cross_recvd: AtomicU64,
    /// Per-round conservation sums (debug builds only).
    dbg_scheduled: AtomicU64,
    dbg_fired: AtomicU64,
    dbg_pending: AtomicU64,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Control {
    fn new(threads: usize, shards: usize) -> Self {
        Control {
            barrier: SpinBarrier::new(threads),
            window_end_ps: AtomicU64::new(0),
            done: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            next_time: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            cross_sent: AtomicU64::new(0),
            cross_recvd: AtomicU64::new(0),
            dbg_scheduled: AtomicU64::new(0),
            dbg_fired: AtomicU64::new(0),
            dbg_pending: AtomicU64::new(0),
            panic_payload: Mutex::new(None),
        }
    }
}

/// Read-only state shared by every worker during one run.
struct RunShared<'a, E> {
    outboxes: &'a [Outbox<E>],
    ctl: &'a Control,
    shard_of: &'a [usize],
    slot: &'a [(usize, usize)],
    window_ps: u64,
    deadline_ps: u64,
}

/// Per-shard event sink, held by every [`Ctx`]: local events go straight
/// into the shard's queue, cross-shard events are stamped with the shard's
/// next seq and pushed onto the worker's outbox for their destination.
pub(crate) struct ShardSink<'a, E> {
    shard_id: usize,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut [Vec<ScheduledEvent<E>>],
    ctl: &'a Control,
    shard_of: &'a [usize],
    window_end_ps: u64,
}

impl<E> ShardSink<'_, E> {
    /// Enqueue `payload` to fire on `target` at absolute instant `time`.
    pub(crate) fn emit(&mut self, time: SimTime, target: ComponentId, payload: E) {
        let dest = self.shard_of[target.as_usize()];
        let seq = self.queue.alloc_seq();
        let ev = ScheduledEvent {
            time,
            seq,
            target,
            payload,
        };
        if dest == self.shard_id {
            self.queue.push_sequenced(ev);
            return;
        }
        // The conservative-window contract: anything leaving the shard must
        // land at or after the end of the window being processed, otherwise
        // the destination shard may already have advanced past it.
        assert!(
            time.as_ps() >= self.window_end_ps,
            "lookahead violation: cross-shard event at {} inside the current \
             window (ends {}); SimConfig::window must not exceed the minimum \
             cross-shard latency",
            time,
            SimTime::from_ps(self.window_end_ps),
        );
        self.ctl.cross_sent.fetch_add(1, Ordering::Relaxed);
        self.outbox[dest].push(ev);
    }
}

/// The simulation engine. `ParEngine::new(seed, SimConfig::default())` is
/// the sequential reference; more shards and threads run the same model in
/// conservative windows. See the module docs for the synchronization and
/// determinism scheme.
pub struct ParEngine<E> {
    seed: u64,
    cfg: SimConfig,
    /// Pre-freeze component staging area.
    staging: Vec<Box<dyn Component<E> + Send>>,
    /// Pre-freeze externally scheduled events (dense seqs `0..`).
    setup: Vec<ScheduledEvent<E>>,
    setup_seq: u64,
    /// Explicit component→shard map (set before the first run).
    partition: Option<Vec<usize>>,
    /// Populated at freeze time.
    shards: Vec<Shard<E>>,
    shard_of: Vec<usize>,
    /// component id → (shard, index within shard).
    slot: Vec<(usize, usize)>,
    frozen: bool,
    now: SimTime,
    events_fired: u64,
    merged_stats: StatsRegistry,
    trace_capacity: Option<usize>,
    cross_events: u64,
}

impl<E: Send> ParEngine<E> {
    /// A fresh engine at time zero.
    pub fn new(seed: u64, cfg: SimConfig) -> Self {
        ParEngine {
            seed,
            cfg,
            staging: Vec::new(),
            setup: Vec::new(),
            setup_seq: 0,
            partition: None,
            shards: Vec::new(),
            shard_of: Vec::new(),
            slot: Vec::new(),
            frozen: false,
            now: SimTime::ZERO,
            events_fired: 0,
            merged_stats: StatsRegistry::new(),
            trace_capacity: None,
            cross_events: 0,
        }
    }

    /// Register a component, returning its id.
    pub fn add_component<C: Component<E> + Send + 'static>(&mut self, c: C) -> ComponentId {
        self.add_boxed(Box::new(c))
    }

    /// Register a boxed component, returning its id.
    ///
    /// # Panics
    /// Panics ("components must be registered before the first run") once
    /// the engine has run: the first run fixes the partition.
    pub fn add_boxed(&mut self, c: Box<dyn Component<E> + Send>) -> ComponentId {
        assert!(
            !self.frozen,
            "components must be registered before the first run"
        );
        let id = ComponentId::from_raw(self.staging.len());
        self.staging.push(c);
        id
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        if self.frozen {
            self.slot.len()
        } else {
            self.staging.len()
        }
    }

    /// Set an explicit component→shard map (e.g. a topology-aware
    /// partition). Entries must be `< cfg.shards`; the map length must equal
    /// the final component count. Must be called before the first run.
    pub fn set_partition(&mut self, shard_of: Vec<usize>) {
        assert!(!self.frozen, "partition must be set before the first run");
        self.partition = Some(shard_of);
    }

    /// Record the last `capacity` dispatched events *per shard*; read back
    /// merged with [`ParEngine::merged_trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace_capacity = Some(capacity);
        for sh in &mut self.shards {
            sh.trace = Some(TraceRing::new(capacity));
        }
    }

    /// Schedule an event from outside component context (setup code).
    pub fn schedule(&mut self, at: SimTime, target: ComponentId, payload: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        if self.frozen {
            let s = self.shard_of[target.as_usize()];
            self.shards[s].queue.push(at, target, payload);
        } else {
            let seq = self.setup_seq;
            self.setup_seq += 1;
            self.setup.push(ScheduledEvent {
                time: at,
                seq,
                target,
                payload,
            });
        }
    }

    /// Current simulated instant (last fired event's time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Merged statistics (counters summed, histogram samples concatenated in
    /// shard order). Rebuilt at the end of every run.
    pub fn stats(&self) -> &StatsRegistry {
        &self.merged_stats
    }

    /// Pending events across all shards.
    pub fn pending_events(&self) -> usize {
        if self.frozen {
            self.shards.iter().map(|s| s.queue.len()).sum()
        } else {
            self.setup.len()
        }
    }

    /// Total events ever scheduled (fired or pending), across all shards.
    pub fn scheduled_total(&self) -> u64 {
        if self.frozen {
            self.shards.iter().map(|s| s.queue.scheduled_total()).sum()
        } else {
            self.setup.len() as u64
        }
    }

    /// Cross-shard events exchanged so far.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
    }

    /// Always 0: outboxes grow instead of spilling. Kept for readers that
    /// still report it.
    pub fn mailbox_spills(&self) -> u64 {
        0
    }

    /// Number of logical shards (after clamping to the component count).
    pub fn shard_count(&self) -> usize {
        if self.frozen {
            self.shards.len()
        } else {
            self.cfg.shards
        }
    }

    /// The merged dispatch trace in global `(time, seq)` order, if tracing
    /// was enabled. `seq` is the event's *schedule* sequence number
    /// (globally unique), not a dispatch index.
    pub fn merged_trace(&self) -> Vec<TraceEntry> {
        let mut all: Vec<TraceEntry> = self
            .shards
            .iter()
            .filter_map(|s| s.trace.as_ref())
            .flat_map(|t| t.entries().copied())
            .collect();
        all.sort_by_key(|e| (e.time, e.seq));
        all
    }

    /// Downcast a component to its concrete type (see
    /// [`Component::as_any`]); works before and after runs.
    pub fn component_as<C: 'static>(&self, id: ComponentId) -> Option<&C> {
        let comp: &dyn Component<E> = if self.frozen {
            let (s, i) = self.slot[id.as_usize()];
            self.shards[s].components[i].as_deref()?
        } else {
            self.staging[id.as_usize()].as_ref()
        };
        comp.as_any()?.downcast_ref::<C>()
    }

    /// Mutable counterpart of [`ParEngine::component_as`].
    pub fn component_as_mut<C: 'static>(&mut self, id: ComponentId) -> Option<&mut C> {
        let comp: &mut dyn Component<E> = if self.frozen {
            let (s, i) = self.slot[id.as_usize()];
            self.shards[s].components[i].as_deref_mut()?
        } else {
            self.staging[id.as_usize()].as_mut()
        };
        comp.as_any_mut()?.downcast_mut::<C>()
    }

    /// Run until all queues drain or a component requests a stop. Returns
    /// the number of events fired by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run(SimTime::MAX)
    }

    /// Run until the queues drain, a stop is requested, or the clock would
    /// pass `deadline`. Events at exactly `deadline` still fire.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run(deadline)
    }

    /// Move staged components and setup events into their shards. Called by
    /// the first run; everything order-sensitive here depends only on the
    /// shard count and registration order.
    fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let n = self.staging.len();
        let shards_n = self.cfg.shards.clamp(1, n.max(1));
        self.cfg.shards = shards_n;

        self.shard_of = match self.partition.take() {
            Some(map) => {
                assert_eq!(map.len(), n, "partition length != component count");
                for &s in &map {
                    assert!(s < shards_n, "partition entry {} >= shard count", s);
                }
                map
            }
            // Default: contiguous blocks, preserving registration locality.
            None => (0..n).map(|i| i * shards_n / n.max(1)).collect(),
        };

        // Setup events hold dense seqs 0..setup_n; shard streams start past
        // them at the next multiple of the stride so every seq is unique and
        // setup events sort first among same-instant peers.
        let setup_n = self.setup.len() as u64;
        let base = setup_n.div_ceil(shards_n as u64) * shards_n as u64;
        // One shard draws the root stream itself; more fork one each.
        let mut root = SimRng::new(self.seed);
        self.shards = (0..shards_n)
            .map(|s| Shard {
                id: s,
                queue: EventQueue::with_seq_stream(base + s as u64, shards_n as u64),
                rng: if shards_n == 1 {
                    root.clone()
                } else {
                    root.fork(s as u64)
                },
                stats: StatsRegistry::new(),
                trace: self.trace_capacity.map(TraceRing::new),
                components: Vec::new(),
                now: SimTime::ZERO,
                fired: 0,
                stop: false,
            })
            .collect();

        self.slot = vec![(0, 0); n];
        for (i, c) in self.staging.drain(..).enumerate() {
            let s = self.shard_of[i];
            self.slot[i] = (s, self.shards[s].components.len());
            self.shards[s].components.push(Some(c));
        }
        for ev in self.setup.drain(..) {
            let s = self.shard_of[ev.target.as_usize()];
            self.shards[s].queue.push_sequenced(ev);
        }
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.freeze();
        let fired_before: u64 = self.shards.iter().map(|s| s.fired).sum();
        let threads = self.cfg.threads.clamp(1, self.shards.len());
        let ctl = Control::new(threads, self.shards.len());
        let outboxes: Vec<Outbox<E>> = (0..threads)
            .map(|_| Mutex::new((0..self.shards.len()).map(|_| Vec::new()).collect()))
            .collect();
        let shared = RunShared {
            outboxes: &outboxes,
            ctl: &ctl,
            shard_of: &self.shard_of,
            slot: &self.slot,
            // Nothing crosses a single shard, so its window is the whole run.
            window_ps: if self.shards.len() == 1 {
                u64::MAX
            } else {
                self.cfg.window.as_ps()
            },
            deadline_ps: deadline.as_ps(),
        };

        // Static round-robin shard→worker assignment.
        let mut groups: Vec<Vec<&mut Shard<E>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, sh) in self.shards.iter_mut().enumerate() {
            groups[i % threads].push(sh);
        }

        std::thread::scope(|scope| {
            let shared = &shared;
            let mut groups = groups.into_iter().enumerate();
            let (me, mine) = groups.next().expect("at least one worker");
            for (w, grp) in groups {
                scope.spawn(move || worker(w, grp, shared));
            }
            worker(me, mine, shared);
        });

        if let Some(p) = ctl.panic_payload.lock().expect("panic slot").take() {
            std::panic::resume_unwind(p);
        }

        // Aggregate shard results back into the engine-level view.
        if let Some(t) = self.shards.iter().map(|s| s.now).max() {
            self.now = self.now.max(t);
        }
        self.events_fired = self.shards.iter().map(|s| s.fired).sum();
        self.cross_events += ctl.cross_sent.load(Ordering::Relaxed);
        let mut merged = StatsRegistry::new();
        for sh in &self.shards {
            merged.merge_from(&sh.stats);
        }
        self.merged_stats = merged;
        self.events_fired - fired_before
    }
}

/// One worker thread's run loop: alternate drain/decide and process phases
/// until the leader declares the run done. Panics (component bugs, lookahead
/// violations, conservation failures) poison the barrier so every worker
/// unblocks, and the payload is re-raised on the caller's thread.
fn worker<E: Send>(w: usize, mut my: Vec<&mut Shard<E>>, shared: &RunShared<'_, E>) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(w, &mut my, shared);
    }));
    if let Err(payload) = result {
        let mut slot = shared.ctl.panic_payload.lock().expect("panic slot");
        slot.get_or_insert(payload);
        shared.ctl.done.store(true, Ordering::Relaxed);
        shared.ctl.barrier.poison();
    }
}

fn worker_loop<E: Send>(w: usize, my: &mut [&mut Shard<E>], shared: &RunShared<'_, E>) {
    let ctl = shared.ctl;
    loop {
        // Phase 1: drain every worker's outbox entries for my shards (all
        // senders passed the previous barrier, so the outboxes are
        // quiescent) and publish each shard's earliest pending time.
        let mut received = 0u64;
        for outbox in shared.outboxes {
            let mut outbox = lock(outbox);
            for shard in my.iter_mut() {
                for ev in outbox[shard.id].drain(..) {
                    shard.queue.push_sequenced(ev);
                    received += 1;
                }
            }
        }
        ctl.cross_recvd.fetch_add(received, Ordering::Relaxed);
        for shard in my.iter_mut() {
            let next = shard.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
            ctl.next_time[shard.id].store(next, Ordering::Relaxed);
            if cfg!(debug_assertions) {
                ctl.dbg_scheduled
                    .fetch_add(shard.queue.scheduled_total(), Ordering::Relaxed);
                ctl.dbg_fired.fetch_add(shard.fired, Ordering::Relaxed);
                ctl.dbg_pending
                    .fetch_add(shard.queue.len() as u64, Ordering::Relaxed);
            }
        }

        // Phase 2: the last arriver picks the next window (or ends the run).
        let ok = ctl.barrier.wait_leader(|| {
            if cfg!(debug_assertions) {
                // Conservation: with all outboxes drained, every event ever
                // scheduled anywhere is either fired or pending...
                let scheduled = ctl.dbg_scheduled.swap(0, Ordering::Relaxed);
                let fired = ctl.dbg_fired.swap(0, Ordering::Relaxed);
                let pending = ctl.dbg_pending.swap(0, Ordering::Relaxed);
                assert!(
                    scheduled == fired + pending,
                    "event conservation violated: scheduled {} != fired {} + pending {}",
                    scheduled,
                    fired,
                    pending,
                );
                // ...and every cross-shard send has been received.
                let sent = ctl.cross_sent.load(Ordering::Relaxed);
                let recvd = ctl.cross_recvd.load(Ordering::Relaxed);
                assert!(
                    sent == recvd,
                    "cross-shard conservation violated: sent {} != received {}",
                    sent,
                    recvd,
                );
            }
            let min = ctl
                .next_time
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .min()
                .unwrap_or(u64::MAX);
            if ctl.stop.load(Ordering::Relaxed) || min == u64::MAX || min > shared.deadline_ps {
                ctl.done.store(true, Ordering::Relaxed);
            } else {
                // Exclusive end: at least one tick past the minimum (so a
                // zero window still progresses), capped so nothing past the
                // deadline fires.
                let end = min
                    .saturating_add(shared.window_ps)
                    .max(min.saturating_add(1))
                    .min(shared.deadline_ps.saturating_add(1));
                ctl.window_end_ps.store(end, Ordering::Relaxed);
            }
        });
        if !ok || ctl.done.load(Ordering::Relaxed) {
            return;
        }

        // Phase 3: process this window on every owned shard, then rendezvous
        // so the next drain sees all cross-shard traffic.
        let window_end_ps = ctl.window_end_ps.load(Ordering::Relaxed);
        {
            let mut outbox = lock(&shared.outboxes[w]);
            for shard in my.iter_mut() {
                process_window(shard, window_end_ps, &mut outbox, shared);
            }
        }
        if !ctl.barrier.wait_leader(|| {}) {
            return;
        }
    }
}

fn process_window<E: Send>(
    shard: &mut Shard<E>,
    window_end_ps: u64,
    outbox: &mut [Vec<ScheduledEvent<E>>],
    shared: &RunShared<'_, E>,
) {
    loop {
        let Some(t) = shard.queue.peek_time() else {
            return;
        };
        if t.as_ps() >= window_end_ps {
            return;
        }
        let ev = shard.queue.pop().expect("peeked event");
        debug_assert!(ev.time >= shard.now, "shard clock went backwards");
        shard.now = ev.time;
        shard.fired += 1;
        if let Some(trace) = &mut shard.trace {
            trace.push(TraceEntry {
                time: ev.time,
                target: ev.target,
                seq: ev.seq,
            });
        }
        let (owner, local) = shared.slot[ev.target.as_usize()];
        debug_assert_eq!(owner, shard.id, "event routed to the wrong shard");
        let mut comp = shard.components[local]
            .take()
            .unwrap_or_else(|| panic!("event for unregistered/active component {:?}", ev.target));
        let sink = ShardSink {
            shard_id: shard.id,
            queue: &mut shard.queue,
            outbox: &mut *outbox,
            ctl: shared.ctl,
            shard_of: shared.shard_of,
            window_end_ps,
        };
        let mut ctx = Ctx::new(
            ev.time,
            ev.target,
            sink,
            &mut shard.rng,
            &mut shard.stats,
            &mut shard.stop,
        );
        comp.handle(ev.payload, &mut ctx);
        shard.components[local] = Some(comp);
        if shard.stop {
            // Stop halts this shard's window immediately; peers finish the
            // window (deterministic regardless of thread interleaving) and
            // the leader ends the run at the next barrier.
            shard.stop = false;
            shared.ctl.stop.store(true, Ordering::Relaxed);
            return;
        }
    }
}

impl<E> fmt::Debug for ParEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParEngine")
            .field("now", &self.now)
            .field("threads", &self.cfg.threads)
            .field("shards", &self.cfg.shards)
            .field("fired", &self.events_fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimTime = SimTime::from_ns(100);

    #[derive(Debug)]
    struct Token {
        hops: u32,
    }

    /// Forwards a token around a ring of peers with `HOP` latency, counting
    /// and sampling as it goes.
    struct RingNode {
        next: ComponentId,
        seen: u32,
        budget: u32,
    }

    impl Component<Token> for RingNode {
        fn handle(&mut self, ev: Token, ctx: &mut Ctx<'_, Token>) {
            self.seen += 1;
            ctx.stats().counter("hops").inc();
            let jitter = ctx.rng().below(50);
            ctx.stats().histogram("jitter").record(jitter as f64);
            if ev.hops < self.budget {
                ctx.schedule_in(
                    HOP + SimTime::from_ps(jitter),
                    self.next,
                    Token { hops: ev.hops + 1 },
                );
            }
        }

        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }

        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn ring_engine(threads: usize, nodes: usize, budget: u32) -> ParEngine<Token> {
        let cfg = SimConfig {
            threads,
            window: HOP,
            shards: 4,
        };
        let mut e = ParEngine::new(7, cfg);
        for i in 0..nodes {
            e.add_component(RingNode {
                next: ComponentId::from_raw((i + 1) % nodes),
                seen: 0,
                budget,
            });
        }
        e.schedule(SimTime::ZERO, ComponentId::from_raw(0), Token { hops: 0 });
        e
    }

    fn fingerprint(e: &ParEngine<Token>) -> (SimTime, u64, u64, Vec<f64>) {
        (
            e.now(),
            e.events_fired(),
            e.stats().counter_value("hops"),
            e.stats()
                .get_histogram("jitter")
                .map(|h| h.samples().to_vec())
                .unwrap_or_default(),
        )
    }

    #[test]
    fn single_thread_ring_completes() {
        let mut e = ring_engine(1, 8, 40);
        let fired = e.run_to_completion();
        assert_eq!(fired, 41);
        assert_eq!(e.stats().counter_value("hops"), 41);
        assert_eq!(e.scheduled_total(), e.events_fired());
        assert_eq!(e.pending_events(), 0);
        assert!(e.cross_events() > 0, "ring spans shards");
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let mut base = ring_engine(1, 8, 200);
        base.enable_trace(64);
        base.run_to_completion();
        let want = fingerprint(&base);
        let want_trace = base.merged_trace();
        for threads in [2, 4, 8] {
            let mut e = ring_engine(threads, 8, 200);
            e.enable_trace(64);
            e.run_to_completion();
            assert_eq!(fingerprint(&e), want, "threads={}", threads);
            assert_eq!(e.merged_trace(), want_trace, "threads={}", threads);
        }
    }

    #[test]
    fn cross_shard_burst_matches_one_thread() {
        // A 300-hop token crosses to another shard on every other hop; four
        // workers must reproduce the one-worker run exactly.
        let mut par = ring_engine(4, 8, 300);
        par.run_to_completion();
        let mut seq = ring_engine(1, 8, 300);
        seq.run_to_completion();
        assert_eq!(fingerprint(&par), fingerprint(&seq));
    }

    #[test]
    fn run_until_and_resume_match_uninterrupted() {
        let mut whole = ring_engine(4, 8, 100);
        whole.run_to_completion();

        let mut stepped = ring_engine(4, 8, 100);
        let mid = SimTime::from_ns(2_000);
        stepped.run_until(mid);
        assert!(stepped.now() <= mid);
        assert!(stepped.pending_events() > 0);
        stepped.run_to_completion();
        assert_eq!(fingerprint(&stepped), fingerprint(&whole));
    }

    #[test]
    fn downcast_after_run() {
        let mut e = ring_engine(2, 4, 7);
        e.run_to_completion();
        let total: u32 = (0..4)
            .map(|i| {
                e.component_as::<RingNode>(ComponentId::from_raw(i))
                    .expect("ring node")
                    .seen
            })
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn lookahead_violation_panics() {
        struct Fast {
            peer: ComponentId,
        }
        impl Component<Token> for Fast {
            fn handle(&mut self, _ev: Token, ctx: &mut Ctx<'_, Token>) {
                // Cross-shard with near-zero latency while the window claims
                // 100 ns of lookahead: must be rejected.
                ctx.schedule_in(SimTime::from_ps(1), self.peer, Token { hops: 0 });
            }
        }
        let mut e = ParEngine::new(
            1,
            SimConfig {
                threads: 2,
                window: SimTime::from_ns(100),
                shards: 2,
            },
        );
        let a = e.add_component(Fast {
            peer: ComponentId::from_raw(1),
        });
        e.add_component(Fast {
            peer: ComponentId::from_raw(0),
        });
        e.set_partition(vec![0, 1]);
        e.schedule(SimTime::ZERO, a, Token { hops: 0 });
        e.run_to_completion();
    }

    #[test]
    fn stop_request_halts_and_resumes() {
        struct Stopper;
        impl Component<Token> for Stopper {
            fn handle(&mut self, _ev: Token, ctx: &mut Ctx<'_, Token>) {
                ctx.request_stop();
            }
        }
        let mut e = ParEngine::new(3, SimConfig::new(2, HOP));
        let a = e.add_component(Stopper);
        let b = e.add_component(Stopper);
        e.schedule(SimTime::ZERO, a, Token { hops: 0 });
        e.schedule(SimTime::from_us(1), b, Token { hops: 0 });
        e.run_to_completion();
        assert_eq!(e.pending_events(), 1, "stop left the later event queued");
        e.run_to_completion();
        assert_eq!(e.pending_events(), 0);
        assert_eq!(e.events_fired(), 2);
    }

    #[test]
    fn empty_engine_runs() {
        let mut e: ParEngine<Token> = ParEngine::new(0, SimConfig::default());
        assert_eq!(e.run_to_completion(), 0);
        assert_eq!(e.now(), SimTime::ZERO);
    }

    // The sequential reference: `SimConfig::default()`, one shard.

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Stop,
    }

    /// Bounces a ping to its peer every 100 ns until `max_hops`.
    struct Echo {
        peer: Option<ComponentId>,
        received: Vec<u32>,
        max_hops: u32,
    }

    impl Component<Msg> for Echo {
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Msg::Ping(h) => {
                    self.received.push(h);
                    if h < self.max_hops {
                        if let Some(p) = self.peer {
                            ctx.schedule_in(SimTime::from_ns(100), p, Msg::Ping(h + 1));
                        }
                    }
                }
                Msg::Stop => ctx.request_stop(),
            }
        }

        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }

        fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
            Some(self)
        }
    }

    fn echo_pair() -> (ParEngine<Msg>, ComponentId, ComponentId) {
        let mut e = ParEngine::new(1, SimConfig::default());
        let echo = || Echo {
            peer: None,
            received: vec![],
            max_hops: 6,
        };
        let a = e.add_component(echo());
        let b = e.add_component(echo());
        // Wire peers after registration via downcast.
        e.component_as_mut::<Echo>(a).expect("echo").peer = Some(b);
        e.component_as_mut::<Echo>(b).expect("echo").peer = Some(a);
        (e, a, b)
    }

    #[test]
    fn ping_pong_advances_clock() {
        let (mut e, a, b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        assert_eq!(e.run_to_completion(), 7); // hops 0..=6
        assert_eq!(e.now(), SimTime::from_ns(600));
        assert_eq!(e.component_as::<Echo>(b).unwrap().received, vec![1, 3, 5]);
    }

    #[test]
    fn run_until_deadline_is_inclusive() {
        let (mut e, a, _b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.run_until(SimTime::from_ns(250));
        assert_eq!(e.now(), SimTime::from_ns(200));
        assert!(e.pending_events() > 0);
        // An event at exactly the deadline fires.
        e.run_until(SimTime::from_ns(300));
        assert_eq!(e.now(), SimTime::from_ns(300));
        // Resume to completion.
        e.run_to_completion();
        assert_eq!(e.now(), SimTime::from_ns(600));
    }

    /// Conservation: every event ever scheduled is either fired or pending,
    /// after a stop and after the resumed run drains the rest.
    #[test]
    fn stop_then_resume_conserves_events() {
        let (mut e, a, b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.schedule(SimTime::from_ns(150), b, Msg::Stop);
        e.run_to_completion();
        // Halted on the stop: events up to t=150 fired, the rest queued.
        assert_eq!(e.now(), SimTime::from_ns(150));
        assert_eq!(e.events_fired(), 3);
        assert!(e.pending_events() > 0);
        assert_eq!(
            e.scheduled_total(),
            e.events_fired() + e.pending_events() as u64
        );
        // A later run resumes (the stop was consumed).
        e.run_to_completion();
        assert_eq!(e.pending_events(), 0);
        assert_eq!(e.now(), SimTime::from_ns(600));
        assert_eq!(e.scheduled_total(), e.events_fired());
    }

    /// Components that don't override `as_any` simply opt out of downcasts.
    #[test]
    fn downcast_default_opts_out() {
        struct Opaque;
        impl Component<Msg> for Opaque {
            fn handle(&mut self, _ev: Msg, _ctx: &mut Ctx<'_, Msg>) {}
        }
        let mut e = ParEngine::new(0, SimConfig::default());
        let id = e.add_component(Opaque);
        assert!(e.component_as::<Opaque>(id).is_none());
        e.run_to_completion();
        assert!(e.component_as::<Opaque>(id).is_none());
    }

    /// Records one draw per event from its shard's stream.
    struct Draw(Vec<u64>);

    impl Component<Token> for Draw {
        fn handle(&mut self, _ev: Token, ctx: &mut Ctx<'_, Token>) {
            self.0.push(ctx.rng().below(u64::MAX));
        }

        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }

    /// Draws of component 0 after four events on it, with `shards` shards.
    fn draws(shards: usize) -> Vec<u64> {
        let mut e = ParEngine::new(
            9,
            SimConfig {
                shards,
                ..SimConfig::default()
            },
        );
        let a = e.add_component(Draw(vec![]));
        e.add_component(Draw(vec![]));
        for i in 0..4 {
            e.schedule(SimTime::from_ns(i), a, Token { hops: 0 });
        }
        e.run_to_completion();
        e.component_as::<Draw>(a).unwrap().0.clone()
    }

    /// One shard draws exactly `SimRng::new(seed)`; two shards fork.
    #[test]
    fn one_shard_draws_the_root_stream() {
        let mut root = SimRng::new(9);
        let want: Vec<u64> = (0..4).map(|_| root.below(u64::MAX)).collect();
        assert_eq!(draws(1), want);
        assert_ne!(draws(2), want);
    }

    #[test]
    #[should_panic(expected = "components must be registered before the first run")]
    fn registering_after_the_first_run_panics() {
        let (mut e, _a, _b) = echo_pair();
        e.run_to_completion();
        e.add_component(Echo {
            peer: None,
            received: vec![],
            max_hops: 0,
        });
    }
}
