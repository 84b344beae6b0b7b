//! The simulation engine: component registry + event loop.
//!
//! [`Engine<E>`] is generic over the event payload type `E`, so each layer of
//! the reproduction (network, NIC, motif runner) defines one message enum and
//! instantiates the engine with it. Components are owned by the engine and
//! addressed by [`ComponentId`]; during event delivery a component receives a
//! [`Ctx`] that can schedule further events, read the clock, and draw from
//! the engine's deterministic RNG.

use crate::event::EventQueue;
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::SimTime;
use crate::trace::{TraceEntry, TraceRing};
use std::any::Any;
use std::fmt;

/// Index of a component registered with an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Construct from a raw index. Only meaningful for ids previously handed
    /// out by [`Engine::add_component`] (or in tests).
    pub const fn from_raw(i: usize) -> Self {
        ComponentId(i)
    }

    /// The raw index.
    pub const fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulated entity that reacts to events.
pub trait Component<E> {
    /// Deliver `ev` to the component at the current simulated instant.
    fn handle(&mut self, ev: E, ctx: &mut Ctx<'_, E>);

    /// Downcast support: return `self` as [`Any`] to let harness code read
    /// results back after a run (see [`Engine::component_as`]). The default
    /// opts out; concrete components override with `Some(self)`.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// Mutable counterpart of [`Component::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// Destination for events emitted while handling an event.
///
/// The sequential [`Engine`] plugs its own [`EventQueue`] in here; the
/// parallel engine plugs in a per-shard sink that routes local events to the
/// shard's queue and cross-shard events into its worker's outbox. Components
/// only ever see [`Ctx`], so the same model code runs on both engines.
pub trait EventSink<E> {
    /// Enqueue `payload` to fire on `target` at absolute instant `time`.
    fn emit(&mut self, time: SimTime, target: ComponentId, payload: E);
}

impl<E> EventSink<E> for EventQueue<E> {
    fn emit(&mut self, time: SimTime, target: ComponentId, payload: E) {
        self.push(time, target, payload);
    }
}

/// Everything a component may touch while handling an event.
pub struct Ctx<'a, E> {
    now: SimTime,
    self_id: ComponentId,
    sink: &'a mut dyn EventSink<E>,
    rng: &'a mut SimRng,
    stats: &'a mut StatsRegistry,
    stop_requested: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Assemble a dispatch context (used by both engine drivers).
    pub(crate) fn new(
        now: SimTime,
        self_id: ComponentId,
        sink: &'a mut dyn EventSink<E>,
        rng: &'a mut SimRng,
        stats: &'a mut StatsRegistry,
        stop_requested: &'a mut bool,
    ) -> Self {
        Ctx {
            now,
            self_id,
            sink,
            rng,
            stats,
            stop_requested,
        }
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Id of the component currently handling the event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedule `payload` on `target` after `delay` (relative to now).
    pub fn schedule_in(&mut self, delay: SimTime, target: ComponentId, payload: E) {
        self.sink.emit(self.now + delay, target, payload);
    }

    /// Schedule `payload` on `target` at an absolute instant, which must not
    /// be in the past.
    pub fn schedule_at(&mut self, at: SimTime, target: ComponentId, payload: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.sink.emit(at.max(self.now), target, payload);
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The engine's stats registry.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        self.stats
    }

    /// Ask the engine to stop after this event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Construction-time API shared by the sequential [`Engine`] and the
/// parallel engine ([`crate::ParEngine`]).
///
/// Fabric/cluster builders are generic over this trait so the same wiring
/// code populates either engine. Components must be `Send` because the
/// parallel engine moves them onto worker threads.
pub trait SimBuilder<E> {
    /// Register a component, returning its id.
    fn register(&mut self, c: Box<dyn Component<E> + Send>) -> ComponentId;

    /// Number of registered components.
    fn registered(&self) -> usize;

    /// Schedule an event from setup code (outside any component).
    fn seed_event(&mut self, at: SimTime, target: ComponentId, payload: E);

    /// Convenience: register an unboxed component.
    fn register_component<C>(&mut self, c: C) -> ComponentId
    where
        C: Component<E> + Send + 'static,
        Self: Sized,
    {
        self.register(Box::new(c))
    }
}

impl<E> SimBuilder<E> for Engine<E> {
    fn register(&mut self, c: Box<dyn Component<E> + Send>) -> ComponentId {
        self.add_boxed(c)
    }

    fn registered(&self) -> usize {
        self.component_count()
    }

    fn seed_event(&mut self, at: SimTime, target: ComponentId, payload: E) {
        self.schedule(at, target, payload);
    }
}

/// The simulation engine. See the crate docs for a usage example.
pub struct Engine<E> {
    components: Vec<Option<Box<dyn Component<E>>>>,
    queue: EventQueue<E>,
    now: SimTime,
    rng: SimRng,
    stats: StatsRegistry,
    events_fired: u64,
    stop_requested: bool,
    trace: Option<TraceRing>,
}

impl<E> Engine<E> {
    /// A fresh engine at time zero with a deterministic RNG seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            components: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            stats: StatsRegistry::new(),
            events_fired: 0,
            stop_requested: false,
            trace: None,
        }
    }

    /// Record the last `capacity` dispatched events for debugging; read
    /// back with [`Engine::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// The trace ring, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Register a component, returning its id.
    pub fn add_component<C: Component<E> + 'static>(&mut self, c: C) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Some(Box::new(c)));
        id
    }

    /// Register a boxed component, returning its id.
    pub fn add_boxed(&mut self, c: Box<dyn Component<E>>) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Some(c));
        id
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Immutable access to a component (e.g. to read results after a run).
    ///
    /// # Panics
    /// Panics if the id is out of range or the component is mid-dispatch.
    pub fn component(&self, id: ComponentId) -> &dyn Component<E> {
        self.components[id.0]
            .as_deref()
            .expect("component checked out during dispatch")
    }

    /// Mutable access to a component.
    pub fn component_mut(&mut self, id: ComponentId) -> &mut (dyn Component<E> + 'static) {
        self.components[id.0]
            .as_deref_mut()
            .expect("component checked out during dispatch")
    }

    /// Downcast a component to its concrete type, if it implements
    /// [`Component::as_any`]. Lets tests and harnesses read results back
    /// without rebuilding the engine.
    pub fn component_as<C: 'static>(&self, id: ComponentId) -> Option<&C> {
        self.component(id).as_any()?.downcast_ref::<C>()
    }

    /// Mutable counterpart of [`Engine::component_as`] (e.g. to wire peer
    /// ids after registration).
    pub fn component_as_mut<C: 'static>(&mut self, id: ComponentId) -> Option<&mut C> {
        self.component_mut(id).as_any_mut()?.downcast_mut::<C>()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// The engine's stats registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Mutable stats registry (for pre-registering counters).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// Schedule an event from outside component context (setup code).
    pub fn schedule(&mut self, at: SimTime, target: ComponentId, payload: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at.max(self.now), target, payload);
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Total events ever scheduled (fired or pending). At quiesce the
    /// conservation invariant holds:
    /// `scheduled_total == events_fired + pending_events`.
    pub fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Fire the single earliest event. Returns `false` if the queue is empty.
    ///
    /// # Panics
    /// Panics if an event targets a component id that was never registered,
    /// or if a component (transitively) delivers an event to itself while
    /// already dispatching — neither occurs in a well-formed model.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.events_fired += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                time: ev.time,
                target: ev.target,
                seq: self.events_fired - 1,
            });
        }

        // Check the component out of the registry so the borrow of
        // `self.queue`/`self.rng` inside Ctx doesn't alias it.
        let mut comp = self.components[ev.target.0]
            .take()
            .unwrap_or_else(|| panic!("event for unregistered/active component {:?}", ev.target));
        {
            let mut ctx = Ctx::new(
                self.now,
                ev.target,
                &mut self.queue,
                &mut self.rng,
                &mut self.stats,
                &mut self.stop_requested,
            );
            comp.handle(ev.payload, &mut ctx);
        }
        self.components[ev.target.0] = Some(comp);
        true
    }

    /// Run until the queue drains or a component requests a stop.
    /// Returns the number of events fired by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.events_fired;
        while !self.stop_requested && self.step() {}
        self.stop_requested = false;
        self.events_fired - start
    }

    /// Run until the queue drains, a stop is requested, or the clock would
    /// pass `deadline`. Events at exactly `deadline` still fire.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_fired;
        while !self.stop_requested {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.stop_requested = false;
        self.events_fired - start
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("fired", &self.events_fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Stop,
    }

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

    fn echo(max_hops: u32) -> Echo {
        Echo {
            peer: None,
            received: vec![],
            max_hops,
        }
    }

    fn echo_pair() -> (Engine<Msg>, ComponentId, ComponentId) {
        let mut e = Engine::new(1);
        let a = e.add_component(echo(6));
        let b = e.add_component(echo(6));
        // Wire peers after registration via downcast.
        e.component_as_mut::<Echo>(a).expect("echo").peer = Some(b);
        e.component_as_mut::<Echo>(b).expect("echo").peer = Some(a);
        (e, a, b)
    }

    #[test]
    fn ping_pong_advances_clock() {
        let (mut e, a, _b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        let fired = e.run_to_completion();
        assert_eq!(fired, 7); // hops 0..=6
        assert_eq!(e.now(), SimTime::from_ns(600));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut e, a, _b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.run_until(SimTime::from_ns(250));
        assert_eq!(e.now(), SimTime::from_ns(200));
        assert!(e.pending_events() > 0);
        // Resume to completion.
        e.run_to_completion();
        assert_eq!(e.now(), SimTime::from_ns(600));
    }

    #[test]
    fn events_at_deadline_fire() {
        let (mut e, a, _b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.run_until(SimTime::from_ns(200));
        assert_eq!(e.now(), SimTime::from_ns(200));
    }

    #[test]
    fn stop_request_halts_loop() {
        let (mut e, a, b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.schedule(SimTime::from_ns(150), b, Msg::Stop);
        e.run_to_completion();
        // Stopped mid-exchange: at most events up to t=150 plus the Stop fired.
        assert!(e.now() <= SimTime::from_ns(150));
        assert!(e.pending_events() > 0);
        // A later run resumes (stop flag was consumed).
        e.run_to_completion();
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn step_on_empty_queue_is_false() {
        let mut e: Engine<Msg> = Engine::new(0);
        assert!(!e.step());
    }

    #[test]
    fn trace_records_dispatches() {
        let (mut e, a, _b) = echo_pair();
        e.enable_trace(4);
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.run_to_completion(); // 7 events; ring keeps the last 4
        let trace = e.trace().expect("enabled");
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 3);
        let seqs: Vec<u64> = trace.entries().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert_eq!(trace.last().unwrap().time, SimTime::from_ns(600));
    }

    #[test]
    fn trace_disabled_by_default() {
        let e: Engine<Msg> = Engine::new(0);
        assert!(e.trace().is_none());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut e, a, _b) = echo_pair();
            e.schedule(SimTime::ZERO, a, Msg::Ping(0));
            e.run_to_completion();
            (e.now(), e.events_fired())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn downcast_reads_results_back() {
        let (mut e, a, b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.run_to_completion();
        // Hops 0, 2, 4, 6 land on `a`; 1, 3, 5 on `b`.
        assert_eq!(
            e.component_as::<Echo>(a).unwrap().received,
            vec![0, 2, 4, 6]
        );
        assert_eq!(e.component_as::<Echo>(b).unwrap().received, vec![1, 3, 5]);
        // Wrong concrete type yields None rather than a panic.
        assert!(e.component_as::<u32>(a).is_none());
    }

    /// Components that don't override `as_any` simply opt out of downcasts.
    #[test]
    fn downcast_default_opts_out() {
        struct Opaque;
        impl Component<Msg> for Opaque {
            fn handle(&mut self, _ev: Msg, _ctx: &mut Ctx<'_, Msg>) {}
        }
        let mut e: Engine<Msg> = Engine::new(0);
        let id = e.add_component(Opaque);
        assert!(e.component_as::<Opaque>(id).is_none());
    }

    /// Conservation: every event ever scheduled is either fired or pending.
    #[test]
    fn conservation_at_quiesce() {
        let (mut e, a, b) = echo_pair();
        e.schedule(SimTime::ZERO, a, Msg::Ping(0));
        e.schedule(SimTime::from_ns(150), b, Msg::Stop);
        e.run_to_completion(); // halts on the stop with events still queued
        assert_eq!(
            e.scheduled_total(),
            e.events_fired() + e.pending_events() as u64
        );
        e.run_to_completion(); // drain the rest
        assert_eq!(e.pending_events(), 0);
        assert_eq!(e.scheduled_total(), e.events_fired());
    }

    #[test]
    fn builder_trait_matches_inherent_api() {
        let mut e: Engine<Msg> = Engine::new(3);
        let a = SimBuilder::register_component(&mut e, echo(1));
        assert_eq!(e.registered(), 1);
        e.seed_event(SimTime::ZERO, a, Msg::Ping(0));
        e.run_to_completion();
        assert_eq!(e.component_as::<Echo>(a).unwrap().received, vec![0]);
    }
}
