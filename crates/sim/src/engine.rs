//! The component model: ids, the [`Component`] trait and the dispatch
//! context [`Ctx`].
//!
//! Each layer of the reproduction (network, NIC, motif runner) defines one
//! event enum `E` and implements [`Component<E>`] for its entities. The
//! engine ([`crate::ParEngine`]) owns the components, addresses them by
//! [`ComponentId`], and hands each event's target a [`Ctx`] that can
//! schedule further events, read the clock, and draw from its shard's
//! deterministic RNG.

use crate::par::ShardSink;
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::SimTime;
use std::any::Any;
use std::fmt;

/// Index of a component registered with a [`crate::ParEngine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Construct from a raw index. Only meaningful for ids previously handed
    /// out by [`crate::ParEngine::add_component`] (or in tests).
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
    /// results back after a run (see [`crate::ParEngine::component_as`]).
    /// The default opts out; concrete components override with `Some(self)`.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// Mutable counterpart of [`Component::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// Everything a component may touch while handling an event.
pub struct Ctx<'a, E> {
    now: SimTime,
    self_id: ComponentId,
    sink: ShardSink<'a, E>,
    rng: &'a mut SimRng,
    stats: &'a mut StatsRegistry,
    stop_requested: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Assemble a dispatch context over the handling shard's sink.
    pub(crate) fn new(
        now: SimTime,
        self_id: ComponentId,
        sink: ShardSink<'a, E>,
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

    /// The shard's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The shard's stats registry.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        self.stats
    }

    /// Ask the engine to stop after this event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}
