//! # rvma-sim — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation (DES) core in the spirit
//! of SST-core, built for the RVMA reproduction. The paper evaluated RVMA at
//! scale with the Structural Simulation Toolkit (SST); since SST has no Rust
//! ecosystem, this crate provides the equivalent substrate:
//!
//! * [`SimTime`] — picosecond-resolution simulated time (the paper uses a
//!   5 GHz update frequency, i.e. 200 ps ticks; picoseconds subsume that),
//! * [`ParEngine`] — the event loop, generic over a user-supplied event
//!   type and configured by [`SimConfig`],
//! * [`Component`] — the trait simulated entities (switches, NICs, hosts)
//!   implement,
//! * [`SimRng`] — a seeded, reproducible RNG so that a given (seed, config)
//!   pair always yields an identical event trace,
//! * [`stats`] — counters and histograms for measurement collection.
//!
//! There is one engine. [`SimConfig::default()`] runs it as the sequential
//! reference: one shard, one [`EventQueue`], one RNG stream drawn from
//! `SimRng::new(seed)`, every event in `(time, seq)` order on the calling
//! thread. More shards give sharded conservative-window execution for
//! full-scale runs (the paper's 8,192-node fabrics): each shard has its own
//! [`EventQueue`], and cross-shard events wait in per-worker outboxes until
//! the window's barrier. Determinism survives parallelism: per-shard seq
//! strides and RNG streams keep results bit-identical across thread counts
//! (see the [`par`] module docs for the scheme).
//!
//! ```
//! use rvma_sim::{Component, Ctx, ParEngine, SimConfig, SimTime};
//!
//! struct Ping { sent: u64 }
//! #[derive(Debug)]
//! struct Tick;
//!
//! impl Component<Tick> for Ping {
//!     fn handle(&mut self, _ev: Tick, ctx: &mut Ctx<'_, Tick>) {
//!         self.sent += 1;
//!         if self.sent < 3 {
//!             let me = ctx.self_id();
//!             ctx.schedule_in(SimTime::from_ns(10), me, Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = ParEngine::new(42, SimConfig::default());
//! let id = engine.add_component(Ping { sent: 0 });
//! engine.schedule(SimTime::ZERO, id, Tick);
//! engine.run_to_completion();
//! assert_eq!(engine.now(), SimTime::from_ns(20));
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod hash;
pub mod par;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Component, ComponentId, Ctx};
pub use event::{EventQueue, ScheduledEvent};
pub use hash::FastMap;
pub use par::{ParEngine, SimConfig};
pub use rng::SimRng;
pub use slab::Slab;
pub use stats::{Counter, Histogram, StatsRegistry};
pub use time::{Bandwidth, SimTime};
pub use trace::{TraceEntry, TraceRing};
