//! `rvma-check` — an in-tree, loom-style schedule-enumerating model
//! checker for the crate's lock-free core.
//!
//! Compiled only with `--features check`. In that configuration the
//! `csync` primitive layer (every `Atomic*`,
//! `UnsafeCell`, mutex, futex, park and spin hint used by `ring`,
//! `notify`, `cq`, the seqlock route cache and the telemetry shards)
//! routes through the cooperative scheduler in `sched`: model code runs
//! one instrumented operation at a time, every hand-off position is a DFS
//! choice point, and the explorer **exhaustively enumerates** the
//! (preemption-bounded) schedule space instead of sampling it.
//!
//! What a run gives you:
//!
//! * [`explore`] — bounded-preemption DFS. `Ok(`[`Report`]`)` with
//!   `complete == true` means every schedule in the bound was executed;
//!   the report carries the explored-schedule count.
//! * [`explore_random`] — seeded randomized smoke (for spaces too large
//!   to enumerate); prints `RVMA_CHECK_SEED` for replay.
//! * On failure, a [`Failure`] with a seed-stable [`ScheduleId`]
//!   (`rvc1-…`, one hex digit per scheduling choice), a greedily
//!   *minimized* variant, and a replay recipe. `RVMA_CHECK_SCHEDULE=<id>`
//!   re-runs exactly that interleaving through the same [`explore`] call.
//! * Failure kinds beyond assertion panics: modeled **deadlock**
//!   (no runnable thread), **livelock** (only spinners left), and
//!   **data races** on `UnsafeCell` payloads detected with vector
//!   clocks — so a missing `Release`/`Acquire` pairing is caught even
//!   though the serialized execution never corrupts a value.
//!
//! Model threads come from [`spawn`]/[`JoinHandle`]; model code otherwise
//! uses the production types directly — that is the point: the structures
//! under test are the shipping `RingQueue`, `NotificationSlot`,
//! `CompletionQueue`, `RouteSlot` and `Mailbox`, not copies.
//!
//! Seeded bad-ordering **mutations** ([`Mutation`], activated per
//! execution via [`Options::mutations`]) weaken specific orderings in the
//! production code (e.g. the completing swap to `Relaxed`) to prove the
//! checker catches the bug class each ordering exists to prevent.

mod clock;
mod sched;
mod shadow;

pub use crate::csync::Mutation;
pub use sched::{
    explore, explore_random, replay, spawn, unpark_model_thread, Failure, FailureKind, JoinHandle,
    Options, Report, ScheduleId,
};

pub(crate) use sched::{modeled_spins, mutation_active, with_active, Execution};
pub(crate) use shadow::AtomKind;

#[cfg(test)]
mod engine_tests;
#[cfg(test)]
mod litmus;
#[cfg(test)]
mod models;
#[cfg(test)]
mod mutations;
