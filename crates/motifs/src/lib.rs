//! # rvma-motifs — application communication motifs
//!
//! Ember-style motifs driving the simulated cluster, used to regenerate the
//! paper's Figs. 7–8:
//!
//! * [`Sweep3dNode`] — KBA wavefront sweeps (latency-bound; Fig. 7),
//! * [`Halo3dNode`] — 3-D nearest-neighbour halo exchange (bandwidth-bound;
//!   Fig. 8),
//! * [`KvNode`] — closed-loop KV-store GET/PUT with zipfian keys (the
//!   client-server pattern the paper's introduction motivates RVMA with),
//! * [`run_motif`] / [`compare_protocols`] — the harness that assembles a
//!   cluster on [`rvma_sim::ParEngine`], runs a motif to quiescence, and
//!   reports makespans and protocol-event counts. `SimConfig::default()`
//!   runs it sequentially; more shards and threads run the same harness in
//!   parallel.

pub mod allreduce;
pub mod halo3d;
pub mod incast;
pub mod kvstore;
pub mod replay;
pub mod runner;
pub mod sweep3d;

pub use allreduce::{AllReduceConfig, AllReduceNode};
pub use halo3d::{Halo3dConfig, Halo3dNode};
pub use incast::{IncastConfig, IncastNode, INCAST_TAG};
pub use kvstore::{KvConfig, KvNode, Zipf};
pub use replay::{ReplayNode, Trace, TraceOp};
pub use runner::{
    build_motif_engine, compare_protocols, run_motif, IdleNode, MotifResult, MOTIF_DONE_HIST,
};
pub use sweep3d::{Sweep3dConfig, Sweep3dNode};
