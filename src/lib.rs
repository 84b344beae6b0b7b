//! # rvma — Remote Virtual Memory Access (facade crate)
//!
//! A from-scratch Rust reproduction of *"RVMA: Remote Virtual Memory Access"*
//! (Grant, Levenhagen, Dosanjh, Widener — Sandia National Laboratories,
//! IPDPS 2021). This crate re-exports the workspace's subsystems:
//!
//! * [`core`] — the paper's contribution: virtual mailboxes, receiver-posted
//!   buffer buckets, threshold-based completion with completion pointers,
//!   epochs, and hardware-style fault-tolerant rewind, plus a real
//!   multi-threaded software endpoint and three transports (inline,
//!   threaded, cross-process shm).
//! * [`sim`] — a deterministic discrete-event simulation engine (the SST-core
//!   substitute).
//! * [`net`] — packet-level network models: fat-tree, 3-D torus, dragonfly
//!   and HyperX topologies with static and adaptive routing.
//! * [`nic`] — simulated RDMA and RVMA NIC models on top of `sim`/`net`.
//! * [`motifs`] — Sweep3D and Halo3D application motifs and the motif runner
//!   used for the paper's Figs. 7 and 8.
//! * [`microbench`] — calibrated Verbs/UCX cost models for Figs. 4–6.
//!
//! See `README.md` for a quickstart (compiled and run as a doctest of this
//! crate) and `EXPERIMENTS.md` for the paper-vs-measured record of every
//! figure.

pub use rvma_core as core;
pub use rvma_microbench as microbench;
pub use rvma_motifs as motifs;
pub use rvma_net as net;
pub use rvma_nic as nic;
pub use rvma_sim as sim;

/// The README's Rust snippets, compiled and run by `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
