//! Cross-transport conformance suite.
//!
//! The [`Transport`] trait promises one contract over three very different
//! wires — the inline lossy fabric (synchronous retries), the threaded
//! wire-worker pool (in-process rings + Dekker parking), and the
//! shared-memory segment (cross-address-space rings + futex doorbells).
//! Every test here is parametrized over all available backends and asserts
//! the *same* observable behaviour:
//!
//! * byte-exact delivery through the full seeded fault matrix;
//! * dedup accounting — duplicated fragments never complete extra epochs;
//! * NACK parity — target refusals surface through `take_nacks` after a
//!   `flush`, whatever the wire;
//! * same-seed telemetry replay identity (lockstep scenarios);
//! * crash-during-quiesce — `flush` terminates and reports the casualty
//!   even when the fault model kills the destination mid-drain;
//! * one closed-link error — every initiator call into a link that is gone
//!   fails `TransportFailed` on both wire backends;
//! * and, for the shm backend, a real fork/exec run: initiator and
//!   receiver in **separate OS processes**, reliability and telemetry
//!   layers unchanged.
//!
//! The shm backend self-skips on platforms without the required mmap/futex
//! primitives (`shm_supported()`), so the suite stays green everywhere.

use std::mem::discriminant;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rvma::core::transport::DeliveryOrder;
use rvma::core::{
    shm_pair, shm_supported, AsyncNetwork, Bytes, EndpointConfig, EventKind, FaultModel,
    FaultStats, LossyNetwork, NackReason, NodeAddr, RvmaEndpoint, RvmaError, ShmClient, Telemetry,
    Threshold, Transport, VirtAddr,
};

const SERVER: NodeAddr = NodeAddr::node(0);
const CLIENT: NodeAddr = NodeAddr::node(1);
const MAILBOX: VirtAddr = VirtAddr(0x10);

/// Fixed replay seeds (the fault_recovery convention, sans env knob —
/// conformance must be bit-stable in CI).
const SEEDS: [u64; 2] = [0xBAD_5EED, 0x7EA5_E77E];

const BACKENDS: [&str; 3] = ["inline-lossy", "threaded", "shm"];

/// The fault models every backend must deliver byte-exact through.
fn fault_matrix() -> Vec<(&'static str, FaultModel)> {
    vec![
        ("none", FaultModel::NONE),
        (
            "drop",
            FaultModel {
                drop_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "dup",
            FaultModel {
                dup_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "delay",
            FaultModel {
                delay_p: 0.10,
                delay_spans: 3,
                ..FaultModel::NONE
            },
        ),
        (
            "drop+dup",
            FaultModel {
                drop_p: 0.05,
                dup_p: 0.05,
                ..FaultModel::NONE
            },
        ),
    ]
}

/// Keeps the backend's network/server half alive for the fixture's life.
enum Holder {
    Inline(Arc<LossyNetwork>),
    Threaded(AsyncNetwork),
    Shm(rvma::core::ShmServer),
}

impl Holder {
    fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        match self {
            Holder::Inline(net) => Some(net.fault_stats()),
            Holder::Threaded(net) => net.fault_stats(),
            Holder::Shm(server) => server.fault_stats(),
        }
    }
}

/// Build one backend: the receiver-side endpoint plus a boxed [`Transport`]
/// for the initiator side. Returns `None` when the backend cannot run on
/// this platform (shm on non-Linux).
fn fixture(
    backend: &str,
    mtu: usize,
    cfg: EndpointConfig,
) -> Option<(Holder, Arc<RvmaEndpoint>, Box<dyn Transport>)> {
    match backend {
        "inline-lossy" => {
            let net = LossyNetwork::with_config(mtu, cfg.fault_model, cfg.fault_seed, cfg);
            let ep = net.add_endpoint(SERVER);
            let t: Box<dyn Transport> = Box::new(net.inline_channel(CLIENT));
            Some((Holder::Inline(net), ep, t))
        }
        "threaded" => {
            let net = AsyncNetwork::for_endpoint_config(
                mtu,
                DeliveryOrder::InOrder,
                Duration::ZERO,
                &cfg,
            );
            let ep = net.add_endpoint(SERVER);
            let t: Box<dyn Transport> = Box::new(net.initiator(CLIENT));
            Some((Holder::Threaded(net), ep, t))
        }
        "shm" => {
            if !shm_supported() {
                eprintln!("conformance: skipping shm backend (unsupported platform)");
                return None;
            }
            let (server, client) = shm_pair(mtu, cfg, CLIENT).expect("shm pair");
            let ep = server.add_endpoint(SERVER);
            Some((Holder::Shm(server), ep, Box::new(client)))
        }
        other => panic!("unknown backend {other}"),
    }
}

fn faulted_cfg(model: FaultModel, seed: u64) -> EndpointConfig {
    EndpointConfig {
        dedup_window: 1 << 15,
        fault_model: model,
        fault_seed: seed,
        ..Default::default()
    }
}

#[test]
fn backend_names_match_fixture() {
    for backend in BACKENDS {
        let Some((_h, _ep, t)) = fixture(backend, 64, faulted_cfg(FaultModel::NONE, 1)) else {
            continue;
        };
        assert_eq!(
            t.backend(),
            if backend == "inline-lossy" {
                "inline-lossy"
            } else {
                backend
            }
        );
    }
}

/// Byte-exact delivery through the fault matrix, lockstep epochs: put,
/// flush (the drain barrier), then the epoch must already be complete.
#[test]
fn byte_exact_delivery_under_fault_matrix() {
    const EPOCHS: usize = 10;
    const LEN: usize = 64;
    for backend in BACKENDS {
        for (fname, model) in fault_matrix() {
            for seed in SEEDS {
                let Some((_h, ep, t)) = fixture(backend, 16, faulted_cfg(model, seed)) else {
                    continue;
                };
                let win = ep
                    .init_window(MAILBOX, Threshold::bytes(LEN as u64))
                    .unwrap();
                for e in 0..EPOCHS {
                    let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
                    let payload: Vec<u8> = (0..LEN)
                        .map(|i| ((e * 31 + i * 7 + 1) % 251) as u8)
                        .collect();
                    t.put(SERVER, MAILBOX, &payload).unwrap_or_else(|err| {
                        panic!("[{backend}/{fname} seed={seed}] epoch {e}: put failed: {err:?}")
                    });
                    t.flush().unwrap_or_else(|err| {
                        panic!("[{backend}/{fname} seed={seed}] epoch {e}: flush failed: {err:?}")
                    });
                    // The flush barrier covered every retransmission: the
                    // epoch is complete *now*, no further waiting allowed.
                    let buf = note.poll().unwrap_or_else(|| {
                        panic!("[{backend}/{fname} seed={seed}] epoch {e}: incomplete after flush")
                    });
                    assert_eq!(
                        buf.data(),
                        payload.as_slice(),
                        "[{backend}/{fname} seed={seed}] epoch {e}: bytes corrupted"
                    );
                }
                assert!(
                    t.take_nacks().is_empty(),
                    "[{backend}/{fname} seed={seed}] spurious NACKs"
                );
                assert_eq!(
                    win.epoch(),
                    EPOCHS as u64,
                    "[{backend}/{fname} seed={seed}]"
                );
            }
        }
    }
}

/// Duplication must never complete extra epochs: the dedup window absorbs
/// the second copy on every backend, so N puts = exactly N op-counted
/// epochs — and the fault stats prove duplicates actually fired.
#[test]
fn dedup_accounting_under_duplication() {
    const EPOCHS: usize = 40;
    let model = FaultModel {
        dup_p: 0.3,
        ..FaultModel::NONE
    };
    for backend in BACKENDS {
        let Some((holder, ep, t)) = fixture(backend, 64, faulted_cfg(model, 0xD0D0)) else {
            continue;
        };
        let win = ep.init_window(MAILBOX, Threshold::ops(1)).unwrap();
        for e in 0..EPOCHS {
            let mut note = win.post_buffer(vec![0u8; 32]).unwrap();
            t.put(SERVER, MAILBOX, &[(e % 251) as u8; 32]).unwrap();
            t.flush().unwrap();
            let buf = note
                .poll()
                .unwrap_or_else(|| panic!("[{backend}] epoch {e} incomplete after flush"));
            assert!(buf.data().iter().all(|&b| b == (e % 251) as u8));
        }
        assert_eq!(
            win.epoch(),
            EPOCHS as u64,
            "[{backend}] duplicates must not advance op-counted epochs"
        );
        let stats = holder.fault_stats().expect("fault model is active");
        assert!(
            stats.duplicated() > 0,
            "[{backend}] dup_p=0.3 over {EPOCHS} ops never fired"
        );
        assert!(t.take_nacks().is_empty(), "[{backend}]");
    }
}

/// Target refusals surface identically everywhere: async NACKs, complete
/// after a flush, with the refused mailbox address and reason.
#[test]
fn nack_parity_across_backends() {
    let unbound = VirtAddr(0x999);
    for backend in BACKENDS {
        let Some((_h, _ep, t)) = fixture(backend, 64, faulted_cfg(FaultModel::NONE, 3)) else {
            continue;
        };
        t.put(SERVER, unbound, &[1, 2, 3]).unwrap();
        t.flush().unwrap();
        let nacks = t.take_nacks();
        assert_eq!(
            nacks,
            vec![(unbound, NackReason::NoSuchMailbox)],
            "[{backend}] refusal must surface as exactly one NoSuchMailbox NACK"
        );
    }
}

/// One lockstep faulted run; returns the canonical (timestamp-free)
/// telemetry sequence of the deterministic recorder for this backend.
///
/// Recorder choice per backend: the inline transport is single-threaded,
/// so its full network-level stream is deterministic. The threaded
/// transport records initiator-side events concurrently with worker-side
/// ones, so only an endpoint-attached recorder (completion lifecycle) is
/// replay-stable. The shm server's recorder covers the whole receiver
/// datapath — Retransmit/WireDeliver/EpochComplete/handoff — because one
/// worker thread records everything and the client holds no recorder.
fn replay_run(backend: &str, seed: u64) -> Option<Vec<(rvma::core::EventKind, u64, u64, u64)>> {
    const EPOCHS: usize = 8;
    // Exactly one fragment per put: with lockstep flushes there is never
    // more than one fragment in flight, so the worker's ring-vs-deferred
    // scheduling (which is timing-dependent for concurrent fragments)
    // cannot reorder the recorded stream between runs.
    const LEN: usize = 16;
    let model = FaultModel {
        drop_p: 0.10,
        dup_p: 0.10,
        ..FaultModel::NONE
    };
    let mut cfg = faulted_cfg(model, seed);
    cfg.telemetry = matches!(backend, "inline-lossy" | "shm");
    let (holder, ep, t) = fixture(backend, 16, cfg)?;
    let recorder: Arc<Telemetry> = match &holder {
        Holder::Inline(net) => net.telemetry().expect("inline telemetry on"),
        Holder::Threaded(_) => {
            let rec = Arc::new(Telemetry::new());
            ep.attach_telemetry(rec.clone());
            rec
        }
        Holder::Shm(server) => server.telemetry().expect("shm telemetry on"),
    };
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(LEN as u64))
        .unwrap();
    for e in 0..EPOCHS {
        let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
        t.put(SERVER, MAILBOX, &[(e + 1) as u8; LEN]).unwrap();
        t.flush().unwrap();
        note.poll().expect("epoch complete after flush");
    }
    let snap = recorder.snapshot();
    assert_eq!(snap.dropped, 0, "[{backend}] replay run overflowed a shard");
    Some(snap.canonical_sequence())
}

/// Same seed ⇒ identical canonical event sequence, run to run, on every
/// backend — the replay-determinism contract extended across the wire.
#[test]
fn same_seed_replay_identity_per_backend() {
    for backend in BACKENDS {
        for seed in SEEDS {
            let Some(a) = replay_run(backend, seed) else {
                continue;
            };
            let b = replay_run(backend, seed).expect("second run of a runnable backend");
            assert!(
                !a.is_empty(),
                "[{backend} seed={seed}] replay scenario recorded nothing"
            );
            assert_eq!(a, b, "[{backend} seed={seed}] same-seed runs diverged");
        }
    }
}

/// Crash-during-quiesce: the fault model kills the destination while
/// retransmissions are still parked. `flush` must terminate (bounded
/// retry budget), and every post-crash fragment must surface as a
/// `NoSuchMailbox` NACK — on the threaded and shm backends alike.
#[test]
fn crash_during_quiesce_terminates_and_reports() {
    const PUTS: usize = 30;
    let model = FaultModel {
        drop_p: 0.2,
        crash_after_frags: Some(10),
        ..FaultModel::NONE
    };
    for backend in ["threaded", "shm"] {
        let Some((_h, ep, t)) = fixture(backend, 64, faulted_cfg(model, 0xC4A5)) else {
            continue;
        };
        // Threshold above the total traffic: the epoch never completes,
        // the test only cares that flush terminates and reports.
        let win = ep.init_window(MAILBOX, Threshold::bytes(4096)).unwrap();
        let _note = win.post_buffer(vec![0u8; 4096]).unwrap();
        let mut rejected = 0usize;
        for i in 0..PUTS {
            match t.put_at(SERVER, MAILBOX, i * 32, &[i as u8; 32]) {
                Ok(()) => {}
                // Once the crash fault has torn the endpoint down, a
                // racing submission can observe the death directly
                // instead of earning a wire NACK — equally honest.
                Err(RvmaError::UnknownDestination) => rejected += 1,
                Err(e) => panic!("[{backend}] unexpected submit error: {e:?}"),
            }
        }
        // The drain barrier must not hang on the dead endpoint: parked
        // retries burn their budget and resolve as NACKs.
        t.flush()
            .unwrap_or_else(|e| panic!("[{backend}] flush hung or failed after crash: {e:?}"));
        let nacks = t.take_nacks();
        assert!(
            !nacks.is_empty() || rejected > 0,
            "[{backend}] post-crash traffic must surface (NACK or submit rejection)"
        );
        assert!(
            nacks
                .iter()
                .all(|(va, r)| *va == MAILBOX && *r == NackReason::NoSuchMailbox),
            "[{backend}] wrong NACK shape: {nacks:?}"
        );
    }
}

/// The link layer is one discipline, not one per backend: the same seed
/// over the same lockstep single-fragment traffic rolls the same dice on
/// the threaded and the shm wire worker, so both report the same fault
/// ledger and the same receiver-side accounting, and neither leaves a
/// retransmission pending behind its final flush.
#[test]
fn link_fault_accounting_matches_across_wire_backends() {
    // Four times `replay_run`'s eight epochs, so both seeds roll faults.
    const EPOCHS: usize = 32;
    const LEN: usize = 16;
    let model = FaultModel {
        drop_p: 0.10,
        dup_p: 0.10,
        ..FaultModel::NONE
    };
    for seed in SEEDS {
        let mut ledgers = Vec::new();
        for backend in ["threaded", "shm"] {
            let Some((holder, ep, t)) = fixture(backend, LEN, faulted_cfg(model, seed)) else {
                continue;
            };
            let win = ep
                .init_window(MAILBOX, Threshold::bytes(LEN as u64))
                .unwrap();
            for e in 0..EPOCHS {
                let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
                t.put(SERVER, MAILBOX, &[(e + 1) as u8; LEN]).unwrap();
                t.flush().unwrap();
                note.poll().expect("epoch complete after flush");
            }
            match &holder {
                Holder::Shm(server) => assert_eq!(server.pending_retries(), 0, "[shm]"),
                // The threaded barrier has no counter to read: it loops
                // until the count is zero, so an idle flush that returns
                // (and rolls no further dice) is the same statement.
                _ => t.flush().unwrap(),
            }
            let f = holder.fault_stats().expect("fault model is active");
            let s = ep.stats();
            assert!(f.transmitted() >= EPOCHS as u64, "[{backend}]");
            let ledger = [
                f.transmitted(),
                f.dropped(),
                f.duplicated(),
                f.deferred(),
                s.fragments_accepted,
                s.duplicates_dropped,
            ];
            println!("[{backend} seed={seed:#x}] tx/drop/dup/defer/accepted/deduped = {ledger:?}");
            ledgers.push(ledger);
        }
        if let [threaded, shm] = ledgers[..] {
            assert_eq!(threaded, shm, "[seed={seed:#x}] threaded vs shm ledger");
        }
    }
}

/// A duplicated fragment is one wire unit however it was submitted: one
/// `WireDeliver` event (and one latency charge) per `Submit`, two endpoint
/// deliveries, the second absorbed by the dedup window.
#[test]
fn duplicated_fragment_is_one_wire_unit() {
    const PUTS: usize = 4;
    const LEN: usize = 16;
    let model = FaultModel {
        dup_p: 1.0,
        ..FaultModel::NONE
    };
    for batched in [false, true] {
        let mut cfg = faulted_cfg(model, 7);
        cfg.telemetry = true;
        let net =
            AsyncNetwork::for_endpoint_config(LEN, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
        let ep = net.add_endpoint(SERVER);
        let client = net.initiator(CLIENT);
        let win = ep
            .init_window(MAILBOX, Threshold::ops(PUTS as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; PUTS * LEN]).unwrap();
        let mut batch = client.batch();
        for k in 0..PUTS {
            let payload = [k as u8 + 1; LEN];
            if batched {
                batch.put_at(SERVER, MAILBOX, k * LEN, &payload).unwrap();
            } else {
                client.put_at(SERVER, MAILBOX, k * LEN, &payload).unwrap();
            }
        }
        batch.flush().unwrap();
        net.quiesce();
        note.poll().expect("four ops complete the epoch");
        let snap = net.telemetry().expect("telemetry on").snapshot();
        assert_eq!(snap.count(EventKind::Submit), PUTS as u64);
        assert_eq!(
            snap.count(EventKind::WireDeliver),
            snap.count(EventKind::Submit),
            "[batched={batched}] one wire unit per put, whatever its copy count"
        );
        assert_eq!(
            ep.stats().duplicates_dropped,
            PUTS as u64,
            "[batched={batched}]"
        );
        assert_eq!(win.epoch(), 1, "[batched={batched}] duplicates count once");
    }
}

/// Async futures and blocking puts coexist over the segment exactly as
/// they do in-process: notified puts resolve with accurate fragment
/// counts while fire-and-forget traffic interleaves on the same rings.
#[test]
fn async_blocking_coexist_on_shm() {
    if !shm_supported() {
        return;
    }
    let (server, client) = shm_pair(16, faulted_cfg(FaultModel::NONE, 5), CLIENT).unwrap();
    let ep = server.add_endpoint(SERVER);
    let win = ep.init_window(MAILBOX, Threshold::bytes(96)).unwrap();
    let mut note = win.post_buffer(vec![0u8; 96]).unwrap();
    // Blocking half fills [0, 32), async halves fill [32, 96).
    client.put_at(SERVER, MAILBOX, 0, &[1u8; 32]).unwrap();
    let f1 = client
        .put_notify_at(SERVER, MAILBOX, 32, &[2u8; 32])
        .unwrap();
    let f2 = client
        .put_notify_at(SERVER, MAILBOX, 64, &[3u8; 32])
        .unwrap();
    let d1 = pollster::block_on(f1);
    let d2 = pollster::block_on(f2);
    assert_eq!(d1.fragments, 2);
    assert_eq!(d2.fragments, 2);
    assert!(!d1.nacked && !d2.nacked);
    let buf = note
        .wait_timeout(Duration::from_secs(10))
        .expect("threshold crossed");
    assert!(buf.data()[..32].iter().all(|&b| b == 1));
    assert!(buf.data()[32..64].iter().all(|&b| b == 2));
    assert!(buf.data()[64..].iter().all(|&b| b == 3));
}

// ---------------------------------------------------------------------------
// Large-message datapath: eager vs zero-copy/rendezvous lanes.
// ---------------------------------------------------------------------------

/// Lane forcing through [`EndpointConfig::eager_threshold`]: `usize::MAX`
/// stages every put (the pre-rendezvous behaviour, the A/B baseline);
/// `0` sends every non-empty put down the zero-copy lane (the shared
/// `Bytes` itself in-process — whole on threaded, per-MTU slices on
/// inline-lossy — and bulk-extent rendezvous over shm).
const LANES: [(&str, usize); 2] = [("eager", usize::MAX), ("zerocopy", 0)];

/// 256 KiB puts through drop/dup/delay faults, byte-exact on every
/// backend and both lanes — the large-message half of the fault matrix.
#[test]
fn large_payload_byte_exact_both_lanes_under_faults() {
    const EPOCHS: usize = 2;
    const LEN: usize = 256 * 1024;
    const MTU: usize = 4096;
    let models = [
        (
            "drop",
            FaultModel {
                drop_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "dup",
            FaultModel {
                dup_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "delay",
            FaultModel {
                delay_p: 0.10,
                delay_spans: 3,
                ..FaultModel::NONE
            },
        ),
    ];
    for backend in BACKENDS {
        for (lane, threshold) in LANES {
            for (fname, model) in models {
                for seed in SEEDS {
                    let mut cfg = faulted_cfg(model, seed);
                    cfg.eager_threshold = threshold;
                    let Some((_h, ep, t)) = fixture(backend, MTU, cfg) else {
                        continue;
                    };
                    let win = ep
                        .init_window(MAILBOX, Threshold::bytes(LEN as u64))
                        .unwrap();
                    for e in 0..EPOCHS {
                        let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
                        let payload: Vec<u8> = (0..LEN)
                            .map(|i| ((e * 131 + i * 7 + 3) % 251) as u8)
                            .collect();
                        t.put_bytes_at(
                            SERVER,
                            MAILBOX,
                            0,
                            rvma::core::Bytes::copy_from_slice(&payload),
                        )
                        .unwrap_or_else(|err| {
                            panic!("[{backend}/{lane}/{fname} seed={seed}] put failed: {err:?}")
                        });
                        t.flush().unwrap_or_else(|err| {
                            panic!("[{backend}/{lane}/{fname} seed={seed}] flush failed: {err:?}")
                        });
                        let buf = note.poll().unwrap_or_else(|| {
                            panic!(
                                "[{backend}/{lane}/{fname} seed={seed}] epoch {e} \
                                 incomplete after flush"
                            )
                        });
                        assert_eq!(
                            buf.data(),
                            payload.as_slice(),
                            "[{backend}/{lane}/{fname} seed={seed}] epoch {e}: bytes corrupted"
                        );
                    }
                    assert!(
                        t.take_nacks().is_empty(),
                        "[{backend}/{lane}/{fname} seed={seed}] spurious NACKs"
                    );
                }
            }
        }
    }
}

/// One lockstep large-payload faulted run on the zero-copy lane; returns
/// the canonical telemetry sequence (recorder choice as in `replay_run`).
fn large_replay_run(
    backend: &str,
    seed: u64,
) -> Option<Vec<(rvma::core::EventKind, u64, u64, u64)>> {
    const EPOCHS: usize = 3;
    const LEN: usize = 64 * 1024;
    let model = FaultModel {
        drop_p: 0.10,
        dup_p: 0.10,
        ..FaultModel::NONE
    };
    let mut cfg = faulted_cfg(model, seed);
    cfg.eager_threshold = 0;
    cfg.telemetry = matches!(backend, "inline-lossy" | "shm");
    let (holder, ep, t) = fixture(backend, 4096, cfg)?;
    let recorder: Arc<Telemetry> = match &holder {
        Holder::Inline(net) => net.telemetry().expect("inline telemetry on"),
        Holder::Threaded(_) => {
            let rec = Arc::new(Telemetry::new());
            ep.attach_telemetry(rec.clone());
            rec
        }
        Holder::Shm(server) => server.telemetry().expect("shm telemetry on"),
    };
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(LEN as u64))
        .unwrap();
    for e in 0..EPOCHS {
        let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
        let payload = vec![(e + 1) as u8; LEN];
        t.put_bytes_at(
            SERVER,
            MAILBOX,
            0,
            rvma::core::Bytes::copy_from_slice(&payload),
        )
        .unwrap();
        t.flush().unwrap();
        note.poll().expect("epoch complete after flush");
    }
    let snap = recorder.snapshot();
    assert_eq!(snap.dropped, 0, "[{backend}] replay run overflowed a shard");
    Some(snap.canonical_sequence())
}

/// Same seed ⇒ identical canonical event stream on the zero-copy lane —
/// rendezvous reserve/deliver/release events included.
#[test]
fn large_payload_same_seed_replay_identity() {
    for backend in BACKENDS {
        for seed in SEEDS {
            let Some(a) = large_replay_run(backend, seed) else {
                continue;
            };
            let b = large_replay_run(backend, seed).expect("second run of a runnable backend");
            assert!(!a.is_empty(), "[{backend} seed={seed}] recorded nothing");
            assert_eq!(
                a, b,
                "[{backend} seed={seed}] same-seed zero-copy runs diverged"
            );
        }
    }
}

/// Copies-per-byte accounting per backend and lane. The receiver gather
/// (`bytes_copied`, equal to accepted bytes) is the one unavoidable copy;
/// `staged_bytes` counts initiator-side staging on top of it:
///
/// * threaded/inline zero-copy: staged = 0  → exactly **1** copy/byte;
/// * threaded/inline eager:     staged = N  → 2 copies/byte;
/// * shm rendezvous: staged = N (extent write), wire = 0 → 2 copies/byte;
/// * shm eager: staged = N (slot write), wire = N (slot → `Bytes`) → 3.
#[test]
fn copies_per_byte_accounting_per_lane() {
    const LEN: usize = 128 * 1024;
    for backend in BACKENDS {
        for (lane, threshold) in LANES {
            let mut cfg = faulted_cfg(FaultModel::NONE, 11);
            cfg.eager_threshold = threshold;
            let Some((holder, ep, t)) = fixture(backend, 4096, cfg) else {
                continue;
            };
            let win = ep
                .init_window(MAILBOX, Threshold::bytes(LEN as u64))
                .unwrap();
            let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
            let payload = rvma::core::Bytes::from(vec![0xCD; LEN]);
            t.put_bytes_at(SERVER, MAILBOX, 0, payload).unwrap();
            t.flush().unwrap();
            note.poll().expect("epoch complete");
            let stats = ep.stats();
            assert_eq!(
                stats.bytes_copied, LEN as u64,
                "[{backend}/{lane}] gather copy must equal accepted bytes"
            );
            let staged = t.staged_bytes();
            let wire = match &holder {
                Holder::Shm(server) => server.wire_copied(),
                _ => 0,
            };
            let copies = (staged + wire + stats.bytes_copied) as f64 / stats.bytes_accepted as f64;
            let expected = match (backend, lane) {
                ("shm", "eager") => 3.0,
                ("shm", "zerocopy") => 2.0,
                (_, "eager") => 2.0,
                (_, "zerocopy") => 1.0,
                _ => unreachable!(),
            };
            assert_eq!(
                copies, expected,
                "[{backend}/{lane}] staged={staged} wire={wire} \
                 gathered={} accepted={}",
                stats.bytes_copied, stats.bytes_accepted
            );
            if lane == "zerocopy" && backend != "shm" {
                assert_eq!(staged, 0, "[{backend}] zero-copy lane staged bytes");
            }
        }
    }
}

/// A rendezvous put is one descriptor and one gather, whatever the MTU.
/// With every non-empty put forced onto the zero-copy lane, a 16×MTU put
/// costs the threaded and shm receivers exactly one LUT lookup and one
/// accepted "fragment" of the full length. The inline-lossy backend
/// deliberately keeps per-MTU slices — per-packet loss recovery is its
/// whole point — so it pays 16 of each for the same bytes.
#[test]
fn rendezvous_put_is_one_gather() {
    const MTU: usize = 64;
    const LEN: usize = 16 * MTU;
    let payload: Vec<u8> = (0..LEN).map(|i| (i % 251 + 1) as u8).collect();
    let cfg = || EndpointConfig {
        eager_threshold: 0,
        ..faulted_cfg(FaultModel::NONE, 31)
    };
    // Post one LEN-byte epoch, run `put`, flush, and check the bytes and
    // what the put cost the receiver.
    let check = |label: &str,
                 ep: &Arc<RvmaEndpoint>,
                 gathers: u64,
                 put: &mut dyn FnMut(rvma::core::Bytes)| {
        let win = ep
            .init_window(MAILBOX, Threshold::bytes(LEN as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
        let before = ep.stats();
        put(rvma::core::Bytes::copy_from_slice(&payload));
        let buf = note
            .poll()
            .unwrap_or_else(|| panic!("[{label}] epoch incomplete after flush"));
        assert_eq!(buf.data(), payload.as_slice(), "[{label}] bytes corrupted");
        let after = ep.stats();
        assert_eq!(
            after.bytes_copied - before.bytes_copied,
            LEN as u64,
            "[{label}]"
        );
        assert_eq!(
            after.fragments_accepted - before.fragments_accepted,
            gathers,
            "[{label}] gathers per put"
        );
        assert_eq!(
            after.lut_hits - before.lut_hits,
            gathers,
            "[{label}] LUT lookups per put"
        );
    };

    for backend in BACKENDS {
        let Some((_h, ep, t)) = fixture(backend, MTU, cfg()) else {
            continue;
        };
        let gathers = if backend == "inline-lossy" { 16 } else { 1 };
        check(backend, &ep, gathers, &mut |data| {
            t.put_bytes_at(SERVER, MAILBOX, 0, data).unwrap();
            t.flush().unwrap();
        });
        if backend != "shm" {
            assert_eq!(t.staged_bytes(), 0, "[{backend}] zero-copy lane staged");
        }
        assert!(t.take_nacks().is_empty(), "[{backend}]");
    }

    // The threaded initiator's notified entry reports the same geometry,
    // and an adaptively-routed network changes nothing: there is no
    // fragment order inside one descriptor to shuffle.
    for order in [
        DeliveryOrder::InOrder,
        DeliveryOrder::OutOfOrder { seed: 7 },
    ] {
        let label = format!("threaded/{order:?}");
        let net = AsyncNetwork::for_endpoint_config(MTU, order, Duration::ZERO, &cfg());
        let ep = net.add_endpoint(SERVER);
        let init = net.initiator(CLIENT);
        check(&label, &ep, 1, &mut |data| {
            let fut = init.put_bytes_notify_at(SERVER, MAILBOX, 0, data).unwrap();
            let done = pollster::block_on(fut);
            assert_eq!(done.fragments, 1, "[{label}] one descriptor per put");
            assert!(!done.nacked, "[{label}]");
        });
        assert_eq!(init.staged_bytes(), 0, "[{label}]");
        assert!(init.take_nacks().is_empty(), "[{label}]");
    }

    // At or below the threshold the notified entry is the eager lane and
    // keeps its per-MTU fragment count.
    let eager = EndpointConfig {
        eager_threshold: LEN,
        ..cfg()
    };
    let net =
        AsyncNetwork::for_endpoint_config(MTU, DeliveryOrder::InOrder, Duration::ZERO, &eager);
    let ep = net.add_endpoint(SERVER);
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(LEN as u64))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; LEN]).unwrap();
    let init = net.initiator(CLIENT);
    let fut = init
        .put_bytes_notify_at(SERVER, MAILBOX, 0, rvma::core::Bytes::from(payload.clone()))
        .unwrap();
    assert_eq!(pollster::block_on(fut).fragments, 16);
    assert_eq!(note.poll().expect("eager epoch").data(), payload.as_slice());
    assert_eq!(ep.stats().fragments_accepted, 16);
    assert_eq!(init.staged_bytes(), LEN as u64);
}

/// The paper's "a duplicate never early-completes epoch N+1" litmus at
/// whole-put granularity: every rendezvous descriptor is delivered twice
/// (`dup_p = 1.0`), the dedup window absorbs the second copy, epoch N
/// completes exactly once and the buffer posted for N+1 stays untouched.
#[test]
fn duplicated_rendezvous_descriptor_completes_one_epoch() {
    const LEN: usize = 1024;
    let model = FaultModel {
        dup_p: 1.0,
        ..FaultModel::NONE
    };
    let cfg = EndpointConfig {
        eager_threshold: 0,
        ..faulted_cfg(model, 0xD0B1)
    };
    let net = AsyncNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
    let ep = net.add_endpoint(SERVER);
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(LEN as u64))
        .unwrap();
    let mut first = win.post_buffer(vec![0u8; LEN]).unwrap();
    let mut next = win.post_buffer(vec![0u8; LEN]).unwrap();
    let init = net.initiator(CLIENT);
    let payload = vec![0xA7u8; LEN];
    let fut = init
        .put_bytes_notify_at(SERVER, MAILBOX, 0, rvma::core::Bytes::from(payload.clone()))
        .unwrap();
    let done = pollster::block_on(fut);
    assert_eq!((done.fragments, done.nacked), (1, false));
    net.quiesce();

    assert_eq!(first.poll().expect("epoch N").data(), payload.as_slice());
    assert_eq!(net.fault_stats().unwrap().duplicated(), 1);
    let stats = ep.stats();
    assert_eq!(stats.duplicates_dropped, 1);
    assert_eq!(stats.fragments_accepted, 1);
    assert_eq!(stats.bytes_copied, LEN as u64);
    assert_eq!(stats.epochs_completed, 1);
    assert_eq!(win.epoch(), 1);
    assert!(next.poll().is_none(), "duplicate completed epoch N+1");
    assert_eq!(win.bytes_in_progress(), 0, "duplicate counted into N+1");
    assert!(init.take_nacks().is_empty());
}

// ---------------------------------------------------------------------------
// Epoch-buffer boundary audit (offset/overhang semantics, len > MTU).
// ---------------------------------------------------------------------------

const BOUND_BUF: usize = 1024;
const BOUND_MTU: usize = 64;

/// Exact fit ending at the last byte of the buffer: every backend and
/// both lanes must deliver byte-exact with zero NACKs.
#[test]
fn boundary_exact_fit_to_buffer_end() {
    const LEN: usize = 3 * BOUND_MTU; // > MTU: exercises fragmentation
    for backend in BACKENDS {
        for (lane, threshold) in LANES {
            let mut cfg = faulted_cfg(FaultModel::NONE, 21);
            cfg.eager_threshold = threshold;
            let Some((_h, ep, t)) = fixture(backend, BOUND_MTU, cfg) else {
                continue;
            };
            let win = ep
                .init_window(MAILBOX, Threshold::bytes(LEN as u64))
                .unwrap();
            let mut note = win.post_buffer(vec![0u8; BOUND_BUF]).unwrap();
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 249 + 1) as u8).collect();
            t.put_bytes_at(
                SERVER,
                MAILBOX,
                BOUND_BUF - LEN,
                rvma::core::Bytes::copy_from_slice(&payload),
            )
            .unwrap();
            t.flush().unwrap();
            let buf = note
                .poll()
                .unwrap_or_else(|| panic!("[{backend}/{lane}] exact-fit epoch incomplete"));
            let full = buf.full_buffer();
            assert_eq!(&full[BOUND_BUF - LEN..], payload.as_slice());
            assert!(
                full[..BOUND_BUF - LEN].iter().all(|&b| b == 0),
                "[{backend}/{lane}] bytes before the put's offset disturbed"
            );
            assert!(t.take_nacks().is_empty(), "[{backend}/{lane}]");
        }
    }
}

/// One-fragment overhang on the **eager** lane: fragments are discarded
/// whole at the boundary, so the in-bounds prefix lands and the
/// overhanging fragment NACKs `OutOfBounds`. (On the zero-copy/rendezvous
/// lane the put may be a single gather, in which case the whole put is
/// refused — covered by `boundary_overhang_zero_copy_refuses`.)
#[test]
fn boundary_one_fragment_overhang_eager() {
    const LEN: usize = 3 * BOUND_MTU;
    const IN_BOUNDS: usize = 2 * BOUND_MTU;
    let offset = BOUND_BUF - IN_BOUNDS;
    for backend in BACKENDS {
        let mut cfg = faulted_cfg(FaultModel::NONE, 22);
        cfg.eager_threshold = usize::MAX;
        let Some((_h, ep, t)) = fixture(backend, BOUND_MTU, cfg) else {
            continue;
        };
        // Threshold = whole buffer so the epoch stays open while the
        // overhang is refused (a smaller threshold would rotate the
        // buffer out from under the trailing fragment → NoBufferPosted).
        let win = ep
            .init_window(MAILBOX, Threshold::bytes(BOUND_BUF as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; BOUND_BUF]).unwrap();
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 247 + 1) as u8).collect();
        t.put_at(SERVER, MAILBOX, offset, &payload).unwrap();
        t.flush().unwrap();
        // NACK count is backend-specific (the inline initiator aborts at
        // the first synchronous refusal; async backends NACK each
        // overhanging fragment) — the contract is "at least one, all
        // OutOfBounds".
        let nacks = t.take_nacks();
        assert!(!nacks.is_empty(), "[{backend}] overhang must NACK");
        assert!(
            nacks
                .iter()
                .all(|(va, r)| *va == MAILBOX && *r == NackReason::OutOfBounds),
            "[{backend}] wrong NACK shape: {nacks:?}"
        );
        // Fill the rest of the buffer with a clean put: the epoch then
        // completes, proving exactly the in-bounds prefix of the faulty
        // put landed (fragments are discarded whole at the boundary).
        let filler: Vec<u8> = (0..offset).map(|i| (i % 13) as u8).collect();
        t.put_at(SERVER, MAILBOX, 0, &filler).unwrap();
        t.flush().unwrap();
        let buf = note
            .poll()
            .unwrap_or_else(|| panic!("[{backend}] filler put never completed the epoch"));
        let full = buf.full_buffer();
        assert_eq!(
            &full[offset..],
            &payload[..IN_BOUNDS],
            "[{backend}] in-bounds fragments corrupted"
        );
        assert_eq!(&full[..offset], filler.as_slice(), "[{backend}] filler");
        assert!(t.take_nacks().is_empty(), "[{backend}] clean put NACKed");
    }
}

/// Fully out-of-bounds puts (starting at `buffer_len - 1` and at exactly
/// `buffer_len`, len > MTU): no byte may land, and the refusal surfaces.
#[test]
fn boundary_out_of_bounds_start_eager() {
    const LEN: usize = 2 * BOUND_MTU;
    for backend in BACKENDS {
        for start in [BOUND_BUF - 1, BOUND_BUF] {
            let mut cfg = faulted_cfg(FaultModel::NONE, 23);
            cfg.eager_threshold = usize::MAX;
            let Some((_h, ep, t)) = fixture(backend, BOUND_MTU, cfg) else {
                continue;
            };
            let win = ep.init_window(MAILBOX, Threshold::bytes(1)).unwrap();
            let mut note = win.post_buffer(vec![0x5Au8; BOUND_BUF]).unwrap();
            t.put_at(SERVER, MAILBOX, start, &[0xFF; LEN]).unwrap();
            t.flush().unwrap();
            let nacks = t.take_nacks();
            assert!(
                !nacks.is_empty(),
                "[{backend} start={start}] OOB put must NACK"
            );
            assert!(
                nacks
                    .iter()
                    .all(|(va, r)| *va == MAILBOX && *r == NackReason::OutOfBounds),
                "[{backend} start={start}] wrong NACK shape: {nacks:?}"
            );
            assert!(
                note.poll().is_none(),
                "[{backend} start={start}] no byte may land, epoch must not complete"
            );
            let stats = ep.stats();
            assert_eq!(
                stats.bytes_accepted, 0,
                "[{backend} start={start}] accepted bytes from an OOB put"
            );
        }
    }
}

/// Overhang on the zero-copy lane: whatever the fragment geometry (MTU
/// slices on inline-lossy, one rendezvous gather on threaded and shm),
/// the overhang is refused with `OutOfBounds` and the put never corrupts
/// bytes past the buffer end.
#[test]
fn boundary_overhang_zero_copy_refuses() {
    const LEN: usize = 3 * BOUND_MTU;
    const IN_BOUNDS: usize = 2 * BOUND_MTU;
    let offset = BOUND_BUF - IN_BOUNDS;
    for backend in BACKENDS {
        let mut cfg = faulted_cfg(FaultModel::NONE, 24);
        cfg.eager_threshold = 0;
        let Some((_h, ep, t)) = fixture(backend, BOUND_MTU, cfg) else {
            continue;
        };
        // Threshold the in-bounds prefix cannot reach — the buffer must
        // still be posted when the overhang arrives, so the refusal is
        // OutOfBounds (not a post-rotation NoBufferPosted).
        let win = ep
            .init_window(MAILBOX, Threshold::bytes(LEN as u64))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; BOUND_BUF]).unwrap();
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 245 + 1) as u8).collect();
        t.put_bytes_at(
            SERVER,
            MAILBOX,
            offset,
            rvma::core::Bytes::copy_from_slice(&payload),
        )
        .unwrap();
        t.flush().unwrap();
        let nacks = t.take_nacks();
        assert!(!nacks.is_empty(), "[{backend}] overhang must NACK");
        assert!(
            nacks
                .iter()
                .all(|(va, r)| *va == MAILBOX && *r == NackReason::OutOfBounds),
            "[{backend}] wrong NACK shape: {nacks:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The real thing: two OS processes, one segment.
// ---------------------------------------------------------------------------

const XPROC_EPOCHS: usize = 3;
const XPROC_LEN: usize = 1000;
const XPROC_ENV: &str = "RVMA_XPROC_SEG";

fn xproc_payload(epoch: usize) -> Vec<u8> {
    (0..XPROC_LEN)
        .map(|i| ((epoch * 97 + i * 13 + 5) % 251) as u8)
        .collect()
}

/// Child role: runs only when the parent re-execs this test binary with
/// `RVMA_XPROC_SEG` set; a normal test run returns immediately. Connects
/// to the parent's segment as a [`ShmClient`] and streams the epochs.
#[test]
fn shm_cross_process_child() {
    let Ok(path) = std::env::var(XPROC_ENV) else {
        return;
    };
    let client = ShmClient::connect(Path::new(&path), CLIENT).expect("child connects");
    for e in 0..XPROC_EPOCHS {
        client
            .put(SERVER, MAILBOX, &xproc_payload(e))
            .expect("child put");
        // Lockstep: the flush ack proves the server consumed the epoch,
        // so the child never overruns the receiver's reposting.
        client.flush().expect("child flush");
    }
    assert!(client.take_nacks().is_empty(), "child saw NACKs");
    // Exercise the NACK path cross-process too.
    client
        .put(SERVER, VirtAddr(0xDEAD), &[9u8; 8])
        .expect("child nack put");
    client.flush().expect("child nack flush");
    let nacks = client.take_nacks();
    assert_eq!(nacks, vec![(VirtAddr(0xDEAD), NackReason::NoSuchMailbox)]);
}

/// Parent role: hosts the [`ShmServer`] (receiver datapath, dedup,
/// telemetry), fork/execs the child test as a **separate OS process**,
/// and verifies byte-exact arrival of every epoch the child streamed in.
#[test]
fn shm_cross_process_delivery() {
    if !shm_supported() {
        eprintln!("conformance: skipping cross-process test (unsupported platform)");
        return;
    }
    let cfg = EndpointConfig {
        dedup_window: 1 << 12,
        telemetry: true,
        ..Default::default()
    };
    let server = rvma::core::ShmServer::create_default(64, cfg).expect("create segment");
    let ep = server.add_endpoint(SERVER);
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(XPROC_LEN as u64))
        .unwrap();

    // Pre-post every epoch's buffer: the child's flush ack can outrun the
    // parent's notification handling, and a put landing between epochs
    // with no buffer posted would NACK `NoBufferPosted`.
    let mut notes: Vec<_> = (0..XPROC_EPOCHS)
        .map(|_| win.post_buffer(vec![0u8; XPROC_LEN]).unwrap())
        .collect();

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "shm_cross_process_child", "--nocapture"])
        .env(XPROC_ENV, server.path())
        .spawn()
        .expect("spawn child process");

    for (e, note) in notes.iter_mut().enumerate() {
        let buf = note
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("epoch {e}: child's put never completed the epoch"));
        assert_eq!(
            buf.data(),
            xproc_payload(e).as_slice(),
            "epoch {e}: cross-process payload corrupted"
        );
    }

    let status = child.wait().expect("child exit status");
    assert!(status.success(), "child process failed: {status:?}");
    // 1000-byte epochs at MTU 64 are 16 wire fragments each.
    assert!(server.delivered() >= XPROC_EPOCHS as u64 * 16);
    // The receiver datapath ran with telemetry unchanged: the recorder
    // saw the child's fragments arrive and the epochs complete.
    let snap = server.telemetry().unwrap().snapshot();
    let counts = snap.canonical_sequence();
    assert!(
        counts
            .iter()
            .any(|(k, _, _, _)| *k == rvma::core::EventKind::EpochComplete),
        "telemetry missed the cross-process epochs"
    );
}

/// Killing the server process's worker (simulated by dropping the server
/// mid-conversation) must fail the client with `TransportFailed`, never a
/// hang — the crash-during-quiesce shape on the cross-process wire.
#[test]
fn shm_server_death_fails_inflight_flush() {
    if !shm_supported() {
        return;
    }
    let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
    let ep = server.add_endpoint(SERVER);
    let win = ep.init_window(MAILBOX, Threshold::ops(1)).unwrap();
    let _n = win.post_buffer(vec![0u8; 64]).unwrap();
    client.put(SERVER, MAILBOX, &[1u8; 64]).unwrap();
    client.flush().unwrap();
    drop(server); // SERVER_GONE published, worker joined
    let err = client.flush();
    assert!(
        matches!(err, Err(RvmaError::TransportFailed(_))),
        "flush against a dead server must error, got {err:?}"
    );
}

/// Every initiator call into a closed link — the threaded network dropped,
/// the shm server stopped — with what it returned, and the NACKs taken
/// afterwards. `None` when the backend cannot run here.
type ClosedRows = Vec<(&'static str, rvma::core::Result<()>)>;

fn calls_after_close(backend: &str) -> Option<(ClosedRows, usize)> {
    let cfg = EndpointConfig::default();
    let large = Bytes::from(vec![3u8; cfg.eager_threshold + 1]);
    match backend {
        "threaded" => {
            let net = AsyncNetwork::new(64, DeliveryOrder::InOrder, Duration::ZERO);
            let _ep = net.add_endpoint(SERVER);
            let init = net.initiator(CLIENT);
            let mut batch = init.batch();
            batch.put(SERVER, MAILBOX, &[1u8; 8]).unwrap();
            drop(net);
            let rows = vec![
                ("put", init.put(SERVER, MAILBOX, &[1u8; 8])),
                (
                    "put_notify",
                    init.put_notify(SERVER, MAILBOX, &[1u8; 8]).map(drop),
                ),
                ("large put", init.put_bytes_at(SERVER, MAILBOX, 0, large)),
                ("flush", init.flush()),
                ("batch flush", batch.flush()),
            ];
            Some((rows, init.take_nacks().len()))
        }
        "shm" => {
            if !shm_supported() {
                return None;
            }
            let (mut server, client) = shm_pair(64, cfg, CLIENT).expect("shm pair");
            let _ep = server.add_endpoint(SERVER);
            server.stop();
            let mut ext = client.reserve_extent(large.len()).expect("bulk lane");
            ext.as_mut_slice().copy_from_slice(&large);
            let rows = vec![
                ("put", client.put(SERVER, MAILBOX, &[1u8; 8])),
                (
                    "put_notify",
                    client.put_notify(SERVER, MAILBOX, &[1u8; 8]).map(drop),
                ),
                (
                    "large put",
                    client.put_from_extent(&ext, SERVER, MAILBOX, 0).map(drop),
                ),
                ("flush", client.flush()),
            ];
            Some((rows, client.take_nacks().len()))
        }
        other => panic!("unknown backend {other}"),
    }
}

/// One closed-link error: a put, a notified put, a large-lane put, a
/// flush and (threaded) a batch flush into a link that is gone all fail
/// `TransportFailed` — the destination is not unknown, the link is — on
/// both wire backends, and none of them leaves a NACK behind.
#[test]
fn closed_link_fails_every_call_alike() {
    let closed = discriminant(&RvmaError::TransportFailed(String::new()));
    for backend in ["threaded", "shm"] {
        let Some((rows, nacks)) = calls_after_close(backend) else {
            continue;
        };
        for (call, result) in rows {
            let err = result.expect_err(call);
            assert_eq!(
                discriminant(&err),
                closed,
                "[{backend}] {call} after close returned {err:?}"
            );
        }
        assert_eq!(nacks, 0, "[{backend}] a refused call left a NACK");
    }
}
