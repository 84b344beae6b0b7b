//! Mutation tests: prove the checker *catches* the bug class each
//! protocol ordering exists to prevent.
//!
//! Each seeded [`Mutation`] weakens one ordering in the production code
//! (see `csync::Mutation` for the catalogue) — but only inside an
//! execution whose [`Options::mutations`] lists it. The same model
//! programs that pass exhaustively in [`super::models`] (the clean
//! baselines) are re-explored with one mutation switched on; the
//! exploration must now fail, with the *expected* failure kind, and both
//! the reported schedule and its greedily minimized variant must replay
//! to the same failure — the end-to-end debug loop a real
//! counterexample would go through.

use super::models::{
    cq_spill_episode_model, cq_wait_batch_model, doorbell_heap, doorbell_segment,
    notify_poll_model, notify_wait_model, partition_segment, put_future_countdown_model,
    ring_partition_heap, ring_partition_segment, seqlock_read_vs_publish_model, zero_spin,
};
use super::{explore, replay, Failure, FailureKind, Mutation, Options};

fn with_mutation(mutation: Mutation) -> Options {
    Options {
        mutations: vec![mutation],
        ..Options::default()
    }
}

/// Explore `model` with `mutation` active; the checker must find a
/// counterexample of kind `expect`, and both the reported and minimized
/// schedules must deterministically replay it.
fn expect_caught(name: &str, mutation: Mutation, expect: FailureKind, model: impl Fn()) {
    expect_caught_with(name, with_mutation(mutation), expect, model);
}

/// [`expect_caught`] under explicit options, which list one mutation.
fn expect_caught_with(name: &str, opts: Options, expect: FailureKind, model: impl Fn()) {
    let mutation = opts.mutations[0];
    let failure: Box<Failure> = match explore(opts.clone(), &model) {
        Err(failure) => failure,
        Ok(report) => panic!(
            "{name}: mutation {mutation:?} survived {} exhaustive schedules",
            report.schedules
        ),
    };
    assert_eq!(
        failure.kind, expect,
        "{name}: wrong failure kind for {mutation:?}: {failure:?}"
    );
    println!(
        "{name}: {mutation:?} caught as {:?} after {} schedules; schedule {:?} (minimized {:?})",
        failure.kind, failure.schedules_before, failure.schedule, failure.minimized
    );

    let replayed = replay(&failure.schedule, opts.clone(), &model)
        .expect_err("the reported schedule must reproduce the failure");
    assert_eq!(replayed.kind, expect, "{name}: replay diverged");

    let minimized = failure
        .minimized
        .as_ref()
        .expect("a minimized schedule is always reported");
    let replayed_min = replay(minimized, opts, &model)
        .expect_err("the minimized schedule must still reproduce the failure");
    assert_eq!(
        replayed_min.kind, expect,
        "{name}: minimized replay diverged"
    );
}

/// Completing swap demoted to `Relaxed`: the consumer's acquire on the
/// state flag no longer brings the payload write into view — the vector
/// clocks flag the payload handoff as a data race even though the
/// serialized execution never corrupts it.
#[test]
fn relaxed_completing_swap_is_caught() {
    expect_caught(
        "relaxed_completing_swap",
        Mutation::RelaxedCompletingSwap,
        FailureKind::DataRace,
        notify_poll_model,
    );
}

/// Waker cell drained *before* the completing swap: the classic Dekker
/// inversion. A consumer that registers its parking waker and re-checks
/// the state in the window between the early drain and the swap parks
/// and is never woken — a modeled deadlock.
#[test]
fn waker_drain_before_swap_is_caught() {
    expect_caught(
        "waker_drain_before_swap",
        Mutation::WakerDrainBeforeSwap,
        FailureKind::Deadlock,
        notify_wait_model,
    );
}

/// `PutFuture::poll` without its post-register re-check: a countdown that
/// ends between the first check of `done` and the register wakes an empty
/// cell, and the waiter parks for good — a modeled deadlock, the lost
/// wake a flush riding the countdown would hang on.
#[test]
fn put_future_skip_recheck_is_caught() {
    expect_caught(
        "put_future_skip_recheck",
        Mutation::PutFutureSkipRecheck,
        FailureKind::Deadlock,
        put_future_countdown_model,
    );
}

/// Ring slot sequence published with `Relaxed`: the consumer can observe
/// the "ready" sequence without the slot payload being ordered before
/// it — a data race on the slot cell.
#[test]
fn ring_publish_relaxed_is_caught() {
    expect_caught(
        "ring_publish_relaxed",
        Mutation::RingPublishRelaxed,
        FailureKind::DataRace,
        ring_partition_heap,
    );
}

/// The same weakening caught on segment storage: the one protocol runs
/// on both.
#[test]
fn ring_publish_relaxed_is_caught_in_segment() {
    if let Some(seg) = partition_segment() {
        expect_caught(
            "ring_publish_relaxed_segment",
            Mutation::RingPublishRelaxed,
            FailureKind::DataRace,
            || ring_partition_segment(&seg),
        );
    }
}

/// Seqlock write lock skipped: a reader interleaved mid-publish sees a
/// torn route — new key fields validated against the stale queue — and
/// the model's wrong-queue assertion fires.
#[test]
fn seqlock_torn_publish_is_caught() {
    expect_caught(
        "seqlock_torn_publish",
        Mutation::SeqlockTornPublish,
        FailureKind::Panic,
        seqlock_read_vs_publish_model,
    );
}

/// Overflow-episode check skipped on push: a late completion can land in
/// the ring and be polled ahead of an entry already sitting in the spill
/// queue — the PR-8 FIFO regression, rediscovered by enumeration.
#[test]
fn cq_spill_bypass_is_caught() {
    expect_caught(
        "cq_spill_bypass",
        Mutation::CqSpillBypass,
        FailureKind::Panic,
        cq_spill_episode_model,
    );
}

/// Closed flag tested apart from the claim CAS (the order before close
/// became the linearisation point): a producer that passed the test
/// claims a slot after the consumer closed and drained to its final
/// index, so an `Ok` push is never popped and the model's exactly-once
/// assertion fires.
#[test]
fn ring_closed_apart_from_claim_is_caught() {
    expect_caught(
        "ring_closed_apart_from_claim",
        Mutation::RingClosedApartFromClaim,
        FailureKind::Panic,
        ring_partition_heap,
    );
}

/// The same weakening caught on segment storage, where it would strand
/// a put behind `ShmServer::stop`'s drain.
#[test]
fn ring_closed_apart_from_claim_is_caught_in_segment() {
    if let Some(seg) = partition_segment() {
        expect_caught(
            "ring_closed_apart_from_claim_segment",
            Mutation::RingClosedApartFromClaim,
            FailureKind::Panic,
            || ring_partition_segment(&seg),
        );
    }
}

/// The sleeper re-checks before it advertises: a publish between the two
/// loads `waiters == 0` and rings nobody, and the sleeper waits on a word
/// nothing will change — a lost wake, caught as a `Deadlock` because the
/// model's futex wait never times out.
#[test]
fn doorbell_recheck_first_is_caught() {
    expect_caught(
        "doorbell_recheck_first",
        Mutation::DoorbellRecheckFirst,
        FailureKind::Deadlock,
        doorbell_heap,
    );
}

/// The same lost wake on segment storage: the shm server's and pump's
/// sleep.
#[test]
fn doorbell_recheck_first_is_caught_in_segment() {
    if let Some(seg) = partition_segment() {
        expect_caught(
            "doorbell_recheck_first_segment",
            Mutation::DoorbellRecheckFirst,
            FailureKind::Deadlock,
            || doorbell_segment(&seg),
        );
    }
}

/// The producer wakes without bumping `seq`: a sleeper between its
/// re-check and its futex wait still finds the word it read and sleeps
/// through the wake — a `Deadlock`.
#[test]
fn doorbell_without_bump_is_caught() {
    expect_caught(
        "doorbell_without_bump",
        Mutation::DoorbellWithoutBump,
        FailureKind::Deadlock,
        doorbell_heap,
    );
}

/// The same lost wake on segment storage.
#[test]
fn doorbell_without_bump_is_caught_in_segment() {
    if let Some(seg) = partition_segment() {
        expect_caught(
            "doorbell_without_bump_segment",
            Mutation::DoorbellWithoutBump,
            FailureKind::Deadlock,
            || doorbell_segment(&seg),
        );
    }
}

/// The CQ's own sleep: `wait_batch` on the ready ring's doorbell, with the
/// spin modeled away (see `zero_spin`), re-checking before it advertises.
#[test]
fn doorbell_recheck_first_is_caught_in_wait_batch() {
    expect_caught_with(
        "doorbell_recheck_first_wait_batch",
        Options {
            mutations: vec![Mutation::DoorbellRecheckFirst],
            ..zero_spin()
        },
        FailureKind::Deadlock,
        cq_wait_batch_model,
    );
}

/// The CQ's own sleep, woken by a push that does not bump `seq`.
#[test]
fn doorbell_without_bump_is_caught_in_wait_batch() {
    expect_caught_with(
        "doorbell_without_bump_wait_batch",
        Options {
            mutations: vec![Mutation::DoorbellWithoutBump],
            ..zero_spin()
        },
        FailureKind::Deadlock,
        cq_wait_batch_model,
    );
}
