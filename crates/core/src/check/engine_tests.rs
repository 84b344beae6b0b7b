//! Self-tests of the checker engine: exhaustiveness, failure detection
//! (deadlock, livelock, data race), modeled park/futex semantics, and
//! schedule-ID replay/minimization round trips.

use super::*;
use crate::csync::{self, CheckCell};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex};

fn unbounded() -> Options {
    Options {
        preemption_bound: None,
        ..Options::default()
    }
}

#[test]
fn lost_update_outcomes_all_enumerated() {
    // Two threads each perform a non-atomic increment (load; store).
    // Exhaustive enumeration must witness both the lost update (1) and
    // the sequential result (2) — proof we enumerate, not sample.
    let outcomes = Arc::new(StdMutex::new(HashSet::new()));
    let oc = outcomes.clone();
    let report = explore(unbounded(), move || {
        let a = Arc::new(csync::AtomicUsize::new(0));
        let t1 = {
            let a = a.clone();
            spawn(move || {
                let v = a.load(Ordering::SeqCst);
                a.store(v + 1, Ordering::SeqCst);
            })
        };
        let t2 = {
            let a = a.clone();
            spawn(move || {
                let v = a.load(Ordering::SeqCst);
                a.store(v + 1, Ordering::SeqCst);
            })
        };
        t1.join();
        t2.join();
        oc.lock().unwrap().insert(a.load(Ordering::SeqCst));
    })
    .expect("no failure expected");
    assert!(report.complete, "DFS must exhaust the space");
    assert!(report.schedules >= 6, "4 interleavable ops over 2 threads");
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(*outcomes, HashSet::from([1usize, 2usize]));
    println!(
        "lost-update model: {} schedules, outcomes {:?}",
        report.schedules, outcomes
    );
}

#[test]
fn preemption_bound_restricts_space() {
    // Same model, bound 0: no preemptive switches, so each thread's two
    // ops run back-to-back once scheduled — only run-to-completion
    // orders remain and the lost update disappears.
    let outcomes = Arc::new(StdMutex::new(HashSet::new()));
    let oc = outcomes.clone();
    let opts = Options {
        preemption_bound: Some(0),
        ..Options::default()
    };
    let report = explore(opts, move || {
        let a = Arc::new(csync::AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let a = a.clone();
                spawn(move || {
                    let v = a.load(Ordering::SeqCst);
                    a.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        oc.lock().unwrap().insert(a.load(Ordering::SeqCst));
    })
    .expect("no failure expected");
    assert!(report.complete);
    assert_eq!(*outcomes.lock().unwrap(), HashSet::from([2usize]));
}

#[test]
fn abba_deadlock_detected_and_replayable() {
    let model = || {
        let m1 = Arc::new(csync::Mutex::new(0u32));
        let m2 = Arc::new(csync::Mutex::new(0u32));
        let t1 = {
            let (m1, m2) = (m1.clone(), m2.clone());
            spawn(move || {
                let _a = m1.lock();
                let _b = m2.lock();
            })
        };
        let t2 = {
            let (m1, m2) = (m1.clone(), m2.clone());
            spawn(move || {
                let _b = m2.lock();
                let _a = m1.lock();
            })
        };
        t1.join();
        t2.join();
    };
    let failure = explore(unbounded(), model).expect_err("ABBA must deadlock");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    // The reported schedule replays to the same failure…
    let replayed = replay(&failure.schedule, unbounded(), model)
        .expect_err("reported schedule must reproduce");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
    // …and so does the minimized one, with no more switches than the
    // original.
    let min = failure.minimized.as_ref().expect("minimized id present");
    assert!(min.context_switches() <= failure.schedule.context_switches());
    let replayed_min =
        replay(min, unbounded(), model).expect_err("minimized schedule must reproduce");
    assert_eq!(replayed_min.kind, FailureKind::Deadlock);
    println!("deadlock: {failure}");
}

#[test]
fn unsynchronized_cell_write_is_a_data_race() {
    struct Shared {
        cell: CheckCell<u64>,
    }
    // SAFETY (of the test): the model intentionally races; the checker
    // must flag it before any torn value could matter.
    unsafe impl Sync for Shared {}
    unsafe impl Send for Shared {}
    let failure = explore(unbounded(), || {
        let s = Arc::new(Shared {
            cell: CheckCell::new(0),
        });
        let t = {
            let s = s.clone();
            spawn(move || s.cell.with_mut(|p| unsafe { *p = 1 }))
        };
        s.cell.with_mut(|p| unsafe { *p = 2 });
        t.join();
    })
    .expect_err("unsynchronized writes must race");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

#[test]
fn release_acquire_handoff_is_race_free() {
    struct Shared {
        cell: CheckCell<u64>,
        flag: csync::AtomicBool,
    }
    unsafe impl Sync for Shared {}
    unsafe impl Send for Shared {}
    let report = explore(unbounded(), || {
        let s = Arc::new(Shared {
            cell: CheckCell::new(0),
            flag: csync::AtomicBool::new(false),
        });
        let t = {
            let s = s.clone();
            spawn(move || {
                s.cell.with_mut(|p| unsafe { *p = 7 });
                s.flag.store(true, Ordering::Release);
            })
        };
        if s.flag.load(Ordering::Acquire) {
            let v = s.cell.with(|p| unsafe { *p });
            assert_eq!(v, 7);
        }
        t.join();
    })
    .expect("publication via release/acquire is sound");
    assert!(report.complete);
}

#[test]
fn pure_spinner_is_a_livelock() {
    let failure = explore(unbounded(), || {
        let flag = Arc::new(csync::AtomicBool::new(false));
        let f = flag.clone();
        // Detached spinner: nobody ever sets the flag.
        let _ = spawn(move || {
            while !f.load(Ordering::Acquire) {
                csync::spin_loop();
            }
        });
    })
    .expect_err("endless spin with no writer");
    assert_eq!(failure.kind, FailureKind::Livelock);
}

#[test]
fn park_unpark_all_interleavings_terminate() {
    // Whether unpark lands before the park (permit) or after (wake),
    // the parked thread always resumes.
    let report = explore(unbounded(), || {
        let flag = Arc::new(csync::AtomicBool::new(false));
        let f = flag.clone();
        let t = spawn(move || {
            while !f.load(Ordering::Acquire) {
                csync::thread::park();
            }
        });
        flag.store(true, Ordering::Release);
        unpark_model_thread(t.tid());
        t.join();
    })
    .expect("park/unpark handshake always completes");
    assert!(report.complete);
    println!("park/unpark model: {} schedules", report.schedules);
}

/// `csync::thread::park_timeout` under the model, with an hour-long real
/// deadline so only the model's rule can time it out: a permit delivered
/// before the park and an unpark after it both return "not timed out";
/// with no unparker it times out, and only once nothing else can run.
#[test]
fn timed_park_permit_wake_and_timeout() {
    const HOUR: std::time::Duration = std::time::Duration::from_secs(3600);
    // Permit first: the target only parks after the unpark landed.
    explore(unbounded(), || {
        let unparked = Arc::new(csync::AtomicBool::new(false));
        let u = unparked.clone();
        let t = spawn(move || {
            while !u.load(Ordering::Acquire) {
                csync::spin_loop();
            }
            csync::thread::park_timeout(HOUR)
        });
        unpark_model_thread(t.tid());
        unparked.store(true, Ordering::Release);
        assert!(!t.join(), "a pending permit must satisfy the timed park");
    })
    .expect("permit before park");
    // Unpark after (or racing) the park: always a wake, never a timeout.
    explore(unbounded(), || {
        let parking = Arc::new(csync::AtomicBool::new(false));
        let p = parking.clone();
        let t = spawn(move || {
            p.store(true, Ordering::Release);
            csync::thread::park_timeout(HOUR)
        });
        while !parking.load(Ordering::Acquire) {
            csync::spin_loop();
        }
        unpark_model_thread(t.tid());
        assert!(!t.join(), "an unpark must wake the timed park");
    })
    .expect("unpark after park");
    // Nobody unparks: the timeout fires, but only after every other
    // thread's work is done and the main thread is blocked in join.
    let report = explore(unbounded(), || {
        let steps = Arc::new(csync::AtomicUsize::new(0));
        let s = steps.clone();
        let t = spawn(move || {
            let timed_out = csync::thread::park_timeout(HOUR);
            assert!(timed_out, "nothing unparks this thread");
            assert_eq!(
                s.load(Ordering::SeqCst),
                3,
                "timed out while others could run"
            );
        });
        for _ in 0..3 {
            steps.fetch_add(1, Ordering::SeqCst);
        }
        t.join();
    })
    .expect("timeout fires only when nothing else can run");
    assert!(report.complete);
}

#[test]
fn futex_wait_checks_the_word_and_blocks_in_one_step() {
    const HOUR: std::time::Duration = std::time::Duration::from_secs(3600);
    // The waker stores, then wakes; the waiter loops load → wait. A store
    // and wake between the waiter's load and its wait is seen as a changed
    // word, so every interleaving ends.
    let report = explore(unbounded(), || {
        let word = Arc::new(csync::AtomicU32::new(0));
        let w = word.clone();
        let t = spawn(move || {
            while w.load(Ordering::SeqCst) == 0 {
                csync::futex_wait(&w, 0, HOUR);
            }
        });
        word.store(1, Ordering::SeqCst);
        csync::futex_wake(&word, 1);
        t.join();
    })
    .expect("a futex predicate wait is sound");
    assert!(report.complete);
    println!("futex model: {} schedules", report.schedules);
    // Nobody wakes: the bounded wait does not time out under the model,
    // so a lost wake is a deadlock, not a stall.
    let failure = explore(unbounded(), || {
        let word = Arc::new(csync::AtomicU32::new(0));
        let w = word.clone();
        spawn(move || csync::futex_wait(&w, 0, HOUR)).join();
    })
    .expect_err("an unwoken futex wait is reported");
    assert_eq!(failure.kind, FailureKind::Deadlock);
}

#[test]
fn schedule_id_round_trips() {
    let id = ScheduleId::decode("rvc1-0120a").expect("valid id");
    assert_eq!(id.to_string(), "rvc1-0120a");
    assert_eq!(id.context_switches(), 3);
    // Trailing defaults are trimmed.
    let id = ScheduleId::decode("rvc1-100").expect("valid id");
    assert_eq!(id.to_string(), "rvc1-1");
    assert!(ScheduleId::decode("rvc1-xyz").is_none());
    assert!(ScheduleId::decode("bogus").is_none());
    assert_eq!(ScheduleId::decode("rvc1-").unwrap().to_string(), "rvc1-");
}

#[test]
fn randomized_explorer_reports_replayable_failures() {
    // A guaranteed assertion failure: random exploration must find it
    // quickly and the reported schedule must replay deterministically.
    let model = || {
        let a = Arc::new(csync::AtomicUsize::new(0));
        let t = {
            let a = a.clone();
            spawn(move || a.store(1, Ordering::SeqCst))
        };
        let seen = a.load(Ordering::SeqCst);
        t.join();
        assert_eq!(seen, 0, "intentional: fails when the store runs first");
    };
    let failure = explore_random(unbounded(), 0xC0FFEE, 256, model)
        .expect_err("the failing interleaving is half the space");
    assert_eq!(failure.kind, FailureKind::Panic);
    let replayed = replay(&failure.schedule, unbounded(), model).expect_err("must reproduce");
    assert_eq!(replayed.kind, FailureKind::Panic);
}
