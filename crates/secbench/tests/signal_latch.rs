//! The process-wide graceful-shutdown latch.
//!
//! These tests trip the latch that SIGINT/SIGTERM trip, so they run in a
//! test process of their own: a tripped latch stops every engine run in
//! the process at its next claim. Inside this file a lock serializes
//! them, since each asserts what a shared latch reads.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sectlb_secbench::resilience::{run_sharded_resilient_observed, RunPolicy, ShardOutcome};
use sectlb_secbench::supervisor::{
    reset_interrupt, trip_interrupt, BudgetPolicy, CancelFlag, StopReason, Supervisor,
};
use sectlb_secbench::telemetry::Telemetry;

fn latch() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    reset_interrupt();
    guard
}

#[test]
fn tripped_signal_latch_stops_the_claim_loop() {
    let _latch = latch();
    let tasks: Vec<u64> = (0..20).collect();
    trip_interrupt();
    let run = run_sharded_resilient_observed(
        &tasks,
        NonZeroUsize::new(2).expect("nonzero"),
        &RunPolicy::default(),
        10,
        &|t| format!("t{t}"),
        &Telemetry::disabled(),
        |&t| t,
    )
    .expect("graceful drain");
    reset_interrupt();
    assert_eq!(run.stop, Some(StopReason::Interrupted));
    assert!(!run.is_clean());
    assert!(run
        .results
        .iter()
        .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::Interrupted))));
}

#[test]
fn signal_latch_wins_over_the_deadline() {
    let _latch = latch();
    let s = Supervisor::new(BudgetPolicy {
        deadline: Some(Duration::ZERO),
        cell_deadline: None,
    });
    trip_interrupt();
    assert_eq!(s.should_stop(), Some(StopReason::Interrupted));
    reset_interrupt();
    assert_eq!(s.should_stop(), Some(StopReason::DeadlineExpired));
}

#[test]
fn cancel_flag_stops_only_its_own_run() {
    let _latch = latch();
    let flag = CancelFlag::new();
    let cancellable =
        Supervisor::with_cancel(BudgetPolicy::default(), Duration::ZERO, Some(flag.clone()));
    let bystander = Supervisor::new(BudgetPolicy::default());
    assert_eq!(cancellable.should_stop(), None);
    flag.trip();
    assert_eq!(cancellable.should_stop(), Some(StopReason::Cancelled));
    // The other run in the same process is untouched — this is what
    // distinguishes cancel from the process-global signal latch.
    assert_eq!(bystander.should_stop(), None);
    // Cancellation outranks a latched signal: it is the reason that
    // makes the run terminal instead of merely paused.
    trip_interrupt();
    assert_eq!(cancellable.should_stop(), Some(StopReason::Cancelled));
    reset_interrupt();
    // Equality is identity, not value.
    assert_eq!(flag, flag.clone());
    assert_ne!(flag, CancelFlag::new());
}
