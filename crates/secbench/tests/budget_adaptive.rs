//! Integration tests of the resource-budgeted supervisor and adaptive
//! early stopping.
//!
//! The acceptance contract: a campaign stopped by its wall-clock budget
//! is not an error — it drains, flushes its checkpoint, reports explicit
//! `PARTIAL` cells, and a `--resume` completes it **bitwise-identical**
//! to an uninterrupted run; adaptive early stopping saves trials while
//! producing exactly the verdicts of the exhaustive run, independent of
//! the worker count.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sectlb_model::{enumerate_vulnerabilities, Vulnerability};
use sectlb_secbench::adaptive::SequentialTest;
use sectlb_secbench::checkpoint::Checkpoint;
use sectlb_secbench::iofault::prev_path;
use sectlb_secbench::report::{
    build_table4_resilient_observed_for, table4_cells, trial_cells, DEFENDED_THRESHOLD,
};
use sectlb_secbench::resilience::{
    cells_fingerprint, measure_cells_resilient_observed, run_sharded_resilient_observed,
    CampaignError, CampaignOutcome, CellGap, CellOutcome, ResilientRun, RunPolicy, ShardOutcome,
};
use sectlb_secbench::run::{Measurement, TrialSettings};
use sectlb_secbench::supervisor::{BudgetPolicy, StopReason, EXIT_BUDGET};
use sectlb_secbench::telemetry::Telemetry;
use sectlb_secbench::CheckpointPolicy;
use sectlb_sim::machine::TlbDesign;

fn cells() -> Vec<(Vulnerability, TlbDesign)> {
    let vulns = enumerate_vulnerabilities();
    [vulns[0], vulns[12]]
        .into_iter()
        .flat_map(|v| TlbDesign::ALL.map(|d| (v, d)))
        .collect()
}

fn settings() -> TrialSettings {
    TrialSettings {
        trials: 30,
        ..TrialSettings::default()
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(3).expect("nonzero")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-budget-{}-{name}", std::process::id()));
    p
}

/// Removes a checkpoint and its previous generation (`<path>.prev`) when
/// dropped, so a test leaves neither behind, whether it passes or not.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        std::fs::remove_file(prev_path(&self.0)).ok();
    }
}

fn measure(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
) -> Result<CampaignOutcome, CampaignError> {
    measure_cells_resilient_observed(
        &trial_cells(cells, settings),
        cells_fingerprint(cells, settings),
        settings,
        workers,
        policy,
        &Telemetry::disabled(),
    )
}

fn adaptive(policy: RunPolicy) -> RunPolicy {
    RunPolicy {
        adaptive: Some(SequentialTest {
            alpha: SequentialTest::DEFAULT_ALPHA,
            threshold: DEFENDED_THRESHOLD,
        }),
        ..policy
    }
}

/// The pool over `u64` tasks, doubling each, without telemetry.
fn doubled(tasks: &[u64], policy: &RunPolicy, fingerprint: u64) -> ResilientRun<u64> {
    run_sharded_resilient_observed(
        tasks,
        workers(),
        policy,
        fingerprint,
        &|&t| format!("task {t}"),
        &Telemetry::disabled(),
        |&t| t * 2,
    )
    .expect("budget stops are not errors")
}

fn measurements(outcomes: &[CellOutcome]) -> Vec<Measurement> {
    outcomes
        .iter()
        .map(|c| c.measurement().expect("cell measured"))
        .collect()
}

fn deadline_policy(deadline: Duration, path: &Path) -> RunPolicy {
    RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.to_path_buf(),
            every: 1,
        }),
        budget: BudgetPolicy {
            deadline: Some(deadline),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    }
}

#[test]
fn expired_deadline_reports_partial_cells_then_resume_matches_bitwise() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("deadline-resume");
    let _cleanup = Cleanup(path.clone());
    let reference = measure(&cells, &settings, workers(), &RunPolicy::default())
        .expect("uninterrupted campaign");

    // An already-expired deadline: the supervisor stops the claim loop
    // before any shard runs. This is a graceful stop, not an error.
    let stopped = measure(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::ZERO, &path),
    )
    .expect("budget stop is not an error");
    assert_eq!(stopped.stop, Some(StopReason::DeadlineExpired));
    assert!(path.exists(), "checkpoint flushed on the budget stop");
    for outcome in &stopped.cells {
        match outcome {
            CellOutcome::Partial { partial, gap } => {
                assert_eq!(*gap, CellGap::Stopped(StopReason::DeadlineExpired));
                assert_eq!(partial.trials, 0, "nothing ran under a zero deadline");
            }
            other => panic!("expected every cell Partial, got {other:?}"),
        }
    }

    // Resume without a budget: the completed campaign must be bitwise
    // identical to the uninterrupted reference.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed =
        measure(&cells, &settings, workers(), &resumed_policy).expect("resumed campaign completes");
    assert_eq!(resumed.stop, None);
    assert_eq!(measurements(&resumed.cells), measurements(&reference.cells));
}

#[test]
fn mid_campaign_deadline_still_resumes_bitwise_identical() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("mid-deadline");
    let _cleanup = Cleanup(path.clone());
    let reference = measure(&cells, &settings, workers(), &RunPolicy::default())
        .expect("uninterrupted campaign");

    // A deadline that lands mid-campaign on most machines. How many
    // shards finish is timing-dependent; the invariant under test is
    // that the resumed result is identical no matter where it landed.
    let run = measure(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::from_millis(10), &path),
    )
    .expect("budget stop is not an error");
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = if run.stop.is_some() {
        measure(&cells, &settings, workers(), &resumed_policy).expect("resumed campaign completes")
    } else {
        run // the machine beat the deadline; the run is already complete
    };
    assert_eq!(measurements(&resumed.cells), measurements(&reference.cells));
}

#[test]
fn budget_stopped_table4_renders_partial_markers_and_exits_budget_code() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let policy = RunPolicy {
        budget: BudgetPolicy {
            deadline: Some(Duration::ZERO),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let report = build_table4_resilient_observed_for(
        &TlbDesign::ALL,
        &settings,
        workers(),
        &policy,
        &Telemetry::disabled(),
    )
    .expect("budget stop still renders a report");
    assert_eq!(report.stop, Some(StopReason::DeadlineExpired));
    assert_eq!(report.partial.len(), table4_cells().len());
    assert_eq!(report.exit_code(), EXIT_BUDGET);
    let text = report.render();
    assert!(text.contains("PARTIAL"), "{text}");
    assert!(text.contains("incomplete (PARTIAL/TIMEOUT)"), "{text}");
    assert!(
        text.contains("campaign stopped early: wall-clock deadline expired"),
        "{text}"
    );
}

#[test]
fn resumed_campaigns_deduct_consumed_wall_clock_from_the_deadline() {
    // A prior run already spent two hours of a one-hour budget: the
    // checkpoint records the consumed wall clock, and the resumed
    // campaign must stop before claiming a single shard rather than
    // granting itself a fresh deadline.
    let fingerprint = 0x5eed;
    let tasks = [1u64, 2, 3, 4];
    let path = tmp_path("consumed-deadline");
    let _cleanup = Cleanup(path.clone());
    let mut ck = Checkpoint::new(fingerprint, tasks.len());
    ck.consumed = Duration::from_secs(2 * 3600);
    ck.save(&path).expect("checkpoint saved");

    let policy = RunPolicy {
        resume: Some(path.clone()),
        budget: BudgetPolicy {
            deadline: Some(Duration::from_secs(3600)),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let run = doubled(&tasks, &policy, fingerprint);
    assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
    assert!(
        run.results
            .iter()
            .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::DeadlineExpired))),
        "the exhausted budget must skip every shard"
    );

    // The same checkpoint without a deadline still resumes normally:
    // consumed time only matters when a budget is set.
    let unlimited = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let run = doubled(&tasks, &unlimited, fingerprint);
    assert_eq!(run.stop, None);
    let done: Vec<u64> = run
        .results
        .iter()
        .filter_map(|r| r.done().copied())
        .collect();
    assert_eq!(done, vec![2, 4, 6, 8]);
}

#[test]
fn interrupted_runs_checkpoint_their_consumed_wall_clock() {
    // A zero deadline stops the campaign immediately; the flushed
    // checkpoint must carry the (tiny but real) consumed wall clock so a
    // later resume keeps deducting it.
    let cells = cells();
    let settings = settings();
    let path = tmp_path("consumed-persisted");
    let _cleanup = Cleanup(path.clone());
    let run = measure(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::ZERO, &path),
    )
    .expect("budget stop is not an error");
    assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
    let text = std::fs::read_to_string(&path).expect("checkpoint flushed");
    let ck = Checkpoint::parse_stored(&text).expect("checkpoint parses");
    assert!(
        ck.consumed > Duration::ZERO,
        "the stop path must persist the elapsed wall clock, got {:?}",
        ck.consumed
    );
}

#[test]
fn adaptive_verdicts_match_the_exhaustive_run_and_save_trials() {
    // The golden Table 2 enumeration: all 24 vulnerabilities x 3 designs.
    let cells = table4_cells();
    let settings = TrialSettings {
        trials: 40,
        ..TrialSettings::default()
    };
    let exhaustive =
        measure(&cells, &settings, workers(), &RunPolicy::default()).expect("exhaustive campaign");
    let adaptive = measure(
        &cells,
        &settings,
        workers(),
        &adaptive(RunPolicy::default()),
    )
    .expect("adaptive campaign");
    assert_eq!(adaptive.stop, None);

    let verdicts = |outcomes: &[CellOutcome]| -> Vec<bool> {
        measurements(outcomes)
            .iter()
            .map(|m| m.defends(DEFENDED_THRESHOLD))
            .collect()
    };
    assert_eq!(
        verdicts(&adaptive.cells),
        verdicts(&exhaustive.cells),
        "early stopping must never flip a defended/vulnerable verdict"
    );
    assert!(
        adaptive.stats.trials_saved > 0,
        "the clear-cut cells settle well before 40 trials"
    );
    let saved: u64 = measurements(&adaptive.cells)
        .iter()
        .map(|m| u64::from(settings.trials - m.trials))
        .sum();
    assert_eq!(saved, adaptive.stats.trials_saved);
}

#[test]
fn adaptive_measurements_are_identical_for_every_worker_count() {
    let cells = cells();
    let settings = settings();
    let runs: Vec<Vec<Measurement>> = [1usize, 3, 5]
        .into_iter()
        .map(|w| {
            let run = measure(
                &cells,
                &settings,
                NonZeroUsize::new(w).expect("nonzero"),
                &adaptive(RunPolicy::default()),
            )
            .expect("adaptive campaign");
            measurements(&run.cells)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 3 workers");
    assert_eq!(runs[0], runs[2], "1 vs 5 workers");
}

#[test]
fn adaptive_campaign_respects_the_outer_deadline() {
    let cells = cells();
    let settings = settings();
    let policy = RunPolicy {
        budget: BudgetPolicy {
            deadline: Some(Duration::ZERO),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let run = measure(&cells, &settings, workers(), &adaptive(policy))
        .expect("budget stop is not an error");
    assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
    assert!(
        run.cells
            .iter()
            .all(|c| matches!(c, CellOutcome::Partial { .. })),
        "no rounds ran under a zero deadline"
    );
}

#[test]
fn adaptive_resume_recovers_a_torn_checkpoint_from_the_previous_generation() {
    // Enough trials that most cells take several rounds, so the campaign
    // flushes several checkpoint generations.
    let cells = cells();
    let settings = TrialSettings {
        trials: 100,
        ..TrialSettings::default()
    };
    let path = tmp_path("adaptive-torn");
    let _cleanup = Cleanup(path.clone());
    let reference = measure(
        &cells,
        &settings,
        workers(),
        &adaptive(RunPolicy::default()),
    )
    .expect("uninterrupted adaptive campaign");
    let checkpointed = adaptive(RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 1,
        }),
        ..RunPolicy::default()
    });
    measure(&cells, &settings, workers(), &checkpointed).expect("checkpointed campaign");
    assert!(prev_path(&path).exists(), "a previous generation was kept");

    // Tear the newest generation: only its first half reached the disk.
    let bytes = std::fs::read(&path).expect("checkpoint written");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("checkpoint truncated");
    let resumed = measure(
        &cells,
        &settings,
        workers(),
        &adaptive(RunPolicy {
            resume: Some(path.clone()),
            ..RunPolicy::default()
        }),
    )
    .expect("a torn checkpoint recovers instead of failing the resume");
    assert!(resumed.resumed > 0, "resumed from the previous generation");
    assert_eq!(resumed.stop, None);
    assert_eq!(measurements(&resumed.cells), measurements(&reference.cells));
}
