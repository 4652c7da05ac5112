//! Acceptance tests of the fault-tolerant campaign engine, through the
//! public facade — the contract the drivers and CI smoke job rely on:
//!
//! 1. a Table 4 campaign killed mid-run and resumed from its checkpoint
//!    is **bitwise identical** to an uninterrupted run (same struct, same
//!    rendered text);
//! 2. injected worker panics either converge after deterministic retry
//!    or end in an explicit quarantine — never a silent abort and never
//!    a silently missing cell;
//! 3. at any worker count the engine measures every cell exactly as a
//!    serial per-cell loop does.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use secure_tlbs::secbench::checkpoint::CheckpointPolicy;
use secure_tlbs::secbench::iofault::prev_path;
use secure_tlbs::secbench::report::{
    build_table4_resilient_observed_for, table4_cells, CampaignReport,
};
use secure_tlbs::secbench::resilience::{CampaignError, FaultPlan, RunPolicy};
use secure_tlbs::secbench::run::{try_run_trial_range, Measurement, TrialSettings};
use secure_tlbs::secbench::spec::BenchmarkSpec;
use secure_tlbs::secbench::telemetry::Telemetry;
use secure_tlbs::sim::machine::TlbDesign;

const TRIALS: u32 = 8;

fn settings() -> TrialSettings {
    TrialSettings {
        trials: TRIALS,
        ..TrialSettings::default()
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(4).expect("nonzero")
}

fn table4(workers: NonZeroUsize, policy: &RunPolicy) -> Result<CampaignReport, CampaignError> {
    build_table4_resilient_observed_for(
        &TlbDesign::ALL,
        &settings(),
        workers,
        policy,
        &Telemetry::disabled(),
    )
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-ft-{}-{name}", std::process::id()));
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

#[test]
fn killed_and_resumed_table4_is_bitwise_identical() {
    let path = tmp_path("table4-kill-resume");
    let _cleanup = Cleanup(path.clone());
    let reference = table4(workers(), &RunPolicy::default()).expect("uninterrupted campaign");
    assert!(reference.quarantined.is_empty());

    // Phase 1: checkpoint every 4 shards, halt after 20 of the 72.
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 4,
        }),
        stop_after: Some(20),
        ..RunPolicy::default()
    };
    let err = table4(workers(), &killed).expect_err("campaign interrupted");
    assert!(matches!(err, CampaignError::Interrupted { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 3);
    assert!(path.exists(), "final checkpoint written on interruption");

    // Phase 2: resume — with a different worker count, which must not
    // affect a single bit of the output.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = table4(NonZeroUsize::new(2).expect("nz"), &resumed_policy)
        .expect("resumed campaign completes");
    assert!(resumed.resumed >= 20, "checkpointed shards were skipped");
    assert_eq!(resumed.table, reference.table, "resume diverged");
    assert_eq!(
        resumed.table.render(),
        reference.table.render(),
        "rendered output diverged"
    );
}

#[test]
fn serial_legacy_path_and_resilient_engine_agree() {
    // The serial reference: each cell measured by one trial-range call.
    let serial: Vec<Measurement> = table4_cells()
        .iter()
        .map(|(v, d)| {
            let spec = BenchmarkSpec::build_with_config(v, *d, settings().config);
            try_run_trial_range(&spec, *d, &settings(), 0..TRIALS, &|b| b).expect("cell sets up")
        })
        .collect();
    for n in [1, 2, 4] {
        let report = table4(NonZeroUsize::new(n).expect("nz"), &RunPolicy::default())
            .expect("clean campaign");
        let engine: Vec<Measurement> = report
            .table
            .rows
            .iter()
            .flat_map(|row| row.cells.iter().map(|c| c.measured))
            .collect();
        assert_eq!(engine, serial, "{n} workers diverged from the serial loop");
        // A clean campaign renders exactly as the plain table does.
        assert_eq!(report.render(), report.table.render());
    }
}

#[test]
fn injected_panics_retry_to_the_clean_table_or_quarantine_explicitly() {
    let reference = table4(workers(), &RunPolicy::default()).expect("clean campaign");

    // Transient faults within the retry budget: must converge bitwise.
    let transient = RunPolicy {
        faults: Some(FaultPlan {
            panic_per_mille: 300,
            panic_attempts: 1,
            ..FaultPlan::default()
        }),
        max_retries: 2,
        ..RunPolicy::default()
    };
    let report = table4(workers(), &transient).expect("transient faults converge");
    assert!(report.stats.retried() > 0, "faults were injected");
    assert!(report.quarantined.is_empty(), "all faults were absorbed");
    assert_eq!(report.table, reference.table);

    // Faults beyond any retry budget: explicit quarantine, never a
    // silent abort — the campaign completes, every cell is accounted
    // for, and the exit code flags the degradation.
    let fatal = RunPolicy {
        faults: Some(FaultPlan {
            fatal_per_mille: 100,
            ..FaultPlan::default()
        }),
        max_retries: 1,
        ..RunPolicy::default()
    };
    let degraded = table4(workers(), &fatal).expect("fatal faults quarantine instead of aborting");
    assert!(
        !degraded.quarantined.is_empty(),
        "something was quarantined"
    );
    assert_eq!(degraded.table.rows.len(), 24, "no row silently dropped");
    assert_eq!(
        degraded.exit_code(),
        secure_tlbs::secbench::EXIT_QUARANTINED
    );
    for q in &degraded.quarantined {
        assert!(
            q.failure.payload.contains("injected permanent fault"),
            "quarantine report carries the panic payload: {}",
            q.failure.payload
        );
        assert!(
            q.failure.task.contains("TLB"),
            "quarantine report names the cell coordinates: {}",
            q.failure.task
        );
    }
    let text = degraded.render();
    assert!(text.contains("QUARANTINED"), "{text}");
}
