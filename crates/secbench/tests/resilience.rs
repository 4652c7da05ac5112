//! Integration tests of the campaign engine.
//!
//! The acceptance contract: at any worker count the engine measures
//! every cell exactly as a serial per-cell loop does; a campaign that is
//! killed mid-run and resumed from its checkpoint produces
//! **bitwise-identical** results to an uninterrupted run; injected panics
//! converge to the clean results after deterministic retry; shards that
//! keep failing are quarantined with their coordinates and never silently
//! dropped.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use sectlb_model::{enumerate_vulnerabilities, Vulnerability};
use sectlb_secbench::report::{
    build_table4, build_table4_resilient_observed_for, table4_cells, trial_cells, CampaignReport,
};
use sectlb_secbench::resilience::{
    cells_fingerprint, measure_cells_resilient_observed, run_sharded_resilient_observed,
    CampaignError, CampaignOutcome, CellOutcome, FaultPlan, RunPolicy,
};
use sectlb_secbench::run::{try_run_trial_range, Hook, Measurement, TrialCell, TrialSettings};
use sectlb_secbench::spec::BenchmarkSpec;
use sectlb_secbench::telemetry::Telemetry;
use sectlb_secbench::CheckpointPolicy;
use sectlb_sim::machine::TlbDesign;
use sectlb_sim::os::FlushPolicy;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::RandomFillEviction;

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
    p.push(format!("sectlb-resilience-{}-{name}", std::process::id()));
    p
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

fn table4(settings: &TrialSettings, policy: &RunPolicy) -> Result<CampaignReport, CampaignError> {
    build_table4_resilient_observed_for(
        &TlbDesign::ALL,
        settings,
        workers(),
        policy,
        &Telemetry::disabled(),
    )
}

/// The reference: each cell measured serially by one trial-range call.
fn serial(cells: &[(Vulnerability, TlbDesign)], settings: &TrialSettings) -> Vec<Measurement> {
    cells
        .iter()
        .map(|(v, d)| {
            let spec = BenchmarkSpec::build_with_config(v, *d, settings.config);
            try_run_trial_range(&spec, *d, settings, 0..settings.trials, &|b| b)
                .expect("cell sets up")
        })
        .collect()
}

fn measurements(outcomes: &[CellOutcome]) -> Vec<Measurement> {
    outcomes
        .iter()
        .map(|c| c.measurement().expect("cell measured"))
        .collect()
}

/// The test cells of [`cells`] without a hook, followed by survey cells
/// with one: the §2.3 FA 32 TLB flushed on every context switch, and the
/// RF ablation's LRU-way eviction, on each test vulnerability.
fn hooked_cells(settings: &TrialSettings) -> Vec<(BenchmarkSpec, TlbDesign, Hook<'static>)> {
    let spec = |v: &Vulnerability, d, config| BenchmarkSpec::build_with_config(v, d, config);
    let none: Hook = &|b| b;
    let flush: Hook = &|b| b.flush_policy(FlushPolicy::FlushOnSwitch);
    let lru_way: Hook = &|b| b.rf_eviction(RandomFillEviction::LruWay);
    let fa32 = TlbConfig::fa(32).expect("valid geometry");
    let mut out: Vec<_> = cells()
        .iter()
        .map(|(v, d)| (spec(v, *d, settings.config), *d, none))
        .collect();
    let vulns = enumerate_vulnerabilities();
    for v in [vulns[0], vulns[12]] {
        out.push((spec(&v, TlbDesign::Sa, fa32), TlbDesign::Sa, flush));
        out.push((
            spec(&v, TlbDesign::Rf, settings.config),
            TlbDesign::Rf,
            lru_way,
        ));
    }
    out
}

#[test]
fn engine_matches_a_serial_per_cell_loop_at_every_worker_count() {
    let settings = settings();
    let inputs = hooked_cells(&settings);
    let serial = |hooked: bool| -> Vec<Measurement> {
        inputs
            .iter()
            .map(|(spec, d, hook)| {
                let hook = if hooked { *hook } else { &|b| b };
                try_run_trial_range(spec, *d, &settings, 0..settings.trials, hook)
                    .expect("cell sets up")
            })
            .collect()
    };
    let reference = serial(true);
    // The hooks matter: dropping them moves some survey cell.
    assert_ne!(reference, serial(false), "the survey hooks change no cell");
    let cells: Vec<TrialCell> = inputs
        .iter()
        .map(|(spec, d, hook)| TrialCell::new(spec, *d, settings.base_seed, *hook))
        .collect();
    for n in [1, 2, 4] {
        let w = NonZeroUsize::new(n).expect("nonzero");
        let run = measure_cells_resilient_observed(
            &cells,
            0,
            &settings,
            w,
            &RunPolicy::default(),
            &Telemetry::disabled(),
        )
        .expect("clean campaign");
        assert_eq!(measurements(&run.cells), reference, "{n} workers");
        assert_eq!(run.stats.quarantined, 0);
        assert_eq!(run.resumed, 0);
        assert_eq!(
            run.stats.trials(),
            u64::from(settings.trials) * cells.len() as u64
        );
    }
}

#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("kill-resume");
    let reference = measure(&cells, &settings, workers(), &RunPolicy::default())
        .expect("uninterrupted campaign");

    // Deterministic "kill -9": halt after 5 completed shards, with the
    // checkpoint keeping progress crash-safe.
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 2,
        }),
        stop_after: Some(5),
        ..RunPolicy::default()
    };
    let err = measure(&cells, &settings, workers(), &killed).expect_err("interrupted");
    match &err {
        CampaignError::Interrupted {
            completed,
            total,
            checkpoint,
        } => {
            assert!(*completed >= 5, "at least the kill threshold completed");
            assert!(completed < total, "the campaign did not finish");
            assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);

    // Resume from the checkpoint; the merged campaign must be bitwise
    // identical to the uninterrupted reference.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed =
        measure(&cells, &settings, workers(), &resumed_policy).expect("resumed campaign completes");
    assert!(resumed.resumed >= 5, "checkpointed shards were skipped");
    assert_eq!(measurements(&resumed.cells), measurements(&reference.cells));
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_kills_then_resume_still_converge() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("double-kill");
    let reference = measure(&cells, &settings, workers(), &RunPolicy::default())
        .expect("uninterrupted campaign");

    // Two successive kills, each resuming the previous checkpoint; a
    // different worker count per phase, which must not matter.
    let mut resume: Option<PathBuf> = None;
    for (kill_after, phase_workers) in [(3, 1), (4, 4)] {
        let policy = RunPolicy {
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every: 1,
            }),
            resume: resume.clone(),
            stop_after: Some(kill_after),
            ..RunPolicy::default()
        };
        let w = NonZeroUsize::new(phase_workers).expect("nonzero");
        measure(&cells, &settings, w, &policy).expect_err("phase interrupted");
        resume = Some(path.clone());
    }
    let final_policy = RunPolicy {
        resume: resume.clone(),
        ..RunPolicy::default()
    };
    let finished =
        measure(&cells, &settings, workers(), &final_policy).expect("final phase completes");
    assert!(finished.resumed >= 3);
    assert_eq!(
        measurements(&finished.cells),
        measurements(&reference.cells)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_checkpoint_from_different_settings_is_rejected() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("mismatch");
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy::new(path.clone())),
        stop_after: Some(2),
        ..RunPolicy::default()
    };
    measure(&cells, &settings, workers(), &killed).expect_err("interrupted");

    // Same cells, different base seed: the fingerprint must not match.
    let other_settings = TrialSettings {
        base_seed: settings.base_seed ^ 0xff,
        ..settings
    };
    let resume = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let err = measure(&cells, &other_settings, workers(), &resume)
        .expect_err("stale checkpoint rejected");
    assert!(matches!(&err, CampaignError::Checkpoint(_)), "got {err:?}");
    assert_eq!(err.exit_code(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_transient_panics_converge_after_retry() {
    let cells = cells();
    let settings = settings();
    let reference =
        measure(&cells, &settings, workers(), &RunPolicy::default()).expect("clean campaign");
    let faulty = RunPolicy {
        faults: Some(FaultPlan {
            panic_per_mille: 400,
            panic_attempts: 2,
            ..FaultPlan::default()
        }),
        max_retries: 3,
        ..RunPolicy::default()
    };
    let run = measure(&cells, &settings, workers(), &faulty).expect("faulty campaign converges");
    assert!(run.stats.retried() > 0, "faults were actually injected");
    assert_eq!(run.stats.quarantined, 0, "retries absorbed every fault");
    assert_eq!(measurements(&run.cells), measurements(&reference.cells));
}

#[test]
fn permanent_faults_quarantine_cells_and_never_silently_drop_one() {
    let cells = cells();
    let settings = settings();
    // Half the shards fail permanently. The plan is deterministic, so
    // this pins concrete quarantined shards for the 12 shards of this
    // campaign (the default fault seed's rolls happen to sit high for
    // the first dozen indices — 40% would hit nothing).
    let plan = FaultPlan {
        fatal_per_mille: 500,
        ..FaultPlan::default()
    };
    let policy = RunPolicy {
        faults: Some(plan),
        max_retries: 1,
        ..RunPolicy::default()
    };
    let run = measure(&cells, &settings, workers(), &policy)
        .expect("campaign completes despite permanent faults");
    // Every input cell is accounted for — measured or explicitly
    // quarantined with coordinates; quarantine is never a silent gap.
    assert_eq!(run.cells.len(), cells.len());
    let quarantined: Vec<_> = run
        .cells
        .iter()
        .zip(&cells)
        .filter_map(|(outcome, (v, d))| match outcome {
            CellOutcome::Quarantined { failure, .. } => Some((v, d, failure)),
            // No budget is configured, so Partial cannot appear.
            _ => None,
        })
        .collect();
    assert!(
        !quarantined.is_empty(),
        "a 50% fatal rate should hit at least one of the shards"
    );
    assert!(run.stats.quarantined > 0);
    for (v, d, failure) in &quarantined {
        assert!(failure.payload.contains("injected permanent fault"));
        assert!(
            failure.task.contains(&v.to_string()) && failure.task.contains(&d.to_string()),
            "quarantine report names the cell: {}",
            failure.task
        );
        assert_eq!(failure.attempts, 2, "one attempt + one retry");
    }
}

#[test]
fn a_killed_worker_is_detected_and_its_shard_reclaimed_bitwise_identically() {
    let cells = cells();
    let settings = settings();
    let reference =
        measure(&cells, &settings, workers(), &RunPolicy::default()).expect("undisturbed campaign");

    // Worker 1's claim loop dies right after claiming its third shard
    // (`--inject-worker-death 1:2`): the shard is claimed but never
    // delivered. The supervision monitor must notice the death, reclaim
    // the abandoned shard onto a survivor's deque, and finish with output
    // bitwise identical to the undisturbed run.
    let policy = RunPolicy {
        faults: Some(FaultPlan {
            worker_death: Some((1, 2)),
            ..FaultPlan::default()
        }),
        ..RunPolicy::default()
    };
    let run = measure(&cells, &settings, workers(), &policy)
        .expect("campaign completes despite the dead worker");
    assert_eq!(run.stats.deaths, 1, "exactly one worker died");
    assert_eq!(run.stats.reclaimed, 1, "its abandoned shard was reclaimed");
    assert_eq!(run.stats.quarantined, 0, "reclamation is not quarantine");
    assert!(
        run.stats.render().contains("supervision: 1 workers died"),
        "{}",
        run.stats.render()
    );
    assert_eq!(measurements(&run.cells), measurements(&reference.cells));
}

#[test]
fn checkpoint_saves_keep_up_with_fast_workers() {
    // 4,000 instant tasks on two workers, saving after every result. A
    // save rewrites the whole file, so the collector records every result
    // already queued before it decides on one; saving per result made
    // 4,001 saves here, and a drain waited for all of them.
    let tasks: Vec<u64> = (0..4000).collect();
    let (path, events) = (tmp_path("cadence-ck"), tmp_path("cadence-events"));
    let telemetry = Telemetry::to_path("cadence", &events).expect("event file");
    let policy = RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 1,
        }),
        ..RunPolicy::default()
    };
    let run = run_sharded_resilient_observed(
        &tasks,
        NonZeroUsize::new(2).expect("nonzero"),
        &policy,
        0xcade,
        &|&t| format!("task {t}"),
        &telemetry,
        |&t| t * 3,
    )
    .expect("runs to completion");
    telemetry.flush();
    assert_eq!(run.results.len(), tasks.len());
    let stream = std::fs::read_to_string(&events).expect("event stream");
    let saves = stream
        .lines()
        .filter(|l| l.contains("\"checkpoint_flush\""))
        .count();
    assert!(saves >= 1, "the final save happened");
    assert!(saves < 400, "{saves} saves for {} results", tasks.len());
    for p in [&path, &events] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(path.with_extension("prev")).ok();
}

#[test]
fn table4_report_matches_a_serial_per_cell_loop() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let report = table4(&settings, &RunPolicy::default()).expect("clean campaign");
    let engine: Vec<Measurement> = report
        .table
        .rows
        .iter()
        .flat_map(|row| row.cells.iter().map(|c| c.measured))
        .collect();
    assert_eq!(engine, serial(&table4_cells(), &settings));
    assert!(report.quarantined.is_empty());
    assert_eq!(report.exit_code(), 0);
    // The convenience builder assembles the same table, and a clean
    // report renders byte-identically through the marking path.
    assert_eq!(report.table, build_table4(&settings));
    assert_eq!(report.render(), report.table.render());
}

#[test]
fn quarantined_cells_render_as_quarantined_not_as_numbers() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let policy = RunPolicy {
        faults: Some(FaultPlan {
            fatal_per_mille: 60,
            ..FaultPlan::default()
        }),
        max_retries: 0,
        ..RunPolicy::default()
    };
    let report = table4(&settings, &policy).expect("campaign completes");
    assert!(
        !report.quarantined.is_empty(),
        "a 6% fatal rate over 72 shards should quarantine something"
    );
    let text = report.render();
    assert_eq!(
        text.matches("QUARANTINED").count(),
        // One masked table cell per quarantined cell (the detail lines
        // use the failure's own lowercase wording).
        report.quarantined.len(),
        "{text}"
    );
    assert!(text.contains("quarantined cell ["), "{text}");
    assert!(text.contains("quarantined and excluded"), "{text}");
    assert_eq!(report.exit_code(), sectlb_secbench::EXIT_QUARANTINED);
}
