//! The campaign engine restores, it does not rebuild.
//!
//! `try_run_trial_range` builds one post-setup template per shard and runs
//! every unarmed trial on a reseeded clone of it; only trials the shadow
//! oracle arms build a machine of their own. A `customize` hook runs once
//! per machine build, so counting its calls tells the two paths apart
//! exactly, where a throughput floor cannot tell a lost restore path from
//! a slow host.

use std::sync::atomic::{AtomicUsize, Ordering};

use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::oracle::OracleConfig;
use sectlb_secbench::run::{derive_trial_seed, try_run_trial_range, TrialSettings};
use sectlb_secbench::spec::{BenchmarkSpec, Placement};
use sectlb_sim::machine::{MachineBuilder, TlbDesign};

/// Trials per placement in each shard.
const TRIALS: u32 = 5;

/// Machine builds (`customize` calls) one shard of `TRIALS` trials makes.
fn builds_per_shard(design: TlbDesign, oracle: Option<OracleConfig>) -> usize {
    let vulnerability = enumerate_vulnerabilities()[0];
    let settings = TrialSettings {
        trials: TRIALS,
        oracle,
        ..TrialSettings::default()
    };
    let spec = BenchmarkSpec::build_with_config(&vulnerability, design, settings.config);
    let builds = AtomicUsize::new(0);
    let customize = |b: MachineBuilder| {
        builds.fetch_add(1, Ordering::Relaxed);
        b
    };
    let measurement = try_run_trial_range(&spec, design, &settings, 0..TRIALS, &customize)
        .expect("the cell sets up");
    assert_eq!(measurement.trials, TRIALS);
    builds.load(Ordering::Relaxed)
}

#[test]
fn unarmed_trials_restore_the_one_template() {
    for design in TlbDesign::ALL {
        assert_eq!(
            builds_per_shard(design, None),
            1,
            "{design}: an unarmed shard must build its template and nothing else"
        );
    }
}

#[test]
fn every_armed_trial_builds_its_own_machine() {
    let oracle = OracleConfig::default();
    let vulnerability = enumerate_vulnerabilities()[0];
    for design in TlbDesign::ALL {
        let armed = (0..TRIALS)
            .flat_map(|t| [Placement::Mapped, Placement::NotMapped].map(|p| (t, p)))
            .filter(|&(t, p)| {
                let base_seed = TrialSettings::default().base_seed;
                oracle.armed(derive_trial_seed(base_seed, &vulnerability, design, p, t))
            })
            .count();
        // The default configuration arms every trial of both placements.
        assert_eq!(armed, 2 * TRIALS as usize);
        assert_eq!(
            builds_per_shard(design, Some(oracle)),
            1 + armed,
            "{design}: an armed shard builds its template plus one machine per armed trial"
        );
    }
}
