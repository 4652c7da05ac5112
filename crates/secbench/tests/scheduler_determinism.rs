//! Property tests pinning the work-stealing scheduler's core contract:
//! stealing changes *which worker runs a shard and when*, never *what
//! the shard computes* — so the merged campaign output is bitwise
//! independent of the worker count and of any steal schedule the
//! thread timing happens to produce.
//!
//! Steals are forced, not hoped for: every case plants deterministic
//! sleeps on a random subset of tasks (skewing some workers' chunks),
//! and the campaign case additionally injects scheduler-visible stalls
//! through the engine's fault plan. Whatever chaos results, workers ∈
//! {1, 2, 4, 8} must agree byte-for-byte with the serial run.

use std::num::NonZeroUsize;
use std::time::Duration;

use proptest::prelude::*;
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::resilience::{
    measure_cells_resilient_observed, run_sharded_resilient_observed, FaultPlan, RunPolicy,
};
use sectlb_secbench::run::{Measurement, TrialSettings};
use sectlb_secbench::telemetry::Telemetry;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn nonzero(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("worker counts are nonzero")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's pool: per-task results land in task order regardless
    /// of the worker count, even when planted sleeps make fast workers
    /// drain their own deque and steal the slow workers' cold ends.
    #[test]
    fn stolen_shards_produce_the_same_results_as_owned_ones(
        tasks in 1usize..40,
        slow in proptest::collection::vec(any::<u64>(), 0..6),
        salt in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..tasks as u64).collect();
        let slow: Vec<usize> = slow.iter().map(|&i| i as usize % tasks).collect();
        let reference: Vec<u64> = inputs
            .iter()
            .map(|&t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
            .collect();
        for workers in WORKER_COUNTS {
            let slow = slow.clone();
            let run = run_sharded_resilient_observed(
                &inputs,
                nonzero(workers),
                &RunPolicy::default(),
                0,
                &|t| format!("task {t}"),
                &Telemetry::disabled(),
                move |&t| {
                    if slow.contains(&(t as usize)) {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                    t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
                },
            )
            .expect("a clean run");
            let results: Vec<u64> = run.results.iter().filter_map(|r| r.done().copied()).collect();
            prop_assert_eq!(&results, &reference, "{} workers diverged", workers);
            prop_assert_eq!(run.stats.shards(), tasks);
        }
    }

    /// The full campaign engine: measurements for real Table 4 cells are
    /// bitwise identical across worker counts while the fault plan
    /// injects stalls that skew the deques and force steals.
    #[test]
    fn campaign_measurements_are_bitwise_identical_across_worker_counts(
        vuln_index in 0usize..24,
        stall_per_mille in 100u16..=600,
    ) {
        let vulns = enumerate_vulnerabilities();
        let cells: Vec<_> = [vulns[vuln_index], vulns[(vuln_index + 7) % 24]]
            .into_iter()
            .flat_map(|v| sectlb_sim::machine::TlbDesign::ALL.map(|d| (v, d)))
            .collect();
        let settings = TrialSettings {
            trials: 8,
            ..TrialSettings::default()
        };
        let policy = RunPolicy {
            faults: Some(FaultPlan {
                stall_per_mille,
                stall: Duration::from_millis(4),
                ..FaultPlan::default()
            }),
            ..RunPolicy::default()
        };
        let mut reference: Option<Vec<Measurement>> = None;
        for workers in WORKER_COUNTS {
            let run = measure_cells_resilient_observed(
                &cells,
                &settings,
                nonzero(workers),
                &policy,
                &Telemetry::disabled(),
                &|b| b,
            )
            .expect("stalls delay shards but never fail them");
            let measured: Vec<Measurement> = run
                .cells
                .iter()
                .map(|c| c.measurement().expect("every cell measured"))
                .collect();
            match &reference {
                None => reference = Some(measured),
                Some(expected) => {
                    prop_assert_eq!(&measured, expected, "{} workers diverged", workers);
                }
            }
        }
    }
}
