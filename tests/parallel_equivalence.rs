//! Serial-vs-parallel equivalence of the Table 4 security campaign.
//!
//! The acceptance contract of the campaign engine: running the full
//! campaign on 1, 2, or 4 workers produces measurements field-for-field
//! identical to a serial loop that measures each cell with one
//! `try_run_trial_range` call, because every trial's RFE seed is a pure
//! function of its coordinates and the shard merge is a plain sum.

use std::num::NonZeroUsize;

use secure_tlbs::secbench::report::{build_table4_resilient_observed_for, table4_cells, Table4};
use secure_tlbs::secbench::resilience::RunPolicy;
use secure_tlbs::secbench::run::{try_run_trial_range, Measurement, TrialSettings};
use secure_tlbs::secbench::spec::BenchmarkSpec;
use secure_tlbs::secbench::telemetry::Telemetry;
use secure_tlbs::sim::machine::TlbDesign;

const TRIALS: u32 = 50;

fn settings() -> TrialSettings {
    TrialSettings {
        trials: TRIALS,
        ..TrialSettings::default()
    }
}

fn assert_identical(table: &Table4, serial: &[Measurement], workers: usize) {
    assert_eq!(table.trials, TRIALS, "workers={workers}");
    let cells = table4_cells();
    let measured = table.rows.iter().flat_map(|row| &row.cells);
    assert_eq!(measured.clone().count(), serial.len(), "workers={workers}");
    for (((v, d), cell), reference) in cells.iter().zip(measured).zip(serial) {
        let at = format!("workers={workers}, {v} on {d}");
        assert_eq!(cell.measured.trials, reference.trials, "{at}");
        assert_eq!(cell.measured.n_mapped_miss, reference.n_mapped_miss, "{at}");
        assert_eq!(
            cell.measured.n_not_mapped_miss, reference.n_not_mapped_miss,
            "{at}"
        );
    }
}

#[test]
fn table4_is_bitwise_identical_across_worker_counts() {
    let settings = settings();
    let serial: Vec<Measurement> = table4_cells()
        .iter()
        .map(|(v, d)| {
            let spec = BenchmarkSpec::build_with_config(v, *d, settings.config);
            try_run_trial_range(&spec, *d, &settings, 0..TRIALS, &|b| b).expect("cell sets up")
        })
        .collect();
    assert_eq!(serial.len(), 24 * 3);
    let mut first: Option<Table4> = None;
    for workers in [1usize, 2, 4] {
        let report = build_table4_resilient_observed_for(
            &TlbDesign::ALL,
            &settings,
            NonZeroUsize::new(workers).expect("nonzero"),
            &RunPolicy::default(),
            &Telemetry::disabled(),
        )
        .expect("clean campaign");
        assert_identical(&report.table, &serial, workers);
        assert_eq!(
            report.stats.trials(),
            u64::from(TRIALS) * 24 * 3,
            "every trial accounted for exactly once"
        );
        assert!(
            report.stats.shards() >= 24 * 3,
            "each cell yields >= 1 shard"
        );
        // Belt and braces: whole-structure equality and identical rendering.
        match &first {
            None => first = Some(report.table),
            Some(table) => {
                assert_eq!(&report.table, table, "workers={workers}");
                assert_eq!(report.table.render(), table.render(), "workers={workers}");
            }
        }
    }
}
