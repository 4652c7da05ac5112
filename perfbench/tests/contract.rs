//! The benchmark's own contract: metric names and units, determinism per
//! seed, and equal stratum sizes of the Figure 7 subset for every seed.

use std::collections::{BTreeMap, BTreeSet};

use perfbench::fig7::{self, Fig7Cell};
use perfbench::metrics::{end_to_end, per_layer, render_result, valid_name, Metrics};
use perfbench::replica::{self, GenTimes, SimCounts, StageTimes};
use perfbench::table4::{self, CLASSIC, RF_DURABLE};
use perfbench::{Args, Workload};
use sectlb_bench::perf::Workload as Fig7Workload;
use sectlb_secbench::run::try_run_trial_range;
use sectlb_secbench::spec::BenchmarkSpec;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;
use sectlb_workloads::spec_like::SpecBenchmark;

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_metric_name_is_legal_and_printed_with_its_unit() {
    for catalog in [end_to_end(), per_layer()] {
        let names: BTreeSet<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), catalog.len(), "a metric name repeats");
        let mut m = Metrics::default();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(valid_unit(unit), "illegal unit {unit:?} of {name}");
            m.set(name.clone(), i as f64 + 0.25);
        }
        let line = render_result(true, 3, 0, &catalog, &m).expect("finite values");
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let field = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                i as f64 + 0.25
            );
            assert!(line.contains(&field), "{field} missing from {line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    }
}

#[test]
fn benchmark_json_names_exactly_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    let mut expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    expected.extend(end_to_end().into_iter().map(|(n, _)| n));
    expected.extend(per_layer().into_iter().map(|(n, _)| n));
    assert_eq!(named, expected);
}

#[test]
fn non_finite_values_are_refused() {
    let catalog = end_to_end();
    let mut m = Metrics::default();
    m.set("wall_s", f64::NAN);
    assert!(render_result(true, 1, 0, &catalog, &m).is_err());
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload fig7-perf --seed 7 --seconds 10 --trace 1",
    ))
    .expect("valid arguments");
    assert_eq!(a.workload, Workload::Fig7Perf);
    assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    for bad in [
        "--workload fig7 --seed 7 --seconds 10 --trace 0",
        "--workload fig7-perf --seed -1 --seconds 10 --trace 0",
        "--workload fig7-perf --seed 7 --seconds 0 --trace 0",
        "--workload fig7-perf --seed 7 --seconds 10 --trace 2",
        "--workload fig7-perf --seed 7 --seconds 10",
        "--workload fig7-perf --seed 7 --seed 8 --seconds 10 --trace 0",
        "--workload fig7-perf --seed 7 --seconds 10 --trace 0 --extra 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn same_seed_gives_the_same_cells_and_simulated_counts() {
    assert_eq!(fig7::subset(42), fig7::subset(42));
    for config in [CLASSIC, RF_DURABLE] {
        let a = table4::prepare(config, 42, 2);
        let b = table4::prepare(config, 42, 2);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.instructions(), b.instructions());
        let ra = replica::table4_trials(&a.cells, &a.settings).expect("replica runs");
        let rb = replica::table4_trials(&b.cells, &b.settings).expect("replica runs");
        assert_eq!(ra.counts, rb.counts);
        assert_eq!(ra.measured, rb.measured);
        assert_eq!(ra.counts.instret, a.instructions());
    }
    let cell = Fig7Cell {
        design: TlbDesign::Rf,
        config: TlbConfig::sa(32, 2).expect("valid geometry"),
        workload: Fig7Workload {
            secure: true,
            co_runner: Some(SpecBenchmark::Povray),
        },
        runs: 2,
    };
    let run = || {
        let mut counts = SimCounts::default();
        let values = replica::fig7_cell(
            &cell,
            &mut counts,
            &mut StageTimes::default(),
            &mut GenTimes::default(),
        )
        .expect("cell sets up");
        (values, counts)
    };
    let (first, second) = (run(), run());
    assert_eq!(first, second);
    assert_eq!(first.1.instret, fig7::cell_instret(&cell));
    let alone = Fig7Cell {
        workload: Fig7Workload {
            secure: false,
            co_runner: None,
        },
        ..cell
    };
    let mut counts = SimCounts::default();
    replica::fig7_cell(
        &alone,
        &mut counts,
        &mut StageTimes::default(),
        &mut GenTimes::default(),
    )
    .expect("cell sets up");
    assert_eq!(counts.instret, fig7::cell_instret(&alone));
}

#[test]
fn the_trial_replica_agrees_with_the_engine() {
    let p = table4::prepare(CLASSIC, 9, 3);
    let replica = replica::table4_trials(&p.cells, &p.settings).expect("replica runs");
    for (i, (v, d)) in p.cells.iter().enumerate() {
        let spec = BenchmarkSpec::build_with_config(v, *d, p.settings.config);
        let engine = try_run_trial_range(&spec, *d, &p.settings, 0..3, &|b| b).expect("setup");
        assert_eq!(replica.measured[i], engine, "{v} on {d}");
    }
}

#[test]
fn fig7_subsets_have_equal_strata_for_every_seed() {
    let golden = fig7::parse_golden(fig7::GOLDEN).expect("results/fig7.txt parses");
    // SA shows 7 geometries, SP and RF 6; 30 rows; IPC and MPKI panels.
    assert_eq!(golden.len(), (7 + 6 + 6) * 30 * 2);
    let mut distinct = BTreeSet::new();
    for seed in 0..300 {
        let cells = fig7::subset(seed);
        assert_eq!(cells.len(), 15, "seed {seed}");
        let count = |key: &dyn Fn(&Fig7Cell) -> String| {
            let mut m: BTreeMap<String, usize> = BTreeMap::new();
            for c in &cells {
                *m.entry(key(c)).or_default() += 1;
            }
            m
        };
        let per_design = count(&|c| c.design.to_string());
        let per_co_runner = count(&|c| format!("{:?}", c.workload.co_runner));
        let per_runs = count(&|c| c.runs.to_string());
        assert!(per_design.len() == 3 && per_design.values().all(|&n| n == 5));
        assert!(per_co_runner.len() == 5 && per_co_runner.values().all(|&n| n == 3));
        assert!(per_runs.len() == 3 && per_runs.values().all(|&n| n == 5));
        let entries: BTreeSet<usize> = cells.iter().map(|c| c.config.entries()).collect();
        assert_eq!(entries, BTreeSet::from([1, 32, 128]), "seed {seed}");
        assert!(cells
            .iter()
            .any(|c| c.workload.co_runner.is_none() && !c.workload.secure));
        assert!(cells
            .iter()
            .any(|c| c.workload.co_runner.is_some() && c.workload.secure));
        for c in &cells {
            let key = (
                c.design.name().to_owned(),
                "IPC".to_owned(),
                c.workload.label(),
                c.runs,
                c.config.label(),
            );
            assert!(
                golden.contains_key(&key),
                "seed {seed}: {} not in the figure",
                c.label()
            );
        }
        distinct.insert(format!("{cells:?}"));
    }
    assert!(distinct.len() > 250, "seeds should pick different subsets");
}
