//! Ablation: SP TLB victim/attacker way split.
//!
//! Section 6.4 of the paper: "Assignment of different number of ways for
//! victim and attacker partitions, and its impact on performance could be
//! further explored." This binary sweeps the victim-partition size of an
//! 8-way 32-entry SP TLB and reports (a) whether Prime + Probe stays
//! defended and (b) the MPKI of the SecRSA and co-running workloads.
//!
//! Usage: `ablation_sp_ways [--trials N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! The sweep runs on the campaign engine, one task per victim-way
//! split: the split's Prime + Probe cell through
//! [`try_run_trial_range`] with the split as the cell's builder hook, and
//! its two Figure 7 cells. `--adaptive` is rejected: a task's verdict is
//! not one cell's.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::perf::Workload;
use sectlb_bench::{campaign, cli};
use sectlb_model::{enumerate_vulnerabilities, Strategy};
use sectlb_secbench::oracle;
use sectlb_secbench::run::{try_run_trial_range, TrialSettings};
use sectlb_secbench::spec::BenchmarkSpec;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_workloads::spec_like::SpecBenchmark;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_campaign_flags(&args, &["--trials", "--adaptive"]);
    let trials = cli::trials_flag(&args, 200);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    cli::reject_adaptive(&args, "ablation_sp_ways");
    let config = TlbConfig::security_eval(); // 8 ways, 4 sets
    let pp = *enumerate_vulnerabilities()
        .iter()
        .find(|v| v.strategy == Strategy::PrimeProbe)
        .unwrap_or_else(|| {
            eprintln!("error: vulnerability enumeration has no Prime + Probe row");
            std::process::exit(sectlb_bench::exit::EXIT_SETUP);
        });
    let settings = TrialSettings {
        trials,
        oracle: cli::oracle_flags(&args, &policy, "ablation_sp_ways"),
        ..TrialSettings::default()
    };
    println!("SP TLB victim-way sweep (8-way 32-entry; {trials} trials per placement)\n");
    println!(
        "{:>11} {:>16} {:>14} {:>18}",
        "victim ways", "Prime+Probe C*", "SecRSA MPKI", "SecRSA+povray MPKI"
    );
    let spec = BenchmarkSpec::build_with_config(&pp, TlbDesign::Sp, settings.config);
    let sweep_point = |&victim_ways: &usize| {
        let split = |b: MachineBuilder| b.sp_victim_ways(victim_ways);
        let m = try_run_trial_range(&spec, TlbDesign::Sp, &settings, 0..trials, &split)
            .unwrap_or_else(|e| panic!("{e}"));
        (
            m.capacity(),
            perf_mpki(victim_ways, None),
            perf_mpki(victim_ways, Some(SpecBenchmark::Povray)),
        )
    };
    let mut obs = Observability::from_args("ablation_sp_ways", &args);
    let splits: Vec<usize> = (1..config.ways()).collect();
    obs.campaign_begin();
    let outcome = campaign::run_campaign_observed(
        "ablation_sp_ways",
        [u64::from(trials)],
        &splits,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
        &|&w: &usize| format!("SP TLB with {w} victim way(s)"),
        sweep_point,
    );
    obs.campaign_end();
    for (victim_ways, result) in splits.iter().zip(&outcome.results) {
        match result.done() {
            Some((capacity, alone, co)) => {
                println!("{victim_ways:>11} {capacity:>16.3} {alone:>14.3} {co:>18.3}")
            }
            None => {
                let gap = campaign::gap_marker(std::slice::from_ref(result)).unwrap_or("QUAR");
                println!("{victim_ways:>11} {gap:>16} {gap:>14} {gap:>18}")
            }
        }
    }
    print_reading();
    let summary = oracle::conclude("ablation_sp_ways", Path::new("repro"));
    print_suspects(&summary);
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

/// Every sweep point shares the same design and vulnerability context
/// (only the way split differs), so a violation cannot be pinned to one
/// printed row; it is surfaced as a table footer instead.
fn print_suspects(summary: &oracle::OracleSummary) {
    if summary.is_empty() {
        return;
    }
    println!(
        "\nWARNING: {} SUSPECT trial context(s) (shadow-oracle violation); the sweep above is \
         untrustworthy",
        summary.suspects.len()
    );
}

fn print_reading() {
    println!("\nAny victim allocation defends Prime + Probe (the partitions are");
    println!("disjoint regardless of the split); the split only moves the");
    println!("performance balance between the victim and everything else.");
}

fn perf_mpki(victim_ways: usize, co: Option<SpecBenchmark>) -> f64 {
    let config = TlbConfig::sa(32, 8).unwrap_or_else(|e| {
        eprintln!("error: sweep TLB geometry rejected: {e}");
        std::process::exit(sectlb_bench::exit::EXIT_SETUP);
    });
    // The perf module's builder uses the default 50/50 split; rebuild the
    // cell with the swept split via the run_cell_with hook.
    sectlb_bench::perf::run_cell_with(
        TlbDesign::Sp,
        config,
        Workload {
            secure: true,
            co_runner: co,
        },
        3,
        |b| b.sp_victim_ways(victim_ways),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(sectlb_bench::exit::EXIT_SETUP);
    })
    .mpki
}
