//! Ablation: is the random-fill eviction choice load-bearing?
//!
//! The paper's Section 5.3.1 probabilities imply random fills displace a
//! uniformly random way of their target set. A seemingly equivalent
//! implementation that evicts the set's *LRU* way instead re-correlates
//! eviction with the victim's access recency — and reopens a channel.
//! This binary measures the channel capacity of every Table 2 row on the
//! RF TLB under both policies.
//!
//! Usage: `ablation_rf [--trials N] [--adaptive[=ALPHA]] [--workers
//! N|auto] [--checkpoint PATH] [--resume PATH] [--retries N]
//! [--kill-after N] [--inject-* ...] [--events PATH] [--metrics PATH]`
//!
//! The 24×2 sweep runs on the campaign engine's cells layer, one cell per
//! vulnerability and eviction. `--adaptive` stops each cell's trials as
//! soon as its leak verdict is statistically settled (the printed C*
//! then reflects the settled prefix), which never flips a verdict.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::oracle;
use sectlb_secbench::resilience::CellOutcome;
use sectlb_secbench::run::{Hook, TrialCell, TrialSettings};
use sectlb_secbench::spec::BenchmarkSpec;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::RandomFillEviction;

/// The leak criterion: a cell leaks at C* above this.
const THRESHOLD: f64 = 0.05;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workers = cli::workers_flag(&args);
    let mut policy = cli::campaign_flags(&args);
    // The sequential test settles against the leak criterion, so it
    // preserves every printed verdict.
    policy.adaptive = cli::adaptive_flags(&args, THRESHOLD);
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, 300),
        oracle: cli::oracle_flags(&args, &policy, "ablation_rf"),
        ..TrialSettings::default()
    };
    let mut obs = Observability::from_args("ablation_rf", &args);
    println!(
        "RF TLB random-fill eviction ablation ({} trials per placement)\n",
        settings.trials
    );
    println!(
        "{:<48} {:>12} {:>12}",
        "vulnerability", "C* random-way", "C* LRU-way"
    );
    let vulns = enumerate_vulnerabilities();
    let lru_way: Hook = &|b| b.rf_eviction(RandomFillEviction::LruWay);
    // Both evictions of each row, in print order; the cells share the
    // row's trial seeds, as the two columns always have.
    let cells: Vec<TrialCell> = vulns
        .iter()
        .flat_map(|v| {
            let spec = BenchmarkSpec::build_with_config(v, TlbDesign::Rf, settings.config);
            [&|b| b, lru_way]
                .map(|hook| TrialCell::new(&spec, TlbDesign::Rf, settings.base_seed, hook))
        })
        .collect();
    obs.campaign_begin();
    let outcome = campaign::measure_cells_observed(
        "ablation_rf",
        &cells,
        &settings,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
    );
    obs.campaign_end();
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    let summary = oracle::conclude("ablation_rf", Path::new("repro"));
    render(&vulns, &outcome.cells, &summary);
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

fn render(
    vulns: &[sectlb_model::Vulnerability],
    cells: &[CellOutcome],
    summary: &oracle::OracleSummary,
) {
    let mut leaks = 0;
    for (v, pair) in vulns.iter().zip(cells.chunks(2)) {
        let name = format!("{} ({})", v.pattern, v.timing);
        // The eviction policy is not part of the oracle context, so a
        // violation marks the whole row (both columns) SUSPECT.
        if summary.affects(&[&v.to_string()]) {
            println!("{name:<48} {:>12} {:>12}", "SUSPECT", "SUSPECT");
            continue;
        }
        let (Some(random_way), Some(lru_way)) = (pair[0].measurement(), pair[1].measurement())
        else {
            let gap = campaign::cells_gap_marker(pair).unwrap_or("QUARANTINED");
            println!("{name:<48} {gap:>12} {gap:>12}");
            continue;
        };
        let (random_way, lru_way) = (random_way.capacity(), lru_way.capacity());
        let marker = if lru_way > THRESHOLD && random_way <= THRESHOLD {
            leaks += 1;
            "  <-- LRU-way eviction leaks"
        } else {
            ""
        };
        println!("{name:<48} {random_way:>12.3} {lru_way:>12.3}{marker}");
    }
    println!(
        "\n{leaks} vulnerability type(s) become exploitable when random fills \
         evict the LRU way instead of a random way."
    );
    println!("Conclusion: the uniformly random eviction is load-bearing for the");
    println!("RF TLB's security argument, not an implementation detail.");
}
