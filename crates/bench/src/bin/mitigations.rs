//! Reproduces the Section 2.3 survey: how many of the 24 vulnerability
//! types each pre-existing mitigation (and each of the paper's designs)
//! defends.
//!
//! Usage: `mitigations [--trials N] [--extended] [--adaptive[=ALPHA]]
//! [--workers N|auto] [--checkpoint PATH] [--resume PATH] [--retries N]
//! [--kill-after N] [--inject-* ...] [--events PATH] [--metrics PATH]`
//!
//! `--extended` appends the temporal-partitioning designs (FS hardware
//! flush-on-switch, FT `fence.t` full clear) and the multi-page-size
//! TLB to the survey; the classic five rows keep their exact output.
//!
//! The survey runs on the campaign engine's cells layer, 24 cells per
//! mitigation: a panicking shard is retried deterministically and, if it
//! keeps failing, its row is reported as quarantined instead of aborting
//! the others. `--adaptive` stops each cell as soon as its verdict is
//! statistically settled against the survey's threshold; the defended
//! counts are guaranteed to match the exhaustive run.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::adaptive::SequentialTest;
use sectlb_secbench::mitigations::Mitigation;
use sectlb_secbench::oracle;
use sectlb_secbench::run::{TrialCell, TrialSettings};

/// The defended-capacity threshold this survey has always used.
const THRESHOLD: f64 = 0.06;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workers = cli::workers_flag(&args);
    let mut policy = cli::campaign_flags(&args);
    policy.adaptive = cli::adaptive_flags(&args, THRESHOLD);
    let survey: &[Mitigation] = if args.iter().any(|a| a == "--extended") {
        &Mitigation::EXTENDED
    } else {
        &Mitigation::ALL
    };
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, 300),
        oracle: cli::oracle_flags(&args, &policy, "mitigations"),
        ..TrialSettings::default()
    };
    let mut obs = Observability::from_args("mitigations", &args);
    println!("Section 2.3: existing mitigations vs. the 24 vulnerability types");
    println!("({} trials per placement)\n", settings.trials);
    println!("{:<42} {:>10} {:>8}", "approach", "measured", "paper");
    let cells: Vec<TrialCell> = survey.iter().flat_map(|m| m.cells(&settings)).collect();
    obs.campaign_begin();
    let outcome = campaign::measure_cells_observed(
        "mitigations",
        &cells,
        &settings,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
    );
    obs.campaign_end();
    let rows = outcome.cells.chunks(enumerate_vulnerabilities().len());
    for (m, row) in survey.iter().zip(rows) {
        let measured = match campaign::cells_gap_marker(row) {
            Some(gap) => format!("{gap:>10}"),
            None => {
                let defended = row
                    .iter()
                    .filter_map(|c| c.measurement())
                    .filter(|x| x.defends(THRESHOLD))
                    .count();
                format!("{defended:>7}/24")
            }
        };
        println!(
            "{:<42} {measured} {:>5}/24",
            m.label(),
            m.paper_defended_count()
        );
    }
    print_reading();
    print_saved(&policy.adaptive, outcome.stats.trials_saved);
    let summary = oracle::conclude("mitigations", Path::new("repro"));
    print_suspects(&summary);
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

fn print_saved(test: &Option<SequentialTest>, saved: u64) {
    if let Some(test) = test {
        println!(
            "\nadaptive early stopping (alpha = {}): saved {saved} trials x 2 placements \
             across the survey",
            test.alpha
        );
    }
}

/// A mitigation row aggregates 24 vulnerabilities on a shared design, so
/// a violation cannot be pinned to one printed row; surface the affected
/// trial contexts as a table footer instead.
fn print_suspects(summary: &oracle::OracleSummary) {
    if summary.is_empty() {
        return;
    }
    println!(
        "\nWARNING: {} SUSPECT trial context(s) (shadow-oracle violation); counts above are \
         untrustworthy",
        summary.suspects.len()
    );
}

fn print_reading() {
    println!("\nFlushing on context switches (Sanctum/SGX) matches the SP TLB's");
    println!("coverage but pays the flush on every switch; the FA TLB removes");
    println!("the set-index channel entirely but leaks internal collisions;");
    println!("only the RF TLB defends everything.");
}
