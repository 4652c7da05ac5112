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
//! The survey runs on the campaign engine, one task per mitigation: a
//! panicking survey row is retried deterministically and, if it keeps
//! failing, reported as quarantined instead of aborting the others.
//! `--adaptive` stops each of a row's 24 cells as soon as its verdict is
//! statistically settled; the defended counts are guaranteed to match
//! the exhaustive run.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::adaptive::SequentialTest;
use sectlb_secbench::mitigations::{defended_count, defended_count_adaptive, Mitigation};
use sectlb_secbench::oracle;
use sectlb_secbench::run::TrialSettings;

/// The defended-capacity threshold this survey has always used.
const THRESHOLD: f64 = 0.06;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let adaptive = cli::adaptive_flags(&args);
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
    let test = adaptive.map(|a| SequentialTest {
        alpha: a.alpha,
        threshold: THRESHOLD,
    });
    let mut obs = Observability::from_args("mitigations", &args);
    println!("Section 2.3: existing mitigations vs. the 24 vulnerability types");
    println!("({} trials per placement)\n", settings.trials);
    println!("{:<42} {:>10} {:>8}", "approach", "measured", "paper");
    let tasks: Vec<Mitigation> = survey.to_vec();
    let pool_workers = workers.unwrap_or(NonZeroUsize::MIN);
    let label = |m: &Mitigation| m.label().to_owned();
    // The adaptive alpha joins the fingerprint (and the record shape
    // changes), so adaptive and exhaustive checkpoints can never
    // cross-resume.
    let mut saved_total = 0;
    obs.campaign_begin();
    let outcome = match &test {
        Some(test) => {
            let outcome = campaign::run_campaign_observed(
                "mitigations",
                [
                    u64::from(settings.trials),
                    settings.base_seed,
                    test.alpha.to_bits(),
                ],
                &tasks,
                pool_workers,
                &policy,
                obs.telemetry(),
                &label,
                |m: &Mitigation| {
                    let (count, saved) = defended_count_adaptive(*m, &settings, test);
                    (count as u64, saved)
                },
            );
            saved_total = outcome
                .results
                .iter()
                .filter_map(|r| r.done().map(|&(_, saved)| saved))
                .sum();
            outcome.map(|(count, _)| count)
        }
        None => campaign::run_campaign_observed(
            "mitigations",
            [u64::from(settings.trials), settings.base_seed],
            &tasks,
            pool_workers,
            &policy,
            obs.telemetry(),
            &label,
            |m: &Mitigation| defended_count(*m, &settings, THRESHOLD) as u64,
        ),
    };
    obs.campaign_end();
    for (m, result) in tasks.iter().zip(&outcome.results) {
        match result.done() {
            Some(measured) => println!(
                "{:<42} {:>7}/24 {:>5}/24",
                m.label(),
                measured,
                m.paper_defended_count()
            ),
            None => println!(
                "{:<42} {:>10} {:>5}/24",
                m.label(),
                campaign::gap_marker(std::slice::from_ref(result)).unwrap_or("QUARANTINED"),
                m.paper_defended_count()
            ),
        }
    }
    print_reading();
    print_saved(&test, saved_total);
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
