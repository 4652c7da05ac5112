//! Regenerates Table 4: the security evaluation of the SA, SP, and RF
//! TLBs — measured p1*, p2*, C* (500 trials per placement by default)
//! against the theoretical p1, p2, C.
//!
//! Usage: `table4 [--trials N] [--designs sa,sp,rf,fs,ft,ms]
//! [--workers N|auto] [--checkpoint PATH]
//! [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--oracle[=RATE]] [--inject-corruption[=PM]]
//! [--events PATH] [--metrics PATH]`
//!
//! `--designs` picks the table's design columns; the default is the
//! paper's SA/SP/RF. `fs` (flush on switch) and `ft` (`fence.t` full
//! clear) are the temporal-partitioning designs, `ms` the
//! multi-page-size TLB.
//!
//! `--oracle` runs the shadow oracle in lockstep with the sampled trials;
//! a violated invariant renders the cell SUSPECT (like QUARANTINED),
//! writes a shrunk repro to `repro/`, and exits
//! [`sectlb_secbench::oracle::EXIT_SUSPECT`].
//!
//! The table is bitwise identical for every worker count; `--workers`
//! only shards the 24×3-cell campaign across threads. Every run goes
//! through the campaign engine: worker panics are isolated and
//! deterministically retried, and cells whose shards keep failing are
//! quarantined in the rendered table (exit code 4) instead of aborting
//! the run. With `--workers` or any engine flag (checkpointing, fault
//! injection, budgets, `--adaptive`) the progress line names the engine
//! and the pool's throughput counters follow on stderr.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_secbench::report::{build_table4_resilient_observed_for, DEFENDED_THRESHOLD};
use sectlb_secbench::run::TrialSettings;
use sectlb_secbench::supervisor;
use sectlb_sim::machine::TlbDesign;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_campaign_flags(&args, &["--trials", "--designs", "--adaptive"]);
    let workers = cli::workers_flag(&args);
    let mut policy = cli::campaign_flags(&args);
    policy.adaptive = cli::adaptive_flags(&args, DEFENDED_THRESHOLD);
    let designs = cli::designs_flag(&args).unwrap_or_else(|| TlbDesign::ALL.to_vec());
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, TrialSettings::default().trials),
        workers,
        oracle: cli::oracle_flags(&args, &policy, "table4"),
        ..TrialSettings::default()
    };
    let pool_workers = workers.unwrap_or(NonZeroUsize::MIN);
    let flagged = campaign::flagged(workers, &policy);
    // A flagless run runs on one worker and keeps its historical "serial"
    // label: `results/table4.txt` captures this line.
    eprintln!(
        "running {} trials x 2 placements x 24 vulnerabilities x {} designs ({}) ...",
        settings.trials,
        designs.len(),
        match (flagged, policy.adaptive) {
            (false, _) => "serial".to_owned(),
            (true, Some(_)) =>
                format!("{pool_workers} workers, resilient engine, adaptive early stopping"),
            (true, None) => format!("{pool_workers} workers, resilient engine"),
        }
    );
    let mut obs = Observability::from_args("table4", &args);
    supervisor::install_signal_handlers();
    obs.campaign_begin();
    let built = build_table4_resilient_observed_for(
        &designs,
        &settings,
        pool_workers,
        &policy,
        obs.telemetry(),
    );
    obs.campaign_end();
    let mut report = match built {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            obs.finish(None);
            std::process::exit(e.exit_code());
        }
    };
    let summary = oracle::conclude("table4", Path::new("repro"));
    report.suspect = report.suspect_cells(&summary);
    println!("{}", report.render());
    if flagged {
        report.eprint_summary();
    }
    if !summary.is_empty() {
        println!(
            "WARNING: {} cell(s) SUSPECT; the TLB model misbehaved there",
            summary.suspects.len()
        );
    } else if !report.partial.is_empty() {
        println!(
            "WARNING: {} cell(s) incomplete (budget); resume to finish the verdicts",
            report.partial.len()
        );
    } else if report.quarantined.is_empty() && report.table.all_verdicts_match() {
        println!("all measured defense verdicts match the theoretical ones");
    } else if !report.quarantined.is_empty() {
        println!(
            "WARNING: {} cell(s) quarantined; verdicts incomplete",
            report.quarantined.len()
        );
    } else {
        println!("WARNING: some measured verdicts disagree with theory");
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&report.stats));
    std::process::exit(summary.exit_code(report.exit_code()));
}
