//! Security evaluation of the Appendix B (targeted invalidation) attacks
//! — an extension beyond the paper, which enumerates these
//! vulnerabilities (Table 7) but does not evaluate the secure designs
//! against them.
//!
//! Evaluates six representative Table 7 families on the SA TLB, the SP
//! TLB, the RF TLB as published (precise invalidation), and the RF TLB
//! with this reproduction's region-flush invalidation extension.
//!
//! Usage: `table7_eval [--trials N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! The family × design grid runs on the campaign engine's cells layer,
//! like Table 4: each cell's trials are sharded, and every trial restores
//! the cell's set-up machine and times its last step by counter reads in
//! its program.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::extended::{cells, extended_benchmarks, ExtDesign};
use sectlb_secbench::oracle;
use sectlb_secbench::run::TrialSettings;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_campaign_flags(&args, &["--trials", "--adaptive"]);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    cli::reject_adaptive(&args, "table7_eval");
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, 500),
        oracle: cli::oracle_flags(&args, &policy, "table7_eval"),
        ..TrialSettings::default()
    };
    let mut obs = Observability::from_args("table7_eval", &args);
    println!(
        "Appendix B attacks vs. the designs ({} trials per placement)",
        settings.trials
    );
    println!("channel capacity C*; 0 = defended\n");
    print!("{:<38} {:<30}", "family", "pattern");
    for d in ExtDesign::ALL {
        print!(" {:>18}", d.label());
    }
    println!();
    let benches = extended_benchmarks();
    obs.campaign_begin();
    let outcome = campaign::measure_cells_observed(
        "table7_eval",
        &cells(&benches),
        &settings,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
    );
    obs.campaign_end();
    let summary = oracle::conclude("table7_eval", Path::new("repro"));
    for (bi, bench) in benches.iter().enumerate() {
        print!("{:<38} {:<30}", bench.name, bench.pattern);
        for (di, d) in ExtDesign::ALL.into_iter().enumerate() {
            if summary.affects(&[bench.name, d.label()]) {
                print!(" {:>18}", "SUSPECT");
                continue;
            }
            let cell = &outcome.cells[bi * ExtDesign::ALL.len() + di];
            match cell.measurement() {
                Some(m) => print!(" {:>18.3}", m.capacity()),
                None => print!(
                    " {:>18}",
                    campaign::cells_gap_marker(std::slice::from_ref(cell)).unwrap_or("QUARANTINED")
                ),
            }
        }
        println!();
    }
    print_reading();
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

fn print_reading() {
    println!();
    println!("Reading: targeted invalidation breaks the SA and SP TLBs on the");
    println!("internal families; the published RF TLB still leaks partially");
    println!("(invalidations are deterministic even though fills are random);");
    println!("flushing the whole secure region on any secure invalidation, in");
    println!("constant time, restores C* = 0 across the board.");
}
