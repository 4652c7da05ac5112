//! Regenerates Table 5: FPGA area of the 19 TLB configurations — the
//! structural model's estimates next to the paper's synthesis numbers.
//!
//! Usage: `table5 [--workers N|auto] [--checkpoint PATH] [--resume PATH]
//! [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! The area model is pure arithmetic, so the flags exist mainly for a
//! uniform campaign interface (and make this the cheapest driver to
//! exercise the fault-tolerance machinery on); rows print in paper order.
//! `--oracle` is likewise accepted for uniformity: no machine is ever
//! built here, so the oracle can never find anything, but the
//! conclude/exit-code plumbing still runs.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_area::{estimate, paper_table5};
use sectlb_bench::exit::EXIT_SETUP;
use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_campaign_flags(&args, &["--adaptive"]);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    cli::reject_adaptive(&args, "table5");
    let _ = cli::oracle_flags(&args, &policy, "table5");
    let mut obs = Observability::from_args("table5", &args);
    let baseline_cfg = TlbConfig::sa(32, 4).unwrap_or_else(|e| {
        eprintln!("error: baseline TLB geometry rejected: {e}");
        std::process::exit(EXIT_SETUP);
    });
    let base = estimate(TlbDesign::Sa, baseline_cfg);
    println!("Table 5: area overhead (structural model vs. paper synthesis)");
    println!("baseline: 32-entry 4-way SA TLB");
    println!(
        "{:<4} {:>8} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "TLB", "config", "LUTs", "ΔLUTs", "paperΔ", "regs", "Δregs", "paperΔ"
    );
    let paper_base = sectlb_area::paper::paper_baseline();
    let rows = paper_table5();
    obs.campaign_begin();
    let outcome = campaign::run_campaign_observed(
        "table5",
        [0u64; 0],
        &rows,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
        &|row: &sectlb_area::paper::PaperRow| {
            format!("{} {}", row.design.name(), row.config.label())
        },
        |row: &sectlb_area::paper::PaperRow| {
            let e = estimate(row.design, row.config);
            (e.luts, e.registers)
        },
    );
    obs.campaign_end();
    for (row, result) in rows.iter().zip(&outcome.results) {
        let pdl = row.luts as i64 - paper_base.luts as i64;
        let pdr = row.registers as i64 - paper_base.registers as i64;
        match result.done() {
            Some((luts, registers)) => {
                let dl = *luts as i64 - base.luts as i64;
                let dr = *registers as i64 - base.registers as i64;
                println!(
                    "{:<4} {:>8} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
                    row.design.name(),
                    row.config.label(),
                    luts,
                    dl,
                    pdl,
                    registers,
                    dr,
                    pdr
                );
            }
            None => {
                let gap =
                    campaign::gap_marker(std::slice::from_ref(result)).unwrap_or("QUARANTINED");
                println!(
                    "{:<4} {:>8} | {:^29} | {:^28}",
                    row.design.name(),
                    row.config.label(),
                    gap,
                    gap
                );
            }
        }
    }
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    let summary = oracle::conclude("table5", Path::new("repro"));
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}
