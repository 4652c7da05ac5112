//! Regenerates Figure 7(a)–(f): IPC and MPKI of the SA, SP, and RF TLBs
//! across the seven TLB configurations, for RSA / SecRSA alone and
//! co-running with the four SPEC-like benchmarks, at 50 / 100 / 150
//! decryptions.
//!
//! Usage: `fig7 [--design sa|sp|rf] [--quick] [--workers N|auto]
//! [--checkpoint PATH] [--resume PATH] [--retries N] [--kill-after N]
//! [--inject-* ...] [--events PATH] [--metrics PATH]`
//!
//! `--quick` runs 10 decryptions and the alone/omnetpp workloads only.
//! Run with `--release`; the full sweep executes billions of simulated
//! instructions. Every cell is an independent deterministic simulation
//! and one task of the campaign engine, so `--workers` shards the sweep
//! without changing any number; each cell is simulated once and feeds
//! both its IPC and MPKI panels. A cell whose setup fails is retried and
//! then quarantined (rendered `QUAR`, exit 4). This is the longest
//! campaign in the harness, so `--checkpoint`/`--resume` matter most
//! here.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use sectlb_bench::exit::EXIT_SETUP;
use sectlb_bench::observe::Observability;
use sectlb_bench::perf::{headline, run_cell_oracle, Workload};
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_campaign_flags(&args, &["--quick", "--design", "--adaptive"]);
    let quick = args.iter().any(|a| a == "--quick");
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    cli::reject_adaptive(&args, "fig7");
    let oracle_cfg = cli::oracle_flags(&args, &policy, "fig7");
    let designs: Vec<TlbDesign> = match args
        .iter()
        .position(|a| a == "--design")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some(name) => match TlbDesign::from_name(&name.to_ascii_uppercase()) {
            Some(d) => vec![d],
            None => {
                eprintln!("unknown design {name}; use sa, sp, rf, fs, ft, or ms");
                std::process::exit(2);
            }
        },
        None => TlbDesign::ALL.to_vec(),
    };
    let all_configs = TlbConfig::paper_performance_configs();
    let workloads: Vec<Workload> = if quick {
        Workload::all()
            .into_iter()
            .filter(|w| {
                w.co_runner.is_none()
                    || w.co_runner == Some(sectlb_workloads::spec_like::SpecBenchmark::Omnetpp)
            })
            .collect()
    } else {
        Workload::all()
    };
    let runs: Vec<usize> = if quick { vec![10] } else { vec![50, 100, 150] };
    let mut obs = Observability::from_args("fig7", &args);

    // Enumerate every (design, workload, runs, config) cell up front in
    // print order, simulate each exactly once (sharded across the pool
    // when --workers is given), then render the panels from the results.
    let mut panels: Vec<(TlbDesign, Vec<TlbConfig>, usize)> = Vec::new();
    let mut tasks: Vec<(TlbDesign, TlbConfig, Workload, usize)> = Vec::new();
    for design in &designs {
        // The paper's Figure 7 shows the 1E bar only for the SA TLB (the
        // SP TLB cannot partition a single entry).
        let configs: Vec<TlbConfig> = all_configs
            .iter()
            .copied()
            .filter(|c| c.entries() > 1 || *design == TlbDesign::Sa)
            .collect();
        panels.push((*design, configs.clone(), tasks.len()));
        for w in &workloads {
            for &r in &runs {
                for &c in &configs {
                    tasks.push((*design, c, *w, r));
                }
            }
        }
    }
    // Each engine result is the cell's (ipc, mpki) pair; an incomplete
    // cell renders its gap marker (QUAR / TIMEOUT / PARTIAL) in both
    // panels instead of a number. The cells this run simulated and their
    // instructions are counted beside the results, which a checkpoint
    // stores as they are.
    let simulated = AtomicU64::new(0);
    let instret = AtomicU64::new(0);
    obs.campaign_begin();
    let outcome = campaign::run_campaign_observed(
        "fig7",
        [u64::from(quick)],
        &tasks,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
        &|&(d, c, w, r): &(TlbDesign, TlbConfig, Workload, usize)| {
            format!("{d} TLB {} {} x{r}", c.label(), w.label())
        },
        |&(d, c, w, r)| {
            // A setup error panics the shard: the engine retries it
            // deterministically and renders the cell QUAR if it keeps
            // failing.
            match run_cell_oracle(d, c, w, r, oracle_cfg, |b| b) {
                Ok(cell) => {
                    simulated.fetch_add(1, Ordering::Relaxed);
                    instret.fetch_add(cell.instret, Ordering::Relaxed);
                    (cell.ipc, cell.mpki)
                }
                Err(e) => panic!("{e}"),
            }
        },
    );
    let cells: Vec<Result<(f64, f64), &'static str>> = outcome
        .results
        .iter()
        .map(|r| match r.done() {
            Some(&pair) => Ok(pair),
            None => Err(match campaign::gap_marker(std::slice::from_ref(r)) {
                Some("QUARANTINED") | None => "QUAR",
                Some(marker) => marker,
            }),
        })
        .collect();
    obs.campaign_end();
    let summary = oracle::conclude("fig7", Path::new("repro"));

    for (design, configs, offset) in &panels {
        for metric in ["IPC", "MPKI"] {
            let panel = match (design, metric) {
                (TlbDesign::Sa, "IPC") => "7a",
                (TlbDesign::Sp, "IPC") => "7b",
                (TlbDesign::Rf, "IPC") => "7c",
                (TlbDesign::Sa, "MPKI") => "7d",
                (TlbDesign::Sp, "MPKI") => "7e",
                (TlbDesign::Rf, "MPKI") => "7f",
                // The temporal and multi-page-size designs sit outside
                // the paper's six panels.
                _ => "7+",
            };
            println!("\nFigure {panel}: {metric} of the {design} TLB");
            print!("{:<22} {:>5}", "workload", "runs");
            for c in configs {
                print!(" {:>8}", c.label());
            }
            println!();
            for (wi, w) in workloads.iter().enumerate() {
                for (ri, &r) in runs.iter().enumerate() {
                    print!("{:<22} {:>5}", w.label(), r);
                    for (ci, c) in configs.iter().enumerate() {
                        let cell_suspect = summary.affects(&[
                            &design.to_string(),
                            &c.label(),
                            &format!("{} x{r}", w.label()),
                        ]);
                        if cell_suspect {
                            print!(" {:>8}", "SUSPECT");
                            continue;
                        }
                        match cells[offset + (wi * runs.len() + ri) * configs.len() + ci] {
                            Ok((ipc, mpki)) => {
                                let v = if metric == "IPC" { ipc } else { mpki };
                                print!(" {:>8.3}", v);
                            }
                            Err(marker) => print!(" {:>8}", marker),
                        }
                    }
                    println!();
                }
            }
        }
    }

    if designs.len() == 3 {
        let h = headline(if quick { 10 } else { 50 }).unwrap_or_else(|e| {
            eprintln!("error: headline computation failed: {e}");
            std::process::exit(EXIT_SETUP);
        });
        println!("\nHeadline comparisons (Sections 6.3-6.5, SecRSA workloads, 4W 32):");
        println!(
            "  SP MPKI / SA MPKI        = {:.2}x   (paper: ~3.07x)",
            h.sp_over_sa_mpki
        );
        println!(
            "  RF MPKI / SA MPKI        = {:.2}x   (paper: ~1.09x)",
            h.rf_over_sa_mpki
        );
        println!(
            "  RF MPKI / SP MPKI        = {:.2}x   (paper: ~0.36x, i.e. 64.5% better)",
            h.rf_over_sp_mpki
        );
        println!(
            "  1E IPC / 4W32 IPC        = {:.2}x   (paper: ~0.62x, i.e. ~38% worse)",
            h.one_entry_ipc_ratio
        );
    }

    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
        // Figure 7's own units: cells and simulated instructions per
        // second of pool time.
        let seconds = outcome.stats.wall.as_secs_f64().max(1e-9);
        let cells = simulated.load(Ordering::Relaxed);
        eprintln!(
            "fig7: {cells} cells simulated ({:.1} cells/s, {:.1} simulated Minstr/s)",
            cells as f64 / seconds,
            instret.load(Ordering::Relaxed) as f64 / seconds / 1e6
        );
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}
