//! End-to-end TLBleed-style Prime + Probe attack against the RSA victim
//! on each TLB design (Sections 2.2 and 5.1). Prints the fraction of
//! secret exponent bits recovered.
//!
//! Usage: `attack_success [--seeds N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! Each (design, seed) run is an independent deterministic simulation,
//! so the per-design accuracies are identical for every worker count —
//! and identical across any kill/checkpoint/resume interleaving, which
//! the CI fault-injection smoke job exercises on this driver.
//!
//! `--oracle[=RATE]` runs the shadow oracle in lockstep with the sampled
//! runs, and `--inject-corruption[=PM]` deterministically flips a TLB
//! entry mid-attack so the oracle has something to catch: the affected
//! design renders SUSPECT, a shrunk repro lands in `repro/`, and the
//! process exits with [`sectlb_secbench::oracle::EXIT_SUSPECT`]. The CI
//! oracle smoke job exercises exactly that path on this driver.

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_sim::machine::TlbDesign;
use sectlb_workloads::attack::{attack_all_designs, prime_probe_attack, AttackSettings};
use sectlb_workloads::rsa::RsaKey;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds: u64 = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    cli::reject_adaptive(&args, "attack_success");
    let oracle = cli::oracle_flags(&args, &policy, "attack_success");
    let mut obs = Observability::from_args("attack_success", &args);
    let key = RsaKey::demo_128();
    println!("TLBleed-style Prime + Probe key recovery ({seeds} runs per design)");
    println!("secret: {}-bit exponent", key.secret_bits().len());
    let runs: Vec<(TlbDesign, u64)> = TlbDesign::ALL
        .into_iter()
        .flat_map(|d| (0..seeds).map(move |s| (d, s)))
        .collect();
    let run_one = |&(design, s): &(TlbDesign, u64)| {
        let seed = 0xa77ac4 ^ s;
        let settings = AttackSettings {
            seed,
            oracle,
            ..AttackSettings::default()
        };
        prime_probe_attack(&key, design, &settings).accuracy()
    };
    obs.campaign_begin();
    let outcome = campaign::run_campaign_observed(
        "attack_success",
        [seeds],
        &runs,
        workers.unwrap_or(NonZeroUsize::MIN),
        &policy,
        obs.telemetry(),
        &|&(design, s)| format!("{design} TLB, seed {s}"),
        run_one,
    );
    obs.campaign_end();
    let summary = oracle::conclude("attack_success", Path::new("repro"));
    for (i, design) in TlbDesign::ALL.into_iter().enumerate() {
        let lo = i * seeds as usize;
        let slice = &outcome.results[lo..lo + seeds as usize];
        let completed: Vec<f64> = slice.iter().filter_map(|r| r.done().copied()).collect();
        if summary.affects(&[&design.to_string()]) {
            println!("  {design} TLB: SUSPECT (shadow-oracle violation)");
        } else if completed.len() == slice.len() {
            println!(
                "  {} TLB: {:.1}% of key bits recovered",
                design,
                completed.iter().sum::<f64>() / seeds as f64 * 100.0
            );
        } else {
            println!(
                "  {} TLB: {} ({} of {} runs completed)",
                design,
                // An incomplete row always carries a gap kind; fall back
                // to the generic marker rather than panicking mid-report.
                campaign::gap_marker(slice).unwrap_or("QUARANTINED"),
                completed.len(),
                slice.len()
            );
        }
    }
    let _ = attack_all_designs(&key, &AttackSettings::default());
    println!("(50% is chance level: the attacker learns nothing)");
    if campaign::flagged(workers, &policy) {
        outcome.eprint_summary();
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}
