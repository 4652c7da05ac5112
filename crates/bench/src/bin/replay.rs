//! Deterministically re-executes shadow-oracle repro files, and
//! validates telemetry event streams.
//!
//! Usage: `replay REPRO_FILE... [--events PATH] [--metrics PATH]`
//! or: `replay --validate-events EVENTS_FILE`
//!
//! The campaign drivers, when run with `--oracle`, shrink every caught
//! violation to a minimal reproducing sequence and write it to
//! `repro/*.ron`. This binary parses such a file, rebuilds the recorded
//! machine (design, geometry, seed, mappings, secure regions), re-runs
//! the recorded operation sequence with the oracle armed, and compares
//! the replayed violation against the recorded one. With `--events` /
//! `--metrics` it emits the same telemetry schema as the campaign
//! drivers (`replay_start` / `replay_outcome` events inside the campaign
//! envelope).
//!
//! `--validate-events PATH` instead checks that every line of a
//! `--events` stream parses under the versioned schema and re-renders
//! byte-identically — the CI observability smoke job runs this against a
//! freshly captured stream.
//!
//! Exit codes: 0 when every file reproduces its recorded violation
//! exactly (and for `--help` and a clean validation); 1 when any replay
//! runs clean or trips a different invariant; 2 on usage, parse, or
//! validation errors.

use std::path::Path;
use std::process::exit;

use sectlb_bench::cli;
use sectlb_bench::exit::{EXIT_OK, EXIT_USAGE};
use sectlb_bench::observe::Observability;
use sectlb_secbench::oracle::replay_file;
use sectlb_secbench::telemetry::{duration_ns, Envelope, Event};

const USAGE: &str = "usage: replay REPRO_FILE... [--events PATH] [--metrics PATH]\n\
    \x20      replay --validate-events EVENTS_FILE\n\
    re-executes shadow-oracle repro files (written to repro/*.ron by the\n\
    campaign drivers under --oracle) and verifies the recorded violation\n\
    reproduces identically; --validate-events checks a JSONL telemetry\n\
    stream against the versioned schema instead";

/// Checks every line of a telemetry stream: parseable under the
/// versioned schema, and canonical (re-rendering is byte-identical).
fn validate_events(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(EXIT_USAGE);
        }
    };
    let mut count = 0u64;
    for (i, line) in text.lines().enumerate() {
        let envelope = match Envelope::parse(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                eprintln!("{path}:{}: invalid event: {e}", i + 1);
                exit(EXIT_USAGE);
            }
        };
        if envelope.render() != line {
            eprintln!("{path}:{}: event is not in canonical form", i + 1);
            exit(EXIT_USAGE);
        }
        count += 1;
    }
    println!("{path}: {count} event(s) validated");
    exit(EXIT_OK);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::reject_unknown_flags(
        &args,
        &[
            "--help",
            "--validate-events",
            "--events",
            "--metrics",
            "--inject-io",
            "--fault-seed",
        ],
    );
    // Asking for help is not an error: usage goes to stdout, exit 0.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        exit(EXIT_OK);
    }
    if let Some(i) = args.iter().position(|a| a == "--validate-events") {
        match args.get(i + 1) {
            Some(path) => validate_events(path),
            None => {
                eprintln!("--validate-events needs a value\n{USAGE}");
                exit(EXIT_USAGE);
            }
        }
    }
    let mut obs = Observability::from_args("replay", &args);
    // Everything that is not an observability flag (or its value) is a
    // repro file.
    let mut files: Vec<&String> = Vec::new();
    let mut skip = false;
    for arg in &args {
        if skip {
            skip = false;
        } else if arg == "--events" || arg == "--metrics" {
            skip = true;
        } else {
            files.push(arg);
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        exit(EXIT_USAGE);
    }
    let started = std::time::Instant::now();
    if obs.enabled() {
        obs.telemetry().emit(Event::CampaignStart {
            driver: "replay".to_owned(),
            fingerprint: 0,
            tasks: files.len() as u64,
            workers: 1,
        });
    }
    obs.campaign_begin();
    let mut failed = false;
    let mut reproduced = 0u64;
    for arg in &files {
        if obs.enabled() {
            obs.telemetry().emit(Event::ReplayStart {
                file: (*arg).clone(),
            });
        }
        let (verdict, ops) = match replay_file(Path::new(arg.as_str())) {
            Ok((capture, Some(v))) if v == capture.violation => {
                println!("{arg}: reproduced ({} ops)", capture.ops.len());
                println!("  {v}");
                reproduced += 1;
                ("reproduced", capture.ops.len() as u64)
            }
            Ok((capture, Some(v))) => {
                failed = true;
                println!("{arg}: DIVERGED — a violation fired, but not the recorded one");
                println!("  recorded: {}", capture.violation);
                println!("  replayed: {v}");
                ("diverged", capture.ops.len() as u64)
            }
            Ok((capture, None)) => {
                failed = true;
                println!(
                    "{arg}: FAILED to reproduce — replay ran clean ({} ops)",
                    capture.ops.len()
                );
                println!("  recorded: {}", capture.violation);
                ("clean", capture.ops.len() as u64)
            }
            Err(e) => {
                eprintln!("{arg}: {e}");
                if obs.enabled() {
                    obs.telemetry().emit(Event::CampaignStop {
                        reason: "complete".to_owned(),
                        completed: reproduced,
                        total: files.len() as u64,
                        wall_ns: duration_ns(started.elapsed()),
                    });
                }
                obs.finish(None);
                exit(EXIT_USAGE);
            }
        };
        if obs.enabled() {
            obs.telemetry().emit(Event::ReplayOutcome {
                file: (*arg).clone(),
                verdict: verdict.to_owned(),
                ops,
            });
        }
    }
    obs.campaign_end();
    if obs.enabled() {
        obs.telemetry().emit(Event::CampaignStop {
            reason: "complete".to_owned(),
            completed: reproduced,
            total: files.len() as u64,
            wall_ns: duration_ns(started.elapsed()),
        });
    }
    obs.finish(None);
    exit(i32::from(failed));
}
