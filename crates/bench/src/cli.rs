//! Flag parsing shared by every campaign driver binary.
//!
//! All drivers accept `--workers N` (worker threads of the campaign
//! engine, one when absent; `auto` picks the machine's available
//! parallelism) and most accept `--trials N`. Campaign outputs are
//! bitwise identical for every worker count — the flag only changes
//! wall-clock time.
//!
//! The fault-tolerance flags ([`parse_campaign`]) configure the campaign
//! engine (`sectlb_secbench::resilience`):
//!
//! - `--retries N` — deterministic re-runs per panicked shard (default 2)
//! - `--checkpoint PATH` / `--checkpoint-every N` — crash-safe progress
//! - `--resume PATH` — skip the shards a checkpoint already records
//! - `--kill-after N` — halt after N shards (deterministic kill switch)
//! - `--stall-deadline-ms N` — watchdog deadline per shard
//! - `--inject-panics PM` / `--inject-panic-attempts K` /
//!   `--inject-fatal PM` / `--inject-stall PM` / `--inject-stall-ms N` /
//!   `--fault-seed S` — the deterministic fault-injection harness
//!   (per-mille rates keyed by shard index)
//! - `--inject-corruption[=PM]` — deterministically corrupt one TLB
//!   entry in PM‰ of trials (default: all), keyed by trial seed; only
//!   the shadow oracle can catch it
//! - `--inject-worker-death W:K` — kill the worker that claims the K-th
//!   shard (from 0) of worker W's initial queue, once; the supervision
//!   layer must reclaim the abandoned shard and finish bitwise identical
//!   to an undisturbed run
//! - `--inject-io KIND[:PM]` — deterministic storage faults on the
//!   durable-write seam (checkpoints, the campaignd manifest): KIND is
//!   `torn` (prefix-only flush), `short-read`, `enospc`, or
//!   `rename-fail`; PM is the per-mille rate (default 1000, every
//!   matching operation)
//!
//! The resource-budget flags fold into the same [`RunPolicy`]:
//!
//! - `--deadline SECS` — wall-clock budget for the whole campaign;
//!   on expiry the engine stops claiming shards, drains, flushes the
//!   checkpoint, and the driver renders a partial report (exit 7)
//! - `--cell-deadline-ms MS` — per-shard budget; an overrunning shard is
//!   cooperatively preempted and its cell rendered TIMEOUT
//! - `--adaptive[=ALPHA]` ([`parse_adaptive`]) — sequential early
//!   stopping per cell, guaranteed to agree with the exhaustive verdicts;
//!   `table4`, `mitigations` and `ablation_rf` set it as
//!   [`RunPolicy::adaptive`] and the engine's cells layer runs it
//!
//! The shadow-oracle flag ([`parse_oracle`]) arms the lockstep reference
//! model: `--oracle[=RATE]` checks RATE‰ of trials (default: all).
//! Violations render the cell SUSPECT, write a shrunk `repro/*.ron`
//! file, and exit [`sectlb_secbench::oracle::EXIT_SUSPECT`].
//!
//! The observability flags ([`parse_events`] / [`parse_metrics`]) arm the
//! structured telemetry layer (`sectlb_secbench::telemetry`):
//! `--events PATH` streams the campaign's versioned JSONL events and
//! `--metrics PATH` writes the aggregated `BENCH_<driver>.json` snapshot.
//! Both default off; with neither flag, the drivers' text output is byte
//! identical to a build without the telemetry layer.
//!
//! Every driver names the flags it reads in one call to
//! [`reject_unknown_flags`] (the campaign drivers to
//! [`reject_unknown_campaign_flags`]), so a misspelt flag or one the
//! driver does not have exits 2 instead of running the defaults.
//!
//! Parsing is split into fallible `parse_*` helpers (unit-testable) and
//! thin `*_flag` wrappers that print the error and exit 2, matching the
//! drivers' historical behavior for malformed flags. [`flag_value`] and
//! [`flag_num`] read every single-valued flag; the campaignd binaries
//! (`serve`, `submit`, `verify`, `chaos`) read theirs through the exiting
//! twins [`value_flag`] and [`num_flag`].

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use sectlb_secbench::adaptive::SequentialTest;
use sectlb_secbench::checkpoint::CheckpointPolicy;
use sectlb_secbench::codec::Word;
use sectlb_secbench::iofault::{IoFault, IoFaultKind};
use sectlb_secbench::oracle::OracleConfig;
use sectlb_secbench::resilience::{FaultPlan, RunPolicy};
use sectlb_sim::machine::TlbDesign;

use crate::exit::usage as exit_usage;

/// The flags [`parse_campaign`] reads: the engine's retries,
/// checkpoints, budgets and fault injection.
pub const ENGINE_FLAGS: &[&str] = &[
    "--retries",
    "--stall-deadline-ms",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
    "--kill-after",
    "--deadline",
    "--cell-deadline-ms",
    "--inject-panics",
    "--inject-panic-attempts",
    "--inject-fatal",
    "--inject-stall",
    "--inject-stall-ms",
    "--fault-seed",
    "--inject-corruption",
    "--inject-worker-death",
    "--inject-io",
];

/// The flags every campaign driver reads besides [`ENGINE_FLAGS`]:
/// `--workers`, the oracle's and the observability sinks'.
const CAMPAIGN_FLAGS: &[&str] = &["--workers", "--oracle", "--events", "--metrics"];

/// The flags whose value may follow an `=` (`--oracle=RATE`); every
/// other flag takes its value as the next argument.
const EQ_FLAGS: [&str; 3] = ["--oracle", "--inject-corruption", "--adaptive"];

/// The first flag in `args` that is none of `known`
/// ([`reject_unknown_flags`]).
fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|arg| {
        if !arg.starts_with("--") {
            return false;
        }
        let (name, valued) = arg
            .split_once('=')
            .map_or((*arg, false), |(n, _)| (n, true));
        !known.contains(&name) || (valued && !EQ_FLAGS.contains(&name))
    })
}

/// Exits 2 naming the first flag in `args` (`--name`, or `--name=VALUE`
/// for `--oracle`, `--inject-corruption` and `--adaptive`) that is none
/// of `known`, the flags the driver reads; values, commands and file
/// names are not flags. Every driver calls it first, so that a typo
/// (`--trails 7`) or a flag the driver does not have (`table4 --seed 5`)
/// fails instead of running with defaults.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) {
    if let Some(flag) = unknown_flag(args, known) {
        exit_usage(format!("unknown flag {flag}"));
    }
}

/// [`reject_unknown_flags`] for a campaign driver, which reads the
/// engine's flags ([`ENGINE_FLAGS`]), `--workers`, the oracle's and the
/// observability sinks' besides its `own`.
pub fn reject_unknown_campaign_flags(args: &[String], own: &[&str]) {
    reject_unknown_flags(args, &[ENGINE_FLAGS, CAMPAIGN_FLAGS, own].concat());
}

/// Looks up the value following `flag`, if the flag is present; a flag
/// with no value after it is an error.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// Parses the numeric value following `flag`, if the flag is present.
pub fn flag_num<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs a number, got {v:?}")),
    }
}

/// Parses `--workers N` / `--workers auto`; `Ok(None)` when absent.
///
/// `--workers 0` is rejected with a specific message: zero workers cannot
/// make progress, and silently running serially would misreport what the
/// campaign did.
pub fn parse_workers(args: &[String]) -> Result<Option<NonZeroUsize>, String> {
    match flag_value(args, "--workers").map_err(|_| WORKERS_USAGE.to_owned())? {
        None => Ok(None),
        Some("auto") => Ok(Some(available_workers())),
        Some("0") => Err(
            "--workers must be at least 1: a pool of zero workers cannot run any trials \
             (omit the flag for one worker, or use 'auto' for all cores)"
                .to_owned(),
        ),
        Some(n) => match n.parse::<usize>().ok().and_then(NonZeroUsize::new) {
            Some(w) => Ok(Some(w)),
            None => Err(WORKERS_USAGE.to_owned()),
        },
    }
}

const WORKERS_USAGE: &str = "--workers needs a positive number or 'auto'";

/// Parses `--trials N`; `Ok(default)` when absent.
pub fn parse_trials(args: &[String], default: u32) -> Result<u32, String> {
    Ok(flag_num(args, "--trials")?.unwrap_or(default))
}

/// Looks up a `--flag` / `--flag=VALUE` style flag (value attached with
/// `=`, unlike [`flag_value`]'s separate-argument style): `None` when
/// absent, `Some(None)` for the bare flag, `Some(Some(v))` with a value.
fn eq_flag<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    for a in args {
        if a == flag {
            return Some(None);
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(Some(v));
        }
    }
    None
}

/// Parses an `=`-style per-mille flag; the bare flag means 1000 (all).
fn eq_per_mille(args: &[String], flag: &str) -> Result<Option<u16>, String> {
    match eq_flag(args, flag) {
        None => Ok(None),
        Some(None) => Ok(Some(1000)),
        Some(Some(v)) => match v.parse::<u16>() {
            Ok(pm) if pm <= 1000 => Ok(Some(pm)),
            _ => Err(format!(
                "{flag} needs a per-mille rate (0..=1000), got {v:?}"
            )),
        },
    }
}

/// Parses `--oracle[=RATE]` into an [`OracleConfig`] tagged with the
/// driver's name, folding in the `--inject-corruption` rate and
/// `--fault-seed` the [`parse_campaign`] policy already carries.
///
/// `Ok(None)` when neither `--oracle` nor `--inject-corruption` is
/// present — drivers then change nothing, byte for byte.
pub fn parse_oracle(
    args: &[String],
    policy: &RunPolicy,
    tag: &'static str,
) -> Result<Option<OracleConfig>, String> {
    let rate = eq_per_mille(args, "--oracle")?;
    let corrupt = policy.faults.as_ref().map_or(0, |f| f.corrupt_per_mille);
    if rate.is_none() && corrupt == 0 {
        return Ok(None);
    }
    let defaults = OracleConfig::default();
    Ok(Some(OracleConfig {
        rate_per_mille: rate.unwrap_or(0),
        corrupt_per_mille: corrupt,
        seed: policy.faults.as_ref().map_or(defaults.seed, |f| f.seed),
        tag,
    }))
}

/// Parses the fault-tolerance flags into a [`RunPolicy`].
///
/// With none of the flags present this returns `RunPolicy::default()`
/// (and [`RunPolicy::has_options`] is false: without `--workers` too,
/// the run is flagless and prints only its table).
pub fn parse_campaign(args: &[String]) -> Result<RunPolicy, String> {
    let mut policy = RunPolicy::default();
    if let Some(retries) = flag_num::<u32>(args, "--retries")? {
        policy.max_retries = retries;
    }
    if let Some(ms) = flag_num::<u64>(args, "--stall-deadline-ms")? {
        policy.stall_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(path) = flag_value(args, "--checkpoint")? {
        let mut cp = CheckpointPolicy::new(path);
        if let Some(every) = flag_num::<usize>(args, "--checkpoint-every")? {
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".to_owned());
            }
            cp.every = every;
        }
        policy.checkpoint = Some(cp);
    } else if flag_num::<usize>(args, "--checkpoint-every")?.is_some() {
        return Err("--checkpoint-every requires --checkpoint PATH".to_owned());
    }
    if let Some(path) = flag_value(args, "--resume")? {
        policy.resume = Some(PathBuf::from(path));
    }
    if let Some(n) = flag_num::<usize>(args, "--kill-after")? {
        if n == 0 {
            return Err(
                "--kill-after must be at least 1: killing before the first shard runs \
                 no trials at all (use --deadline for wall-clock budgets)"
                    .to_owned(),
            );
        }
        if policy.checkpoint.is_none() {
            return Err(
                "--kill-after requires --checkpoint PATH: an interrupted run without a \
                 checkpoint discards all completed work and cannot be resumed"
                    .to_owned(),
            );
        }
        policy.stop_after = Some(n);
    }
    if let Some(secs) = flag_num::<f64>(args, "--deadline")? {
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(format!(
                "--deadline needs a positive number of seconds, got {secs:?}"
            ));
        }
        policy.budget.deadline = Some(Duration::from_secs_f64(secs));
    }
    if let Some(ms) = flag_num::<u64>(args, "--cell-deadline-ms")? {
        if ms == 0 {
            return Err(
                "--cell-deadline-ms must be at least 1: a zero per-shard budget would \
                 preempt every shard before its first trial"
                    .to_owned(),
            );
        }
        policy.budget.cell_deadline = Some(Duration::from_millis(ms));
    }
    let mut faults = FaultPlan::default();
    let mut any_fault = false;
    if let Some(pm) = flag_num::<u16>(args, "--inject-panics")? {
        faults.panic_per_mille = pm;
        any_fault = true;
    }
    if let Some(k) = flag_num::<u32>(args, "--inject-panic-attempts")? {
        faults.panic_attempts = k;
    }
    if let Some(pm) = flag_num::<u16>(args, "--inject-fatal")? {
        faults.fatal_per_mille = pm;
        any_fault = true;
    }
    if let Some(pm) = flag_num::<u16>(args, "--inject-stall")? {
        faults.stall_per_mille = pm;
        any_fault = true;
    }
    if let Some(ms) = flag_num::<u64>(args, "--inject-stall-ms")? {
        faults.stall = Duration::from_millis(ms);
    }
    if let Some(seed) = flag_num::<u64>(args, "--fault-seed")? {
        faults.seed = seed;
    }
    if let Some(pm) = eq_per_mille(args, "--inject-corruption")? {
        faults.corrupt_per_mille = pm;
        any_fault = true;
    }
    if let Some(spec) = flag_value(args, "--inject-worker-death")? {
        let parsed = spec
            .split_once(':')
            .and_then(|(w, k)| Some((w.parse::<u32>().ok()?, k.parse::<u32>().ok()?)));
        match parsed {
            Some(death) => {
                if policy.stop_after.is_some() {
                    return Err(
                        "--inject-worker-death conflicts with --kill-after: under a shard cap \
                         the survivors idle-wait for the reclaimed shard the cap forbids them \
                         to claim (use them in separate runs)"
                            .to_owned(),
                    );
                }
                faults.worker_death = Some(death);
                any_fault = true;
            }
            None => {
                return Err(format!(
                    "--inject-worker-death needs W:K (kill the worker that claims shard K \
                     of worker W's queue), got {spec:?}"
                ))
            }
        }
    }
    if let Some(fault) = parse_inject_io(args)? {
        faults.io = Some(fault);
        any_fault = true;
    }
    if any_fault {
        policy.faults = Some(faults);
    }
    Ok(policy)
}

/// Parses `--inject-io KIND[:PM]` into an [`IoFault`]; `Ok(None)` when
/// absent. KIND is `torn`, `short-read`, `enospc`, or `rename-fail`;
/// the rate defaults to 1000‰ (every matching operation faults).
pub fn parse_inject_io(args: &[String]) -> Result<Option<IoFault>, String> {
    let Some(spec) = flag_value(args, "--inject-io")? else {
        return Ok(None);
    };
    let (word, per_mille) = match spec.split_once(':') {
        None => (spec, 1000),
        Some((word, pm)) => {
            let pm = pm
                .parse::<u16>()
                .ok()
                .filter(|pm| *pm <= 1000)
                .ok_or_else(|| {
                    format!("--inject-io PM must be a per-mille rate (0..=1000), got {spec:?}")
                })?;
            (word, pm)
        }
    };
    let kind = IoFaultKind::from_name(word).ok_or_else(|| {
        format!(
            "--inject-io needs torn|short-read|enospc|rename-fail (optionally :PM), got {spec:?}"
        )
    })?;
    Ok(Some(IoFault { kind, per_mille }))
}

/// [`parse_inject_io`], exiting 2 with the error on a malformed value.
pub fn inject_io_flag(args: &[String]) -> Option<IoFault> {
    parse_inject_io(args).unwrap_or_else(|e| exit_usage(e))
}

/// Parses `--adaptive[=ALPHA]` into the [`SequentialTest`] that settles
/// cells against the driver's verdict `threshold`; `Ok(None)` when
/// absent. The bare flag uses [`SequentialTest::DEFAULT_ALPHA`]; an
/// explicit alpha must lie in (0, 1).
///
/// `--adaptive` conflicts with `--kill-after`: the kill switch counts
/// engine shards, and early stopping changes how many shards a cell
/// needs, so the combination would make "kill after N" depend on the
/// statistics it is supposed to be testing.
pub fn parse_adaptive(args: &[String], threshold: f64) -> Result<Option<SequentialTest>, String> {
    let alpha = match eq_flag(args, "--adaptive") {
        None => return Ok(None),
        Some(None) => SequentialTest::DEFAULT_ALPHA,
        Some(Some(v)) => match v.parse::<f64>() {
            Ok(a) if a > 0.0 && a < 1.0 => a,
            _ => {
                return Err(format!(
                    "--adaptive needs an error budget alpha in (0, 1), got {v:?}"
                ))
            }
        },
    };
    if args.iter().any(|a| a == "--kill-after") {
        return Err(
            "--adaptive conflicts with --kill-after: the kill switch counts shards, and \
             adaptive early stopping changes how many shards each cell runs \
             (use --deadline for a budget that composes with --adaptive)"
                .to_owned(),
        );
    }
    Ok(Some(SequentialTest { alpha, threshold }))
}

/// Parses `--designs sa,sp,rf,fs,ft,ms` into a design-column list;
/// `Ok(None)` when absent (drivers keep the classic SA/SP/RF columns).
///
/// Names are case-insensitive and deduplicated; an unknown or repeated
/// name is rejected so a typo can never silently shrink the campaign.
pub fn parse_designs(args: &[String]) -> Result<Option<Vec<TlbDesign>>, String> {
    let Some(spec) = flag_value(args, "--designs")? else {
        return Ok(None);
    };
    let mut designs = Vec::new();
    for word in spec.split(',') {
        match TlbDesign::from_name(&word.trim().to_ascii_uppercase()) {
            Some(d) if designs.contains(&d) => {
                return Err(format!("--designs lists {d} more than once"))
            }
            Some(d) => designs.push(d),
            None => {
                let known: Vec<String> = TlbDesign::EXTENDED
                    .iter()
                    .map(|d| d.name().to_ascii_lowercase())
                    .collect();
                return Err(format!(
                    "--designs: unknown design {word:?} (known: {})",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(Some(designs))
}

/// Parses `--events PATH` (JSONL event-stream sink); `Ok(None)` when
/// absent.
pub fn parse_events(args: &[String]) -> Result<Option<PathBuf>, String> {
    Ok(flag_value(args, "--events")?.map(PathBuf::from))
}

/// Parses `--metrics PATH` (aggregated metrics snapshot, conventionally
/// `BENCH_<driver>.json`); `Ok(None)` when absent.
pub fn parse_metrics(args: &[String]) -> Result<Option<PathBuf>, String> {
    Ok(flag_value(args, "--metrics")?.map(PathBuf::from))
}

/// Rejects `--adaptive` on drivers whose verdicts are not a per-cell
/// two-proportion test (exit 2 with a driver-specific message).
pub fn reject_adaptive(args: &[String], driver: &str) {
    if eq_flag(args, "--adaptive").is_some() {
        exit_usage(format!(
            "{driver} does not support --adaptive: its cells are not defended/vulnerable \
             verdicts a sequential test can settle early"
        ));
    }
}

/// [`parse_workers`], exiting 2 with the error on a malformed value.
pub fn workers_flag(args: &[String]) -> Option<NonZeroUsize> {
    parse_workers(args).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_trials`], exiting 2 with the error on a malformed value.
pub fn trials_flag(args: &[String], default: u32) -> u32 {
    parse_trials(args, default).unwrap_or_else(|e| exit_usage(e))
}

/// [`flag_value`], exiting 2 with the error when the value is missing.
pub fn value_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    flag_value(args, flag).unwrap_or_else(|e| exit_usage(e))
}

/// [`flag_num`], or `default` without the flag; exits 2 with the error
/// on a missing or malformed value.
pub fn num_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_num(args, flag)
        .unwrap_or_else(|e| exit_usage(e))
        .unwrap_or(default)
}

/// [`parse_campaign`], exiting 2 with the error on a malformed value.
pub fn campaign_flags(args: &[String]) -> RunPolicy {
    parse_campaign(args).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_adaptive`], exiting 2 with the error on a malformed value.
pub fn adaptive_flags(args: &[String], threshold: f64) -> Option<SequentialTest> {
    parse_adaptive(args, threshold).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_designs`], exiting 2 with the error on a malformed value.
pub fn designs_flag(args: &[String]) -> Option<Vec<TlbDesign>> {
    parse_designs(args).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_events`], exiting 2 with the error on a malformed value.
pub fn events_flag(args: &[String]) -> Option<PathBuf> {
    parse_events(args).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_metrics`], exiting 2 with the error on a malformed value.
pub fn metrics_flag(args: &[String]) -> Option<PathBuf> {
    parse_metrics(args).unwrap_or_else(|e| exit_usage(e))
}

/// [`parse_oracle`], exiting 2 with the error on a malformed value.
pub fn oracle_flags(
    args: &[String],
    policy: &RunPolicy,
    tag: &'static str,
) -> Option<OracleConfig> {
    parse_oracle(args, policy, tag).unwrap_or_else(|e| exit_usage(e))
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_workers() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flags_fall_back() {
        assert_eq!(parse_workers(&args(&["prog"])), Ok(None));
        assert_eq!(parse_trials(&args(&["prog"]), 500), Ok(500));
        let policy = parse_campaign(&args(&["prog"])).expect("defaults");
        assert_eq!(policy, RunPolicy::default());
        assert!(!policy.has_options());
    }

    #[test]
    fn explicit_values_parse() {
        assert_eq!(
            parse_workers(&args(&["prog", "--workers", "4"])),
            Ok(NonZeroUsize::new(4))
        );
        assert_eq!(
            parse_trials(&args(&["prog", "--trials", "50"]), 500),
            Ok(50)
        );
    }

    #[test]
    fn zero_workers_is_rejected_with_a_specific_message() {
        let err = parse_workers(&args(&["prog", "--workers", "0"])).expect_err("rejected");
        assert!(err.contains("--workers must be at least 1"), "{err}");
        assert!(err.contains("zero workers"), "{err}");
    }

    #[test]
    fn malformed_workers_values_are_rejected() {
        assert!(parse_workers(&args(&["prog", "--workers", "many"])).is_err());
        assert!(parse_workers(&args(&["prog", "--workers", "-3"])).is_err());
        assert!(parse_workers(&args(&["prog", "--workers"])).is_err());
    }

    #[test]
    fn auto_resolves_to_a_positive_count() {
        let w = parse_workers(&args(&["prog", "--workers", "auto"]))
            .expect("parses")
            .expect("some");
        assert!(w.get() >= 1);
    }

    #[test]
    fn campaign_flags_build_a_policy() {
        let policy = parse_campaign(&args(&[
            "prog",
            "--retries",
            "5",
            "--checkpoint",
            "/tmp/ck",
            "--checkpoint-every",
            "3",
            "--resume",
            "/tmp/ck",
            "--kill-after",
            "10",
            "--stall-deadline-ms",
            "250",
            "--inject-panics",
            "100",
            "--inject-fatal",
            "7",
            "--fault-seed",
            "99",
        ]))
        .expect("parses");
        assert!(policy.has_options());
        assert_eq!(policy.max_retries, 5);
        assert_eq!(policy.stop_after, Some(10));
        assert_eq!(policy.stall_deadline, Some(Duration::from_millis(250)));
        let cp = policy.checkpoint.expect("checkpoint");
        assert_eq!(cp.path, PathBuf::from("/tmp/ck"));
        assert_eq!(cp.every, 3);
        assert_eq!(policy.resume, Some(PathBuf::from("/tmp/ck")));
        let faults = policy.faults.expect("faults");
        assert_eq!(faults.panic_per_mille, 100);
        assert_eq!(faults.fatal_per_mille, 7);
        assert_eq!(faults.seed, 99);
    }

    #[test]
    fn oracle_flag_is_off_by_default_and_parses_rates() {
        let policy = RunPolicy::default();
        assert_eq!(parse_oracle(&args(&["prog"]), &policy, "t"), Ok(None));
        let bare = parse_oracle(&args(&["prog", "--oracle"]), &policy, "t")
            .expect("parses")
            .expect("armed");
        assert_eq!(bare.rate_per_mille, 1000);
        assert_eq!(bare.corrupt_per_mille, 0);
        assert_eq!(bare.tag, "t");
        let sampled = parse_oracle(&args(&["prog", "--oracle=25"]), &policy, "t")
            .expect("parses")
            .expect("armed");
        assert_eq!(sampled.rate_per_mille, 25);
        assert!(
            parse_oracle(&args(&["prog", "--oracle=1001"]), &policy, "t")
                .expect_err("rejected")
                .contains("--oracle")
        );
    }

    #[test]
    fn inject_corruption_arms_the_oracle_and_the_engine() {
        let a = args(&["prog", "--inject-corruption", "--fault-seed", "7"]);
        let policy = parse_campaign(&a).expect("parses");
        assert!(policy.has_options(), "corruption sets an option");
        assert_eq!(
            policy.faults.as_ref().expect("faults").corrupt_per_mille,
            1000
        );
        let cfg = parse_oracle(&a, &policy, "t")
            .expect("parses")
            .expect("corruption alone arms the oracle");
        assert_eq!(
            cfg.rate_per_mille, 0,
            "no --oracle: only corrupted trials checked"
        );
        assert_eq!(cfg.corrupt_per_mille, 1000);
        assert_eq!(cfg.seed, 7, "--fault-seed drives the corruption rolls");

        let a = args(&["prog", "--oracle=500", "--inject-corruption=30"]);
        let policy = parse_campaign(&a).expect("parses");
        let cfg = parse_oracle(&a, &policy, "t")
            .expect("parses")
            .expect("armed");
        assert_eq!(cfg.rate_per_mille, 500);
        assert_eq!(cfg.corrupt_per_mille, 30);
        assert!(parse_campaign(&args(&["prog", "--inject-corruption=abc"])).is_err());
    }

    #[test]
    fn budget_flags_build_a_policy() {
        let policy = parse_campaign(&args(&[
            "prog",
            "--deadline",
            "2.5",
            "--cell-deadline-ms",
            "40",
        ]))
        .expect("parses");
        assert!(policy.has_options(), "a budget sets an option");
        assert_eq!(policy.budget.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(policy.budget.cell_deadline, Some(Duration::from_millis(40)));
    }

    #[test]
    fn malformed_budget_values_are_rejected() {
        for bad in [
            &["prog", "--deadline", "0"][..],
            &["prog", "--deadline", "-3"],
        ] {
            assert!(parse_campaign(&args(bad))
                .expect_err("rejected")
                .contains("--deadline needs a positive number"));
        }
        assert!(parse_campaign(&args(&["prog", "--deadline", "soon"]))
            .expect_err("rejected")
            .contains("--deadline"));
        assert!(parse_campaign(&args(&["prog", "--cell-deadline-ms", "0"]))
            .expect_err("rejected")
            .contains("--cell-deadline-ms must be at least 1"));
    }

    #[test]
    fn kill_after_needs_a_checkpoint_and_a_positive_count() {
        let err = parse_campaign(&args(&["prog", "--kill-after", "3"])).expect_err("rejected");
        assert!(err.contains("requires --checkpoint"), "{err}");
        assert!(err.contains("discards all completed work"), "{err}");
        let err = parse_campaign(&args(&["prog", "--checkpoint", "ck", "--kill-after", "0"]))
            .expect_err("rejected");
        assert!(err.contains("--kill-after must be at least 1"), "{err}");
    }

    #[test]
    fn worker_death_parses_and_conflicts_with_kill_after() {
        let policy =
            parse_campaign(&args(&["prog", "--inject-worker-death", "1:2"])).expect("parses");
        assert!(policy.has_options(), "death injection sets an option");
        assert_eq!(policy.faults.expect("faults").worker_death, Some((1, 2)));
        for bad in ["3", "1:", ":2", "a:b", "1:2:3"] {
            let err = parse_campaign(&args(&["prog", "--inject-worker-death", bad]))
                .expect_err("rejected");
            assert!(err.contains("needs W:K"), "{bad}: {err}");
        }
        let err = parse_campaign(&args(&[
            "prog",
            "--checkpoint",
            "ck",
            "--kill-after",
            "3",
            "--inject-worker-death",
            "0:1",
        ]))
        .expect_err("rejected");
        assert!(err.contains("conflicts with --kill-after"), "{err}");
    }

    #[test]
    fn inject_io_parses_kinds_and_rates() {
        assert_eq!(parse_inject_io(&args(&["prog"])), Ok(None));
        let torn = parse_inject_io(&args(&["prog", "--inject-io", "torn"]))
            .expect("parses")
            .expect("armed");
        assert_eq!(torn.kind, IoFaultKind::Torn);
        assert_eq!(torn.per_mille, 1000, "bare KIND means every operation");
        let sampled = parse_inject_io(&args(&["prog", "--inject-io", "enospc:250"]))
            .expect("parses")
            .expect("armed");
        assert_eq!(sampled.kind, IoFaultKind::Enospc);
        assert_eq!(sampled.per_mille, 250);
        for bad in ["sparks", "torn:1001", "torn:x", ":5"] {
            assert!(
                parse_inject_io(&args(&["prog", "--inject-io", bad])).is_err(),
                "accepted {bad:?}"
            );
        }
        // It folds into the fault plan and routes through the engine.
        let policy = parse_campaign(&args(&[
            "prog",
            "--inject-io",
            "torn:1000",
            "--fault-seed",
            "11",
        ]))
        .expect("parses");
        assert!(policy.has_options());
        let faults = policy.faults.expect("faults");
        assert_eq!(
            faults.io,
            Some(IoFault {
                kind: IoFaultKind::Torn,
                per_mille: 1000
            })
        );
        assert_eq!(faults.seed, 11, "--fault-seed drives the I/O rolls too");
    }

    #[test]
    fn adaptive_flag_parses_alpha_and_conflicts_with_kill_after() {
        assert_eq!(parse_adaptive(&args(&["prog"]), 0.05), Ok(None));
        let bare = parse_adaptive(&args(&["prog", "--adaptive"]), 0.06)
            .expect("parses")
            .expect("armed");
        assert_eq!(bare.alpha, SequentialTest::DEFAULT_ALPHA);
        assert_eq!(bare.threshold, 0.06, "the driver's verdict threshold");
        let tuned = parse_adaptive(&args(&["prog", "--adaptive=0.05"]), 0.05)
            .expect("parses")
            .expect("armed");
        assert_eq!(tuned.alpha, 0.05);
        for bad in ["--adaptive=0", "--adaptive=1", "--adaptive=lots"] {
            assert!(parse_adaptive(&args(&["prog", bad]), 0.05)
                .expect_err("rejected")
                .contains("alpha in (0, 1)"));
        }
        let err = parse_adaptive(&args(&["prog", "--adaptive", "--kill-after", "2"]), 0.05)
            .expect_err("rejected");
        assert!(err.contains("conflicts with --kill-after"), "{err}");
    }

    #[test]
    fn designs_flag_parses_extended_lists_and_rejects_typos() {
        assert_eq!(parse_designs(&args(&["prog"])), Ok(None));
        assert_eq!(
            parse_designs(&args(&["prog", "--designs", "sa,sp,rf"])),
            Ok(Some(TlbDesign::ALL.to_vec()))
        );
        assert_eq!(
            parse_designs(&args(&["prog", "--designs", "SA,fs,Ft,ms"])),
            Ok(Some(vec![
                TlbDesign::Sa,
                TlbDesign::Fs,
                TlbDesign::Ft,
                TlbDesign::Ms
            ]))
        );
        let err = parse_designs(&args(&["prog", "--designs", "sa,xx"])).expect_err("rejected");
        assert!(err.contains("unknown design \"xx\""), "{err}");
        assert!(err.contains("fs, ft, ms"), "{err}");
        let err = parse_designs(&args(&["prog", "--designs", "rf,rf"])).expect_err("rejected");
        assert!(err.contains("more than once"), "{err}");
        assert!(parse_designs(&args(&["prog", "--designs"])).is_err());
    }

    #[test]
    fn observability_flags_are_off_by_default_and_parse_paths() {
        assert_eq!(parse_events(&args(&["prog"])), Ok(None));
        assert_eq!(parse_metrics(&args(&["prog"])), Ok(None));
        assert_eq!(
            parse_events(&args(&["prog", "--events", "ev.jsonl"])),
            Ok(Some(PathBuf::from("ev.jsonl")))
        );
        assert_eq!(
            parse_metrics(&args(&["prog", "--metrics", "BENCH_table4.json"])),
            Ok(Some(PathBuf::from("BENCH_table4.json")))
        );
        assert!(parse_events(&args(&["prog", "--events"]))
            .expect_err("rejected")
            .contains("--events needs a value"));
        assert!(parse_metrics(&args(&["prog", "--metrics"]))
            .expect_err("rejected")
            .contains("--metrics needs a value"));
    }

    #[test]
    fn unknown_flags_are_named() {
        let table4 = [ENGINE_FLAGS, CAMPAIGN_FLAGS, &["--trials", "--adaptive"]].concat();
        for (argv, unknown) in [
            (&["table4", "--trials", "2"][..], None),
            (&["table4", "--oracle=50", "--adaptive=0.01"], None),
            (
                &["table4", "--trials", "2", "--no-such-flag"],
                Some("--no-such-flag"),
            ),
            (&["table4", "--trails", "7"], Some("--trails")),
            (&["table4", "--seed", "5"], Some("--seed")),
            (&["table4", "--trials=7"], Some("--trials=7")),
            (&["table4", "--"], Some("--")),
            (&["table4", "-h", "file.ron", "42"], None),
        ] {
            assert_eq!(unknown_flag(&args(argv), &table4), unknown, "{argv:?}");
        }
        assert_eq!(unknown_flag(&args(&["table2"]), &[]), None);
        assert_eq!(
            unknown_flag(&args(&["table2", "--workers", "2"]), &[]),
            Some("--workers")
        );
    }

    #[test]
    fn campaign_flag_errors_are_specific() {
        assert!(parse_campaign(&args(&["prog", "--retries", "x"]))
            .expect_err("rejected")
            .contains("--retries"));
        assert!(parse_campaign(&args(&["prog", "--checkpoint-every", "4"]))
            .expect_err("rejected")
            .contains("requires --checkpoint"));
        assert!(parse_campaign(&args(&[
            "prog",
            "--checkpoint",
            "p",
            "--checkpoint-every",
            "0"
        ]))
        .expect_err("rejected")
        .contains("at least 1"));
    }
}
