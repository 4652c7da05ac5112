//! Driver-side glue for the campaign engine.
//!
//! Every campaign binary runs its task list through the engine's pool
//! ([`sectlb_secbench::resilience::run_sharded_resilient_observed`]),
//! with or without flags: install the signal handlers, run the tasks
//! under a driver-specific fingerprint, and hand back the
//! [`ResilientRun`], which surfaces quarantined/stalled shards on stderr
//! and translates the outcome into a process exit code — see
//! [`crate::exit`] for the full code table. A *flagless* run (no
//! `--workers`, no [`RunPolicy`] option) prints only its table; drivers
//! call [`ResilientRun::eprint_summary`] only on a [`flagged`] run.
//!
//! A run the supervisor stopped early (wall-clock `--deadline` expiry or
//! SIGINT/SIGTERM) is **not** an error: the engine drains, flushes the
//! checkpoint, and returns with explicit [`ShardOutcome::Skipped`] /
//! [`ShardOutcome::TimedOut`] gaps, so the driver still renders its
//! (partial) table and exits [`crate::exit::EXIT_BUDGET`].

use std::num::NonZeroUsize;

use sectlb_secbench::checkpoint::{fingerprint, fingerprint_str, Record};
use sectlb_secbench::resilience::{
    run_sharded_resilient_observed, with_campaign_events, ResilientRun, RunPolicy, ShardOutcome,
};
use sectlb_secbench::supervisor;
use sectlb_secbench::telemetry::Telemetry;

/// Runs a driver's task list through the engine.
///
/// Installs the SIGINT/SIGTERM handlers first, so an interrupted campaign
/// drains through the same flush-checkpoint-render-partial path as a
/// `--deadline` expiry. The campaign fingerprint — what a `--resume`
/// checkpoint must match — combines the driver `name` with the
/// driver-specific `coordinates` (trial counts, seeds, anything that
/// changes results). `telemetry` gets the campaign start/stop envelope
/// around the engine's per-shard event stream. On a
/// [`sectlb_secbench::resilience::CampaignError`] (checkpoint problems,
/// `--kill-after` interruption) the error is printed and the process
/// exits with the error's code.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_observed<T, R>(
    name: &str,
    coordinates: impl IntoIterator<Item = u64>,
    tasks: &[T],
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
    label: &(dyn Fn(&T) -> String + Sync),
    f: impl Fn(&T) -> R + Sync,
) -> ResilientRun<R>
where
    T: Sync,
    R: Send + Record,
{
    supervisor::install_signal_handlers();
    let fp = fingerprint(fingerprint_str(name), coordinates);
    with_campaign_events(
        telemetry,
        fp,
        tasks.len(),
        workers,
        || run_sharded_resilient_observed(tasks, workers, policy, fp, label, telemetry, f),
        |run| {
            let completed = run.results.iter().filter(|r| r.is_done()).count();
            (run.stop, completed, run.stats.wall)
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.exit_code());
    })
}

/// Whether a driver run is *flagged*: given `--workers` or any
/// [`RunPolicy`] option. Only a flagged run prints the `pool:` summary and
/// progress detail on stderr; a flagless run prints exactly its table.
pub fn flagged(workers: Option<NonZeroUsize>, policy: &RunPolicy) -> bool {
    workers.is_some() || policy.has_options()
}

/// The marker a driver should print for an aggregate row whose tasks did
/// not all complete: QUARANTINED dominates (those shards exhausted their
/// retries and will not finish on resume), then TIMEOUT (a cell's shard
/// overran `--cell-deadline-ms`), then PARTIAL (the budget stopped the
/// campaign before the cell was claimed). `None` when every task is done.
pub fn gap_marker<R>(outcomes: &[ShardOutcome<R>]) -> Option<&'static str> {
    if outcomes.iter().any(|r| r.failure().is_some()) {
        Some("QUARANTINED")
    } else if outcomes
        .iter()
        .any(|r| matches!(r, ShardOutcome::TimedOut(_)))
    {
        Some("TIMEOUT")
    } else if outcomes
        .iter()
        .any(|r| matches!(r, ShardOutcome::Skipped(_)))
    {
        Some("PARTIAL")
    } else {
        None
    }
}
