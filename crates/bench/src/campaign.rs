//! Driver-side glue for the campaign engine.
//!
//! Every campaign binary runs through the engine, with or without flags:
//! the security drivers their [`TrialCell`]s on the cells layer
//! ([`measure_cells_observed`]), the others their task list on the pool
//! ([`run_campaign_observed`]). Either way the glue installs the signal
//! handlers, runs under a driver-specific fingerprint, and hands back an
//! outcome that surfaces quarantined/stalled work on stderr and
//! translates into a process exit code — see [`crate::exit`] for the
//! full code table. A *flagless* run (no `--workers`, no [`RunPolicy`]
//! option) prints only its table; drivers call `eprint_summary` only on a
//! [`flagged`] run.
//!
//! A run the supervisor stopped early (wall-clock `--deadline` expiry or
//! SIGINT/SIGTERM) is **not** an error: the engine drains, flushes the
//! checkpoint, and returns with explicit [`ShardOutcome::Skipped`] /
//! [`ShardOutcome::TimedOut`] gaps, so the driver still renders its
//! (partial) table and exits [`crate::exit::EXIT_BUDGET`].

use std::num::NonZeroUsize;

use sectlb_secbench::checkpoint::{fingerprint, fingerprint_str, settings_fingerprint, Record};
use sectlb_secbench::resilience::{
    measure_cells_resilient_observed, run_sharded_resilient_observed, with_campaign_events,
    CampaignOutcome, CellOutcome, ResilientRun, RunPolicy, ShardOutcome,
};
use sectlb_secbench::run::{TrialCell, TrialSettings};
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

/// Runs a driver's cells on the engine's cells layer, exhaustively or,
/// with [`RunPolicy::adaptive`], until each cell's verdict is settled.
///
/// Like [`run_campaign_observed`]: the signal handlers go in first, the
/// campaign fingerprint combines the driver `name` with the settings that
/// determine results and the cell count, and a
/// [`sectlb_secbench::resilience::CampaignError`] is printed and exits
/// with its code.
pub fn measure_cells_observed(
    name: &str,
    cells: &[TrialCell<'_>],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
) -> CampaignOutcome {
    supervisor::install_signal_handlers();
    let fp = fingerprint(
        fingerprint_str(name),
        [settings_fingerprint(settings), cells.len() as u64],
    );
    measure_cells_resilient_observed(cells, fp, settings, workers, policy, telemetry)
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
    dominant_gap(outcomes.iter().map(|r| match r {
        ShardOutcome::Done(_) => None,
        ShardOutcome::Quarantined(_) => Some("QUARANTINED"),
        ShardOutcome::TimedOut(_) => Some("TIMEOUT"),
        ShardOutcome::Skipped(_) => Some("PARTIAL"),
    }))
}

/// [`gap_marker`] for an aggregate row of cells.
pub fn cells_gap_marker(cells: &[CellOutcome]) -> Option<&'static str> {
    dominant_gap(cells.iter().map(|c| match c {
        CellOutcome::Measured(_) => None,
        CellOutcome::Quarantined { .. } => Some("QUARANTINED"),
        CellOutcome::Partial { gap, .. } => Some(gap.marker()),
    }))
}

/// The first of [`gap_marker`]'s markers in its order of dominance.
fn dominant_gap(markers: impl Iterator<Item = Option<&'static str>>) -> Option<&'static str> {
    const ORDER: [&str; 3] = ["QUARANTINED", "TIMEOUT", "PARTIAL"];
    markers
        .flatten()
        .min_by_key(|m| ORDER.iter().position(|o| o == m))
}
