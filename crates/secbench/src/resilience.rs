//! The campaign engine: the one way campaign work is sharded.
//!
//! The paper's security evaluation is tens of thousands of independent
//! simulations per campaign, all of one shape: independent trial shards
//! merged by sums. The engine has three layers, each built on the one
//! before:
//!
//! 1. **The pool** — [`run_sharded_resilient_observed`] runs any task
//!    list on scoped worker threads with work-stealing deques
//!    ([`crate::scheduler`]), one outcome per task in task order.
//! 2. **Cells** — [`measure_cells_resilient_observed`] splits
//!    `(vulnerability, design)` cells into trial shards
//!    ([`crate::parallel`]), runs them on the pool, and merges them back
//!    per cell — exhaustively in one pool run, or in rounds that stop
//!    each cell early when [`RunPolicy::adaptive`] is set.
//! 3. **Campaigns** — the Table 4 builder
//!    ([`crate::report::build_table4_resilient_observed_for`]) on top of
//!    the cells, and the drivers' own task lists directly on the pool.
//!
//! A campaign that dies loses nothing it finished, and a failing shard
//! degrades the result instead of aborting it:
//!
//! - **Panic isolation + deterministic retry** — every shard executes
//!   under [`std::panic::catch_unwind`]. Because a trial's seed is a pure
//!   function of its coordinates ([`crate::run::derive_trial_seed`]), a
//!   failed shard is retried *identically* up to
//!   [`RunPolicy::max_retries`] times; a shard that keeps failing is
//!   **quarantined** — reported as a [`ShardFailure`] carrying its
//!   coordinates and panic payload — instead of killing the campaign.
//! - **Crash-safe checkpoint/resume** — completed shard results are
//!   periodically serialized via [`crate::checkpoint`] (temp file +
//!   atomic rename). A resumed run skips recorded shards and, by the
//!   determinism contract, produces bitwise-identical final output to an
//!   uninterrupted run.
//! - **Watchdog** — an optional per-shard deadline; workers that exceed
//!   it are reported as [`StallEvent`]s and counted in
//!   [`PoolStats::stalled`].
//! - **Fault injection** — a deterministic [`FaultPlan`] (seeded by shard
//!   index, enabled only through test/CLI flags) makes chosen shards
//!   panic or stall, so the integration suite can *prove* the properties
//!   above: kill-and-resume equals uninterrupted, injected panics
//!   converge after retry, quarantine never silently drops a cell.
//! - **Resource budget** — a [`BudgetPolicy`] ([`crate::supervisor`])
//!   stops the claim loop on deadline expiry or a latched SIGINT/SIGTERM,
//!   drains in-flight shards (preempting them at trial boundaries when a
//!   per-shard deadline is set), flushes the checkpoint, and returns a
//!   *partial* [`ResilientRun`] whose unexecuted shards are explicit
//!   [`ShardOutcome::Skipped`]/[`ShardOutcome::TimedOut`] entries.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

use sectlb_model::Vulnerability;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};

use crate::adaptive::{self, next_trials, AdaptiveCellState, AdaptivePolicy, SequentialTest};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, Record, RecoveredLoad};
use crate::iofault::{IoFault, IoInjector};
use crate::parallel::{distribute_trial_counts, plan_shards, PoolStats, Shard, WorkerStats};
use crate::run::{
    splitmix64, vulnerability_code, CellSetup, Measurement, SetupError, TrialSettings,
};
use crate::scheduler::StealQueues;
use crate::spec::BenchmarkSpec;
use crate::supervisor::{self, BudgetPolicy, ShardPreempted, StopReason, Supervisor, EXIT_BUDGET};
use crate::telemetry::{duration_ns, stop_reason_str, Event, Telemetry};

/// Exit code drivers use when a campaign completed but quarantined at
/// least one shard (the results are explicit about which cells are
/// missing — never a silent abort).
pub const EXIT_QUARANTINED: i32 = 4;

/// One shard that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard's index in the campaign task list.
    pub index: usize,
    /// Human-readable coordinates ("what was this shard measuring").
    pub task: String,
    /// Attempts made (1 initial + retries) before quarantining.
    pub attempts: u32,
    /// The panic payload of the last attempt.
    pub payload: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} [{}] quarantined after {} attempt(s): {}",
            self.index, self.task, self.attempts, self.payload
        )
    }
}

impl std::error::Error for ShardFailure {}

/// A worker that exceeded the watchdog's per-shard deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The stalled worker's id.
    pub worker: usize,
    /// The shard it was executing when flagged.
    pub task: usize,
    /// How long the shard had been running when flagged.
    pub waited: Duration,
}

/// Campaign-level failures — the typed hierarchy that propagates from the
/// simulator's map/translate errors ([`SetupError`]) and the checkpoint
/// layer up to driver exit codes.
#[derive(Debug)]
pub enum CampaignError {
    /// Loading, validating, or writing a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The run was deliberately interrupted (`--kill-after`) before every
    /// shard completed; a final checkpoint was written if one was
    /// configured.
    Interrupted {
        /// Shards completed before the interrupt (including resumed).
        completed: usize,
        /// Total shards in the campaign.
        total: usize,
        /// Where the final checkpoint was saved, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
    /// Machine setup failed outside an engine task (inside one, a setup
    /// failure panics the shard, which is retried and then quarantined).
    Setup(SetupError),
}

impl CampaignError {
    /// The process exit code a driver should use for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CampaignError::Checkpoint(_) => 2,
            CampaignError::Interrupted { .. } => 3,
            CampaignError::Setup(_) => 5,
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Interrupted {
                completed,
                total,
                checkpoint,
            } => {
                write!(
                    f,
                    "campaign interrupted: {completed}/{total} shards complete"
                )?;
                match checkpoint {
                    Some(path) => write!(f, "; checkpoint saved to {}", path.display()),
                    None => write!(f, "; no checkpoint was configured — progress lost"),
                }
            }
            CampaignError::Setup(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Setup(e) => Some(e),
            CampaignError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> CampaignError {
        CampaignError::Checkpoint(e)
    }
}

impl From<SetupError> for CampaignError {
    fn from(e: SetupError) -> CampaignError {
        CampaignError::Setup(e)
    }
}

/// A deterministic plan of injected faults, keyed by shard index.
///
/// Whether a given shard faults — and on which attempts — is a pure
/// function of `(seed, shard index, attempt)`, so an injected campaign is
/// exactly reproducible: the integration suite relies on this to prove
/// that retried shards converge to the fault-free results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed of the plan.
    pub seed: u64,
    /// Per-mille of shards whose first [`FaultPlan::panic_attempts`]
    /// attempts panic (transient faults — retry recovers them).
    pub panic_per_mille: u16,
    /// How many leading attempts of a transiently faulty shard panic.
    pub panic_attempts: u32,
    /// Per-mille of shards that panic on *every* attempt (permanent
    /// faults — these end up quarantined).
    pub fatal_per_mille: u16,
    /// Per-mille of shards whose first attempt stalls for
    /// [`FaultPlan::stall`] before running (watchdog fodder).
    pub stall_per_mille: u16,
    /// Injected stall duration.
    pub stall: Duration,
    /// Per-mille of *trials* whose TLB gets one entry deterministically
    /// corrupted mid-run (`--inject-corruption`). Unlike the other knobs
    /// this is not a shard-level fault: drivers forward it to
    /// [`crate::oracle::OracleConfig`], which schedules the corruption
    /// inside the simulated machine where only the shadow oracle can
    /// catch it.
    pub corrupt_per_mille: u16,
    /// Kill worker `W` (its claim loop exits without delivering the shard
    /// it just claimed) once it has completed `K` shards — `(W, K)` from
    /// `--inject-worker-death W:K`. The supervision layer must detect the
    /// death, reclaim the abandoned shard, and finish the campaign with
    /// output bitwise identical to an undisturbed run.
    pub worker_death: Option<(u32, u32)>,
    /// Storage fault injection (`--inject-io KIND:PM`): torn writes,
    /// short reads, ENOSPC, or failed renames on the durable-write seam
    /// under checkpoints and the job manifest. Rolls are keyed by
    /// [`FaultPlan::seed`] and a per-operation counter (see
    /// [`crate::iofault::IoInjector`]), so an injected run replays
    /// exactly.
    pub io: Option<IoFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xfa_017,
            panic_per_mille: 0,
            panic_attempts: 1,
            fatal_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::from_millis(100),
            corrupt_per_mille: 0,
            worker_death: None,
            io: None,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_per_mille > 0
            || self.fatal_per_mille > 0
            || self.stall_per_mille > 0
            || self.corrupt_per_mille > 0
            || self.worker_death.is_some()
            || self.io.is_some()
    }

    /// The I/O fault injector this plan configures (disabled when
    /// `--inject-io` was not given).
    pub fn io_injector(&self) -> IoInjector {
        match self.io {
            Some(fault) => IoInjector::new(self.seed, fault),
            None => IoInjector::disabled(),
        }
    }

    /// Whether the plan kills `worker` at its next claim once it has
    /// completed `shards_done` shards.
    pub fn kills_worker(&self, worker: usize, shards_done: usize) -> bool {
        self.worker_death == Some((worker as u32, shards_done as u32))
    }

    fn roll(&self, index: usize, salt: u64) -> u16 {
        (splitmix64(splitmix64(self.seed ^ salt) ^ index as u64) % 1000) as u16
    }

    /// Whether the plan permanently fails shard `index`.
    pub fn is_fatal(&self, index: usize) -> bool {
        self.roll(index, 0xdead) < self.fatal_per_mille
    }

    /// Executes the planned fault for `(index, attempt)`, if any:
    /// sleeps for injected stalls, panics for injected faults.
    pub fn inject(&self, index: usize, attempt: u32) {
        if self.roll(index, 0x57a11) < self.stall_per_mille && attempt == 0 {
            std::thread::sleep(self.stall);
        }
        if self.is_fatal(index) {
            panic!("injected permanent fault in shard {index} (attempt {attempt})");
        }
        if self.roll(index, 0x9a71c) < self.panic_per_mille && attempt < self.panic_attempts {
            panic!("injected transient fault in shard {index} (attempt {attempt})");
        }
    }
}

/// How an engine run behaves around failure, budgets, and early stopping.
/// Every option is off by default.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Retries per shard after the initial attempt (deterministic: the
    /// retried shard reruns with identical seeds).
    pub max_retries: u32,
    /// Per-shard watchdog deadline; `None` disables the watchdog.
    pub stall_deadline: Option<Duration>,
    /// Deterministic fault injection (test/CLI harness only).
    pub faults: Option<FaultPlan>,
    /// Halt the run after this many newly completed shards — a
    /// deterministic stand-in for `kill -9` used by the kill/resume
    /// integration tests and the CI smoke job.
    pub stop_after: Option<usize>,
    /// Periodic crash-safe checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from this checkpoint (skip its recorded shards). A missing
    /// file is treated as a fresh start so resume flags are idempotent.
    pub resume: Option<PathBuf>,
    /// The resource budget (`--deadline` / `--cell-deadline-ms`) enforced
    /// by the [`crate::supervisor`]. Inactive by default.
    pub budget: BudgetPolicy,
    /// A per-run cancellation latch. When the owner trips it, this run —
    /// and only this run — stops at its next claim boundary with
    /// [`StopReason::Cancelled`], draining in-flight shards and flushing
    /// the checkpoint exactly like a graceful signal. `campaignd` arms
    /// one per job so `cancel <id>` preempts a single job.
    pub cancel: Option<crate::supervisor::CancelFlag>,
    /// Sequential early stopping (`--adaptive[=ALPHA]`): the cells layer
    /// ([`measure_cells_resilient_observed`]) stops each cell's trials once
    /// its verdict is settled, checkpointing cell-granular progress. The
    /// pool ignores it — a driver's own tasks decide what one task runs.
    pub adaptive: Option<AdaptivePolicy>,
}

impl Default for RunPolicy {
    fn default() -> RunPolicy {
        RunPolicy {
            max_retries: 2,
            stall_deadline: None,
            faults: None,
            stop_after: None,
            checkpoint: None,
            resume: None,
            budget: BudgetPolicy::default(),
            cancel: None,
            adaptive: None,
        }
    }
}

impl RunPolicy {
    /// Whether any option other than `max_retries` is set. A driver run
    /// with none and no `--workers` is *flagless*: it prints exactly its
    /// table, without the pool summary (see `sectlb_bench::campaign::flagged`).
    pub fn has_options(&self) -> bool {
        self.checkpoint.is_some()
            || self.resume.is_some()
            || self.faults.is_some()
            || self.stop_after.is_some()
            || self.stall_deadline.is_some()
            || self.budget.is_active()
            || self.cancel.is_some()
            || self.adaptive.is_some()
    }
}

/// What became of one shard under the fault-tolerant engine. Every task
/// gets exactly one outcome, in task order — quarantine, preemption, and
/// budget stops are explicit entries, never silent gaps.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome<R> {
    /// The shard completed and produced its result.
    Done(R),
    /// The shard exhausted its retry budget and was quarantined.
    Quarantined(ShardFailure),
    /// The shard overran the per-shard `--cell-deadline-ms` bound and was
    /// preempted at a trial boundary after running this long. Never
    /// checkpointed: a resume re-runs it in full.
    TimedOut(Duration),
    /// The shard was never claimed: the supervisor stopped the campaign
    /// first (deadline expiry or graceful signal).
    Skipped(StopReason),
}

impl<R> ShardOutcome<R> {
    /// The shard's result, if it completed.
    pub fn done(&self) -> Option<&R> {
        match self {
            ShardOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The shard's quarantine report, if it was quarantined.
    pub fn failure(&self) -> Option<&ShardFailure> {
        match self {
            ShardOutcome::Quarantined(f) => Some(f),
            _ => None,
        }
    }

    /// Whether the shard completed.
    pub fn is_done(&self) -> bool {
        matches!(self, ShardOutcome::Done(_))
    }

    /// Whether the shard went unexecuted because of the resource budget
    /// (skipped at the claim boundary or preempted mid-flight).
    pub fn is_budget_gap(&self) -> bool {
        matches!(self, ShardOutcome::TimedOut(_) | ShardOutcome::Skipped(_))
    }

    /// Maps the completed result, preserving the gap variants.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> ShardOutcome<S> {
        match self {
            ShardOutcome::Done(r) => ShardOutcome::Done(f(r)),
            ShardOutcome::Quarantined(q) => ShardOutcome::Quarantined(q),
            ShardOutcome::TimedOut(t) => ShardOutcome::TimedOut(t),
            ShardOutcome::Skipped(s) => ShardOutcome::Skipped(s),
        }
    }
}

/// The outcome of an engine run over a task list.
#[derive(Debug)]
pub struct ResilientRun<R> {
    /// One outcome per task, in task order.
    pub results: Vec<ShardOutcome<R>>,
    /// Pool timing plus resilience counters.
    pub stats: PoolStats,
    /// Tasks skipped because a resume checkpoint already recorded them.
    pub resumed: usize,
    /// Watchdog reports, if a deadline was configured.
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the run early, if it did. `Some` implies
    /// at least one [`ShardOutcome::Skipped`]/[`ShardOutcome::TimedOut`]
    /// entry; a run that drained to completion reports `None` even if a
    /// signal landed after the last claim.
    pub stop: Option<StopReason>,
}

impl<R> ResilientRun<R> {
    /// The quarantined shards, in task order.
    pub fn failures(&self) -> Vec<&ShardFailure> {
        self.results.iter().filter_map(|r| r.failure()).collect()
    }

    /// Whether every shard completed.
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(|r| r.is_done())
    }

    /// Number of tasks the budget left unfinished (preempted or never
    /// claimed).
    pub fn budget_gaps(&self) -> usize {
        self.results.iter().filter(|r| r.is_budget_gap()).count()
    }

    /// The process exit code: [`EXIT_BUDGET`] when the supervisor cut the
    /// run short (the table is partial and a `--resume` can finish it),
    /// else [`EXIT_QUARANTINED`] when shards exhausted their retries,
    /// else 0.
    pub fn exit_code(&self) -> i32 {
        if self.stop.is_some() || self.budget_gaps() > 0 {
            EXIT_BUDGET
        } else if self.results.iter().any(|r| r.failure().is_some()) {
            EXIT_QUARANTINED
        } else {
            0
        }
    }

    /// Maps every completed result, preserving gaps and counters — for
    /// drivers whose task result carries bookkeeping (e.g. adaptive
    /// trials saved) they strip before rendering.
    pub fn map<S>(self, f: impl Fn(R) -> S) -> ResilientRun<S> {
        ResilientRun {
            results: self.results.into_iter().map(|r| r.map(&f)).collect(),
            stats: self.stats,
            resumed: self.resumed,
            stalls: self.stalls,
            stop: self.stop,
        }
    }

    /// Prints the resume/quarantine/stall/stop/pool summary to stderr
    /// (stdout is reserved for the table itself, which scripts diff).
    pub fn eprint_summary(&self) {
        if self.resumed > 0 {
            eprintln!(
                "resumed: {} shard(s) restored from checkpoint",
                self.resumed
            );
        }
        for failure in self.failures() {
            eprintln!("{failure}");
        }
        for stall in &self.stalls {
            eprintln!(
                "stall: worker {} exceeded the watchdog deadline on shard {} (ran {:.2?})",
                stall.worker, stall.task, stall.waited
            );
        }
        if let Some(stop) = self.stop {
            eprintln!(
                "campaign stopped early: {stop} ({} of {} task(s) unfinished)",
                self.budget_gaps(),
                self.results.len()
            );
        }
        eprintln!("pool: {}", self.stats.render());
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Per-worker watchdog bookkeeping: when (nanos since run start, +1 so 0
/// means idle) the worker started its current shard, and which shard.
struct WatchSlot {
    started: AtomicU64,
    task: AtomicUsize,
}

/// What the monitor thread observed: watchdog stalls plus the worker
/// deaths it detected and the abandoned shards it re-enqueued.
struct MonitorReport {
    stalls: Vec<StallEvent>,
    deaths: usize,
    reclaimed: usize,
}

/// Runs `f` over every task on a panic-isolated worker pool with
/// deterministic retry, optional checkpoint/resume, an optional stall
/// watchdog, optional fault injection, and the resource budget — the
/// pool layer of the engine.
///
/// Results land in task order, and — provided `f` is a pure function of
/// its task — are bitwise identical for any worker count, any
/// interleaving of kills and resumes, and any transient-fault plan that
/// retry can absorb. `fingerprint` names the campaign (settings + driver
/// coordinates); checkpoints recording a different fingerprint or task
/// count are rejected rather than resumed. `label` renders a task's
/// coordinates for quarantine reports.
///
/// `telemetry` receives the shard-lifecycle slice of the event schema —
/// resume restores, claim/complete/retry/quarantine/preempt/skip,
/// checkpoint flushes. Campaign-level start/stop events belong to the
/// *caller*, which knows the driver identity; this also keeps the
/// adaptive scheduler's per-round pool runs from emitting nested
/// campaign envelopes. Never call this from inside a task: the
/// preemption flag is per thread and the signal latch per process.
pub fn run_sharded_resilient_observed<T, R, F>(
    tasks: &[T],
    workers: NonZeroUsize,
    policy: &RunPolicy,
    fingerprint: u64,
    label: &(dyn Fn(&T) -> String + Sync),
    telemetry: &Telemetry,
    f: F,
) -> Result<ResilientRun<R>, CampaignError>
where
    T: Sync,
    R: Send + Record,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();
    let injector = policy
        .faults
        .as_ref()
        .map(FaultPlan::io_injector)
        .unwrap_or_default();
    let mut slots: Vec<Option<ShardOutcome<R>>> =
        std::iter::repeat_with(|| None).take(tasks.len()).collect();
    let mut ck = Checkpoint::new(fingerprint, tasks.len());
    let mut resumed = 0usize;
    let mut prior = Duration::ZERO;
    if let Some(loaded) = policy
        .resume
        .as_deref()
        .and_then(|path| load_resume(path, &injector, telemetry))
    {
        loaded.validate(fingerprint, tasks.len())?;
        prior = loaded.consumed;
        for (i, r) in loaded.decoded::<R>()? {
            if slots[i].is_none() {
                resumed += 1;
                ck.record(i, &r);
                slots[i] = Some(ShardOutcome::Done(r));
            }
        }
        if telemetry.is_armed() {
            telemetry.emit(Event::Resume {
                restored: resumed as u64,
                consumed_ns: duration_ns(prior),
            });
        }
    }
    ck.consumed = prior;
    // Wall-clock consumed by earlier runs in the resume chain counts
    // against `--deadline`: a resumed campaign gets the remainder of its
    // budget, never a fresh one.
    let supervisor = Supervisor::with_cancel(policy.budget, prior, policy.cancel.clone());

    let pending: Vec<usize> = (0..tasks.len()).filter(|&i| slots[i].is_none()).collect();
    // The kill switch is enforced at claim time: with `stop_after: Some(n)`
    // exactly `min(n, pending)` shards execute, for any worker count and
    // any shard runtime — the kill point is deterministic, not a race
    // between the collector's halt flag and fast workers draining the
    // queue.
    let claim_cap = policy.stop_after.unwrap_or(usize::MAX);
    let worker_count = workers.get().min(pending.len().max(1));
    // Work-stealing deques over the pending task indices: each worker
    // drains its own contiguous chunk in index order and steals from
    // busier workers once idle. Claims are still counted globally so the
    // `stop_after` cap keeps its exact min(n, pending) semantics.
    let queues = StealQueues::seed(worker_count, &pending);
    let claims = AtomicUsize::new(0);
    // Tasks not yet terminally resolved (completed, preempted, or
    // quarantined). With worker death in play an idle worker cannot
    // treat empty deques as "campaign over": a dead worker's shard may
    // still be waiting for the monitor to reclaim it.
    let outstanding = AtomicUsize::new(pending.len());
    let death_enabled = policy
        .faults
        .as_ref()
        .is_some_and(|plan| plan.worker_death.is_some());
    let alive: Vec<AtomicBool> = (0..worker_count).map(|_| AtomicBool::new(true)).collect();
    // Shards the monitor quarantined on behalf of a dead worker; merged
    // into the result slots after the worker scope ends. A side channel
    // (not the mpsc queue) so the monitor never holds a sender alive —
    // the collector's `rx.iter()` ends exactly when the workers drop
    // theirs.
    let dead_failures: StdMutex<Vec<(usize, ShardFailure)>> = StdMutex::new(Vec::new());
    let halt = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    // First supervisor stop observed at a claim boundary; set-once so the
    // reported reason is the one that actually stopped the claim loop.
    let stop_slot: OnceLock<StopReason> = OnceLock::new();
    let watch: Vec<WatchSlot> = (0..worker_count)
        .map(|_| WatchSlot {
            started: AtomicU64::new(0),
            task: AtomicUsize::new(0),
        })
        .collect();
    // One preemption flag per worker, shared with the monitor thread; the
    // worker arms its thread-local alias around each shard so the trial
    // loop's `preempt_point` can observe it.
    let preempt: Vec<Arc<AtomicBool>> = (0..worker_count)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let cell_deadline = supervisor.cell_deadline();
    let (tx, rx) = mpsc::channel::<(usize, ShardOutcome<R>)>();

    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(worker_count);
    let mut stalls: Vec<StallEvent> = Vec::new();
    let mut deaths = 0usize;
    let mut reclaimed = 0usize;
    let mut live_done = 0usize;

    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count)
            .map(|w| {
                let tx = tx.clone();
                let watch_slot = &watch[w];
                let preempt_flag = &preempt[w];
                let alive_flag = &alive[w];
                let queues = &queues;
                let claims = &claims;
                let outstanding = &outstanding;
                let halt = &halt;
                let supervisor = &supervisor;
                let stop_slot = &stop_slot;
                scope.spawn(move || {
                    let mut stats = WorkerStats {
                        shards: 0,
                        trials: 0,
                        busy: Duration::ZERO,
                        retried: 0,
                        stolen: 0,
                    };
                    loop {
                        if halt.load(Ordering::Acquire) {
                            break;
                        }
                        // The budget is enforced here, at the claim
                        // boundary: in-flight shards drain, new ones are
                        // not started.
                        if let Some(reason) = supervisor.should_stop() {
                            let _ = stop_slot.set(reason);
                            break;
                        }
                        let k = claims.fetch_add(1, Ordering::Relaxed);
                        if k >= claim_cap {
                            break;
                        }
                        let Some(claim) = queues.claim(w) else {
                            // Nothing was consumed: release the claim slot
                            // so the `stop_after` cap stays exact.
                            claims.fetch_sub(1, Ordering::Relaxed);
                            if death_enabled && outstanding.load(Ordering::Acquire) > 0 {
                                // A dead worker's shard may be in flight
                                // between abandonment and reclamation —
                                // stay available to pick it up.
                                std::thread::sleep(Duration::from_micros(200));
                                continue;
                            }
                            break;
                        };
                        let i = claim.task;
                        if claim.stolen {
                            stats.stolen += 1;
                        }
                        let task = &tasks[i];
                        if telemetry.is_armed() {
                            telemetry.emit(Event::ShardClaim {
                                task: i as u64,
                                worker: w as u64,
                                label: label(task),
                            });
                        }
                        watch_slot.task.store(i, Ordering::Release);
                        watch_slot
                            .started
                            .store(started.elapsed().as_nanos() as u64 + 1, Ordering::Release);
                        if death_enabled {
                            if let Some(plan) = &policy.faults {
                                if plan.kills_worker(w, stats.shards) {
                                    // Injected whole-worker loss: exit
                                    // without delivering the claimed shard.
                                    // The watch slot stays set so the
                                    // monitor can detect the abandonment
                                    // and reclaim the shard.
                                    alive_flag.store(false, Ordering::Release);
                                    return stats;
                                }
                            }
                        }
                        if cell_deadline.is_some() {
                            // Re-arm after the watch slot is current, so a
                            // monitor reading the *previous* shard's start
                            // time can at worst preempt this shard a few
                            // trials early — never let it run unbounded.
                            preempt_flag.store(false, Ordering::Release);
                            supervisor::set_preempt_flag(Some(preempt_flag.clone()));
                        }
                        let t0 = Instant::now();
                        let mut attempt = 0u32;
                        let outcome = loop {
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                if let Some(plan) = &policy.faults {
                                    plan.inject(i, attempt);
                                }
                                f(task)
                            }));
                            match run {
                                Ok(r) => break ShardOutcome::Done(r),
                                Err(payload) => {
                                    if payload.downcast_ref::<ShardPreempted>().is_some() {
                                        // Preemption is not a fault: no
                                        // retry, no quarantine — the shard
                                        // simply ran out of time.
                                        break ShardOutcome::TimedOut(t0.elapsed());
                                    }
                                    if attempt >= policy.max_retries {
                                        break ShardOutcome::Quarantined(ShardFailure {
                                            index: i,
                                            task: label(task),
                                            attempts: attempt + 1,
                                            payload: panic_message(payload.as_ref()),
                                        });
                                    }
                                    if telemetry.is_armed() {
                                        telemetry.emit(Event::ShardRetry {
                                            task: i as u64,
                                            worker: w as u64,
                                            attempt: u64::from(attempt),
                                            error: panic_message(payload.as_ref()),
                                        });
                                    }
                                    attempt += 1;
                                    stats.retried += 1;
                                }
                            }
                        };
                        supervisor::set_preempt_flag(None);
                        watch_slot.started.store(0, Ordering::Release);
                        stats.busy += t0.elapsed();
                        stats.shards += 1;
                        if telemetry.is_armed() {
                            match &outcome {
                                ShardOutcome::Done(_) => {
                                    telemetry.emit(Event::ShardComplete {
                                        task: i as u64,
                                        worker: w as u64,
                                        wall_ns: duration_ns(t0.elapsed()),
                                    });
                                }
                                ShardOutcome::Quarantined(failure) => {
                                    telemetry.emit(Event::ShardQuarantine {
                                        task: i as u64,
                                        worker: w as u64,
                                        attempts: u64::from(failure.attempts),
                                        error: failure.payload.clone(),
                                    });
                                }
                                ShardOutcome::TimedOut(t) => {
                                    telemetry.emit(Event::ShardPreempt {
                                        task: i as u64,
                                        worker: w as u64,
                                        wall_ns: duration_ns(*t),
                                    });
                                }
                                ShardOutcome::Skipped(_) => {}
                            }
                        }
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                        if tx.send((i, outcome)).is_err() {
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        drop(tx);

        // One monitor thread serves the supervision layer: the stall
        // watchdog (report-only), the budget's cell deadline (preempting),
        // and worker-death detection + shard reclamation. Polling
        // granularity follows the tightest configured bound.
        let stall_deadline = policy.stall_deadline;
        let max_retries = policy.max_retries;
        let monitor_needed = stall_deadline.is_some() || cell_deadline.is_some() || death_enabled;
        let monitor = monitor_needed.then(|| {
            let watch = &watch;
            let done = &done;
            let preempt = &preempt;
            let alive = &alive;
            let queues = &queues;
            let outstanding = &outstanding;
            let dead_failures = &dead_failures;
            scope.spawn(move || {
                let mut candidates: Vec<Duration> = Vec::new();
                candidates.extend(stall_deadline);
                candidates.extend(cell_deadline);
                if death_enabled {
                    // Death detection has no configured deadline of its
                    // own; poll fast enough that reclamation latency is
                    // negligible against shard runtimes.
                    candidates.push(Duration::from_millis(8));
                }
                let tightest = candidates
                    .iter()
                    .min()
                    .copied()
                    .expect("monitor spawned without a bound");
                let poll = (tightest / 8)
                    .max(Duration::from_millis(2))
                    .min(Duration::from_millis(200));
                let mut flagged: HashSet<(usize, usize)> = HashSet::new();
                let mut report = MonitorReport {
                    stalls: Vec::new(),
                    deaths: 0,
                    reclaimed: 0,
                };
                // Reclamation bookkeeping: how often each task has been
                // abandoned by a dying worker, and re-enqueues scheduled
                // for after their exponential backoff.
                let mut death_attempts: HashMap<usize, u32> = HashMap::new();
                let mut backlog: Vec<(Duration, usize, u32)> = Vec::new();
                let quarantine = |task: usize, attempts: u32| {
                    let failure = ShardFailure {
                        index: task,
                        task: label(&tasks[task]),
                        attempts,
                        payload: "owning worker died before delivering the shard".to_owned(),
                    };
                    if telemetry.is_armed() {
                        telemetry.emit(Event::ShardQuarantine {
                            task: task as u64,
                            worker: worker_count as u64,
                            attempts: u64::from(attempts),
                            error: failure.payload.clone(),
                        });
                    }
                    dead_failures
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((task, failure));
                    outstanding.fetch_sub(1, Ordering::AcqRel);
                };
                loop {
                    // Read the exit flag *before* the sweep so one final
                    // pass always runs after the workers have joined —
                    // by then any undetected abandonment or undue backlog
                    // entry can only be quarantined, never re-run.
                    let finished = done.load(Ordering::Acquire);
                    let now = started.elapsed();
                    let now_ns = now.as_nanos() as u64;
                    for (w, slot) in watch.iter().enumerate() {
                        let s = slot.started.load(Ordering::Acquire);
                        if s == 0 {
                            continue;
                        }
                        if death_enabled && !alive[w].load(Ordering::Acquire) {
                            // The worker died after claiming this shard:
                            // clear the slot and schedule a deterministic
                            // re-execution on a surviving worker.
                            let task = slot.task.load(Ordering::Acquire);
                            slot.started.store(0, Ordering::Release);
                            report.deaths += 1;
                            if telemetry.is_armed() {
                                telemetry.emit(Event::WorkerDead {
                                    worker: w as u64,
                                    task: task as u64,
                                });
                            }
                            let attempt = {
                                let a = death_attempts.entry(task).or_insert(0);
                                *a += 1;
                                *a
                            };
                            if attempt <= max_retries.max(1) && !finished {
                                let backoff = Duration::from_millis(5 << (attempt - 1).min(6));
                                backlog.push((now + backoff, task, attempt));
                            } else {
                                quarantine(task, attempt);
                            }
                            continue;
                        }
                        let elapsed = now_ns.saturating_sub(s - 1);
                        if let Some(deadline) = stall_deadline {
                            if elapsed > deadline.as_nanos() as u64 {
                                let task = slot.task.load(Ordering::Acquire);
                                if flagged.insert((w, task)) {
                                    let waited = Duration::from_nanos(elapsed);
                                    if telemetry.is_armed() {
                                        telemetry.emit(Event::WorkerStall {
                                            task: task as u64,
                                            worker: w as u64,
                                            label: label(&tasks[task]),
                                            wall_ns: duration_ns(waited),
                                        });
                                    }
                                    report.stalls.push(StallEvent {
                                        worker: w,
                                        task,
                                        waited,
                                    });
                                }
                            }
                        }
                        if let Some(deadline) = cell_deadline {
                            if elapsed > deadline.as_nanos() as u64 {
                                preempt[w].store(true, Ordering::Release);
                            }
                        }
                    }
                    // Re-enqueue reclaims whose backoff has elapsed onto a
                    // surviving worker's deque (any idle worker can steal
                    // the shard from there).
                    let mut k = 0;
                    while k < backlog.len() {
                        let (due, task, attempt) = backlog[k];
                        if due > now && !finished {
                            k += 1;
                            continue;
                        }
                        backlog.remove(k);
                        let survivor =
                            (0..worker_count).find(|&v| alive[v].load(Ordering::Acquire));
                        match survivor {
                            Some(v) if !finished => {
                                queues.push(v, task);
                                report.reclaimed += 1;
                                if telemetry.is_armed() {
                                    telemetry.emit(Event::WorkerReclaim {
                                        task: task as u64,
                                        attempt: u64::from(attempt),
                                    });
                                }
                            }
                            _ => quarantine(task, attempt),
                        }
                    }
                    if finished {
                        break;
                    }
                    std::thread::sleep(poll);
                }
                report
            })
        });

        // Collecting cannot fail: a failed checkpoint flush degrades to
        // a warning (see `flush_checkpoint`).
        let mut since_checkpoint = 0usize;
        for (i, outcome) in rx.iter() {
            if let ShardOutcome::Done(r) = &outcome {
                // Only completed shards are checkpointed — a preempted
                // shard re-runs in full on resume, keeping the final
                // output bitwise identical.
                ck.record(i, r);
                since_checkpoint += 1;
            }
            debug_assert!(slots[i].is_none(), "task {i} produced twice");
            slots[i] = Some(outcome);
            live_done += 1;
            if let Some(cp) = &policy.checkpoint {
                if since_checkpoint >= cp.every {
                    ck.consumed = supervisor.elapsed();
                    flush_checkpoint(&ck, cp, &injector, telemetry, "");
                    since_checkpoint = 0;
                }
            }
            if let Some(stop) = policy.stop_after {
                if live_done >= stop {
                    halt.store(true, Ordering::Release);
                }
            }
        }

        for handle in handles {
            // Workers isolate task panics internally; a join failure can
            // only come from an engine bug. Degrade to missing stats
            // rather than aborting the campaign.
            if let Ok(stats) = handle.join() {
                worker_stats.push(stats);
            }
        }
        done.store(true, Ordering::Release);
        if let Some(handle) = monitor {
            if let Ok(observed) = handle.join() {
                stalls = observed.stalls;
                deaths = observed.deaths;
                reclaimed = observed.reclaimed;
            }
        }
    });

    // Shards the monitor quarantined on behalf of dead workers land in
    // their slots now, after every live sender is gone.
    for (i, failure) in dead_failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        if slots[i].is_none() {
            slots[i] = Some(ShardOutcome::Quarantined(failure));
        }
    }

    // Steal counters, summarized once per worker so event streams expose
    // rebalancing without a per-claim firehose.
    if telemetry.is_armed() {
        for (w, stats) in worker_stats.iter().enumerate() {
            if stats.stolen > 0 {
                telemetry.emit(Event::StealSummary {
                    worker: w as u64,
                    stolen: stats.stolen as u64,
                });
            }
        }
    }

    // A final write so the file always reflects the run's end state —
    // complete on success, maximal on interruption or budget stop.
    if let Some(cp) = &policy.checkpoint {
        ck.consumed = supervisor.elapsed();
        flush_checkpoint(&ck, cp, &injector, telemetry, "final ");
    }

    let completed = slots.iter().filter(|s| s.is_some()).count();
    // A supervisor stop only counts if shards actually went unclaimed: a
    // signal that lands as the queue drains changes nothing, and the
    // campaign is reported complete.
    let stop = if completed < tasks.len() {
        stop_slot.get().copied()
    } else {
        None
    };
    if completed < tasks.len() && stop.is_none() {
        // The legacy deterministic kill switch (`--kill-after`) keeps its
        // hard-interrupt semantics and exit code.
        return Err(CampaignError::Interrupted {
            completed,
            total: tasks.len(),
            checkpoint: policy.checkpoint.as_ref().map(|cp| cp.path.clone()),
        });
    }

    let results: Vec<ShardOutcome<R>> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(outcome) => outcome,
            None => {
                let reason = stop.expect("missing shards imply a supervisor stop");
                if telemetry.is_armed() {
                    telemetry.emit(Event::ShardSkip {
                        task: i as u64,
                        reason: stop_reason_str(reason).to_owned(),
                    });
                }
                ShardOutcome::Skipped(reason)
            }
        })
        .collect();
    let quarantined = results.iter().filter(|r| r.failure().is_some()).count();
    let preempted = results
        .iter()
        .filter(|r| matches!(r, ShardOutcome::TimedOut(_)))
        .count();
    let skipped = results
        .iter()
        .filter(|r| matches!(r, ShardOutcome::Skipped(_)))
        .count();
    let stats = PoolStats {
        wall: started.elapsed(),
        workers: worker_stats,
        quarantined,
        stalled: stalls.len(),
        skipped,
        preempted,
        trials_saved: 0,
        deaths,
        reclaimed,
    };
    Ok(ResilientRun {
        results,
        stats,
        resumed,
        stalls,
        stop,
    })
}

/// Loads a resume checkpoint through the recovery chain. A corrupt
/// newest generation falls back to the previous good one, and when both
/// are unreadable the campaign starts fresh — both resume
/// bitwise-identically, and each recovery is announced on stderr and as
/// an event. `None` is a fresh start, also for a missing file, so resume
/// flags are idempotent. A checkpoint that belongs to a *different
/// campaign* is left to the caller's `validate` to reject: silently
/// discarding it would mask an operator mistake.
fn load_resume(path: &Path, injector: &IoInjector, telemetry: &Telemetry) -> Option<Checkpoint> {
    let (checkpoint, source, error) = match Checkpoint::load_recovering(path, injector) {
        RecoveredLoad::Missing => return None,
        RecoveredLoad::Current(ck) => return Some(ck),
        RecoveredLoad::Previous { checkpoint, error } => {
            eprintln!(
                "warning: checkpoint {} is corrupt ({error}); \
                 recovered from previous generation",
                path.display()
            );
            (Some(checkpoint), "previous", error)
        }
        RecoveredLoad::Fresh { error } => {
            eprintln!(
                "warning: checkpoint {} and its previous generation are \
                 both unreadable ({error}); starting fresh",
                path.display()
            );
            (None, "fresh", error)
        }
    };
    if telemetry.is_armed() {
        telemetry.emit(Event::CheckpointRecovered {
            path: path.display().to_string(),
            source: source.to_owned(),
            error,
        });
    }
    checkpoint
}

/// Writes `ck` through the I/O fault seam. A failed flush (disk full,
/// injected fault) costs recoverability, not the campaign: the results
/// live in memory and the next flush retries, so it degrades to a
/// warning and an event. `which` prefixes the warning (`"final "`).
fn flush_checkpoint(
    ck: &Checkpoint,
    cp: &CheckpointPolicy,
    injector: &IoInjector,
    telemetry: &Telemetry,
    which: &str,
) {
    match ck.save_with(&cp.path, injector) {
        Ok(()) => {
            if telemetry.is_armed() {
                telemetry.emit(Event::CheckpointFlush {
                    path: cp.path.display().to_string(),
                    done: ck.done.len() as u64,
                    tasks: ck.tasks as u64,
                });
            }
        }
        Err(e) => {
            eprintln!(
                "warning: {which}checkpoint flush to {} failed: {e}",
                cp.path.display()
            );
            if telemetry.is_armed() {
                telemetry.emit(Event::CheckpointWriteFailed {
                    path: cp.path.display().to_string(),
                    error: e.to_string(),
                });
            }
        }
    }
}

/// Why a cell is missing trials under the resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellGap {
    /// At least one of the cell's shards overran the per-shard deadline
    /// and was preempted (rendered `TIMEOUT`).
    Timeout,
    /// The supervisor stopped the campaign before all of the cell's
    /// shards ran (rendered `PARTIAL`).
    Stopped(StopReason),
}

impl CellGap {
    /// The table marker for this gap.
    pub fn marker(&self) -> &'static str {
        match self {
            CellGap::Timeout => "TIMEOUT",
            CellGap::Stopped(_) => "PARTIAL",
        }
    }
}

/// The outcome of one campaign cell under the fault-tolerant engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Every shard of the cell completed; the full measurement.
    Measured(Measurement),
    /// At least one shard was quarantined. The partial measurement covers
    /// the shards that did complete; `failure` is the first quarantined
    /// shard's report.
    Quarantined {
        /// Merged measurement of the cell's completed shards.
        partial: Measurement,
        /// The first quarantined shard of this cell.
        failure: ShardFailure,
    },
    /// The cell is missing trials because of the resource budget — the
    /// campaign stopped (or the cell's shards timed out) before it
    /// finished. The run is resumable; nothing was quarantined.
    Partial {
        /// Merged measurement of the cell's completed shards.
        partial: Measurement,
        /// Why trials are missing (selects the `TIMEOUT`/`PARTIAL`
        /// marker; a timeout wins when both apply, being the more
        /// specific diagnosis).
        gap: CellGap,
    },
}

impl CellOutcome {
    /// The full measurement, if the cell completed.
    pub fn measurement(&self) -> Option<Measurement> {
        match self {
            CellOutcome::Measured(m) => Some(*m),
            CellOutcome::Quarantined { .. } | CellOutcome::Partial { .. } => None,
        }
    }
}

/// A campaign over `(vulnerability, design)` cells, exhaustive or
/// adaptive.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One outcome per cell, in input order. Cells are never silently
    /// dropped: a cell is fully measured (an adaptive cell: its settled
    /// prefix), explicitly quarantined, or explicitly partial.
    pub cells: Vec<CellOutcome>,
    /// Pool timing plus resilience counters, summed over an adaptive
    /// run's rounds (including [`PoolStats::trials_saved`]).
    pub stats: PoolStats,
    /// Shards skipped via the resume checkpoint (cells on an adaptive
    /// run, whose checkpoints are cell-granular).
    pub resumed: usize,
    /// Watchdog reports. On an adaptive run `task` is the *cell* index
    /// (rounds renumber their shard lists).
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the campaign early, if it did.
    pub stop: Option<StopReason>,
}

/// The campaign fingerprint of a cell list under `settings` — what a
/// checkpoint must match to be resumed.
pub fn cells_fingerprint(cells: &[(Vulnerability, TlbDesign)], settings: &TrialSettings) -> u64 {
    crate::checkpoint::fingerprint(
        crate::checkpoint::settings_fingerprint(settings),
        cells.iter().flat_map(|(v, d)| {
            [
                vulnerability_code(v),
                // EXTENDED so the temporal/multi-size columns fingerprint
                // distinctly; codes 0..=2 match the classic list, keeping
                // old checkpoints resumable.
                TlbDesign::EXTENDED
                    .iter()
                    .position(|&x| x == *d)
                    .unwrap_or(0) as u64,
            ]
        }),
    )
}

/// Runs `run` — one engine run of a campaign — inside the campaign's
/// event envelope: [`Event::CampaignStart`] before, and after it
/// [`Event::CampaignStop`] with the supervisor's stop reason (or
/// `kill-after` for an [`CampaignError::Interrupted`] run), then a flush.
/// `progress` reads a finished run's stop reason, completed count and
/// wall time; `tasks` is what the count is out of (shards, or cells for an
/// adaptive run). Inert when `telemetry` is disabled.
pub fn with_campaign_events<T>(
    telemetry: &Telemetry,
    fingerprint: u64,
    tasks: usize,
    workers: NonZeroUsize,
    run: impl FnOnce() -> Result<T, CampaignError>,
    progress: impl FnOnce(&T) -> (Option<StopReason>, usize, Duration),
) -> Result<T, CampaignError> {
    if !telemetry.is_armed() {
        return run();
    }
    telemetry.emit(Event::CampaignStart {
        driver: telemetry.driver().to_owned(),
        fingerprint,
        tasks: tasks as u64,
        workers: workers.get() as u64,
    });
    let result = run();
    match &result {
        Ok(done) => {
            let (stop, completed, wall) = progress(done);
            telemetry.emit(Event::CampaignStop {
                reason: stop.map_or("complete", stop_reason_str).to_owned(),
                completed: completed as u64,
                total: tasks as u64,
                wall_ns: duration_ns(wall),
            });
        }
        Err(CampaignError::Interrupted {
            completed, total, ..
        }) => {
            telemetry.emit(Event::CampaignStop {
                reason: "kill-after".to_owned(),
                completed: *completed as u64,
                total: *total as u64,
                wall_ns: 0,
            });
        }
        Err(_) => {}
    }
    telemetry.flush();
    result
}

/// One cell's running tally while its shards come back.
#[derive(Debug, Clone)]
struct CellTally {
    /// Merged measurement of the cell's completed shards.
    m: Measurement,
    /// No trials are owed: every shard was planned up front (exhaustive),
    /// or the sequential test settled the cell (adaptive).
    settled: bool,
    /// The cell's first quarantined shard.
    failure: Option<ShardFailure>,
    /// Why the budget left trials unrun; a timeout wins over a stop.
    gap: Option<CellGap>,
}

impl CellTally {
    fn new(settled: bool) -> CellTally {
        CellTally {
            m: Measurement::ZERO,
            settled,
            failure: None,
            gap: None,
        }
    }

    /// Folds one of the cell's shard outcomes in.
    fn add(&mut self, outcome: &ShardOutcome<Measurement>) {
        match outcome {
            ShardOutcome::Done(partial) => self.m = self.m.merge(*partial),
            ShardOutcome::Quarantined(failure) => {
                self.failure.get_or_insert_with(|| failure.clone());
            }
            ShardOutcome::TimedOut(_) => self.gap = Some(CellGap::Timeout),
            ShardOutcome::Skipped(reason) => {
                self.gap.get_or_insert(CellGap::Stopped(*reason));
            }
        }
    }

    /// Whether the cell completed cleanly: its measurement is final.
    fn measured(&self) -> bool {
        self.settled && self.failure.is_none() && self.gap.is_none()
    }

    /// The cell's outcome; an unsettled cell without a gap of its own was
    /// cut off by the campaign's `stop`.
    fn outcome(self, stop: Option<StopReason>) -> CellOutcome {
        match (self.failure, self.gap) {
            (Some(failure), _) => CellOutcome::Quarantined {
                partial: self.m,
                failure,
            },
            (None, Some(gap)) => CellOutcome::Partial {
                partial: self.m,
                gap,
            },
            (None, None) if self.settled => CellOutcome::Measured(self.m),
            (None, None) => CellOutcome::Partial {
                partial: self.m,
                gap: CellGap::Stopped(stop.unwrap_or(StopReason::Interrupted)),
            },
        }
    }
}

/// Numbers the calls of [`measure_cells_resilient_observed`], which key
/// their workers' [`LAST_SETUP`] by call and cell.
static NEXT_CELLS_CALL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The setup of the last cell this worker measured, with its call and
    /// cell index; taken while a shard runs, so a shard that panics
    /// leaves nothing behind.
    static LAST_SETUP: Cell<Option<(u64, usize, CellSetup)>> = const { Cell::new(None) };
}

/// Folds a pool run's outcomes into the tallies of their cells and
/// returns the trials the completed shards ran (preempted shards discard
/// theirs), which is what the pool's per-worker trial counts spread.
fn tally_run(tally: &mut [CellTally], shards: &[Shard], run: &ResilientRun<Measurement>) -> u64 {
    let mut trials = 0;
    for (shard, outcome) in shards.iter().zip(&run.results) {
        tally[shard.cell].add(outcome);
        if outcome.is_done() {
            trials += u64::from(shard.hi - shard.lo);
        }
    }
    trials
}

/// Measures `(vulnerability, design)` cells on the engine — the cells
/// layer, and the only way campaign cells are measured.
///
/// Each cell's trials split into [`crate::parallel::TRIALS_PER_SHARD`]
/// shards run on the pool ([`run_sharded_resilient_observed`]); worker
/// panics are isolated and retried, and a cell whose shards keep failing
/// is quarantined instead of killing the run. The measurements are
/// bitwise identical to measuring each cell serially with
/// [`crate::run::try_run_trial_range`] over `0..settings.trials`, for
/// any worker count.
///
/// Without [`RunPolicy::adaptive`] the whole shard plan is one pool run
/// and checkpoints are shard-granular. With it, rounds of one
/// [`crate::adaptive::next_trials`] shard per undecided cell run until
/// the sequential test settles every cell: each cell measures a prefix
/// of its exhaustive trials, checkpoints are cell-granular, and
/// `policy.stop_after` is ignored (rounds renumber shards; the CLI
/// rejects the combination).
///
/// `telemetry` gets the campaign start/stop envelope (the driver
/// identity comes from the handle) around the pool's shard lifecycle,
/// plus an [`Event::AdaptiveStop`] per settled cell on adaptive runs.
pub fn measure_cells_resilient_observed(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Result<CampaignOutcome, CampaignError> {
    let specs: Vec<BenchmarkSpec> = cells
        .iter()
        .map(|(v, d)| BenchmarkSpec::build_with_config(v, *d, settings.config))
        .collect();
    let test = policy.adaptive.map(|a| SequentialTest::table4(a.alpha));
    let plan = match test {
        None => plan_shards(cells.len(), settings.trials),
        Some(_) => Vec::new(),
    };
    let (fingerprint, tasks, suffix) = match &test {
        None => (cells_fingerprint(cells, settings), plan.len(), ""),
        Some(test) => (
            adaptive::fingerprint(cells, settings, test),
            cells.len(),
            " (adaptive)",
        ),
    };
    let label = |shard: &Shard| {
        let (v, d) = &cells[shard.cell];
        format!("{v} on {d} TLB, trials {}..{}{suffix}", shard.lo, shard.hi)
    };
    // A worker's queue starts as a contiguous run of the plan, so the
    // shards it claims in a row are mostly of one cell: it keeps that
    // cell's setup and sets up again only when the cell changes, rather
    // than once per shard. The key is this call and the cell.
    let call = NEXT_CELLS_CALL.fetch_add(1, Ordering::Relaxed);
    let run_shard = |shard: &Shard| {
        let (spec, design) = (&specs[shard.cell], cells[shard.cell].1);
        let cached = LAST_SETUP
            .take()
            .filter(|&(c, cell, _)| (c, cell) == (call, shard.cell));
        let setup = match cached {
            Some((_, _, setup)) => setup,
            None => CellSetup::build(spec, design, settings, customize)
                .unwrap_or_else(|e| panic!("{e}")),
        };
        let measured = setup
            .run(spec, design, settings, shard.lo..shard.hi, customize)
            .unwrap_or_else(|e| panic!("{e}"));
        LAST_SETUP.set(Some((call, shard.cell, setup)));
        measured
    };
    let pool = |shards: &[Shard], policy: &RunPolicy| {
        run_sharded_resilient_observed(
            shards,
            workers,
            policy,
            fingerprint,
            &label,
            telemetry,
            run_shard,
        )
    };
    let mut tally = vec![CellTally::new(test.is_none()); cells.len()];
    let (mut outcome, _) = with_campaign_events(
        telemetry,
        fingerprint,
        tasks,
        workers,
        || match &test {
            None => {
                let run = pool(&plan, policy)?;
                let trials = tally_run(&mut tally, &plan, &run);
                let completed = run.results.iter().filter(|r| r.is_done()).count();
                let mut stats = run.stats;
                distribute_trial_counts(&mut stats, trials);
                let outcome = CampaignOutcome {
                    cells: Vec::new(),
                    stats,
                    resumed: run.resumed,
                    stalls: run.stalls,
                    stop: run.stop,
                };
                Ok((outcome, completed))
            }
            Some(test) => adaptive_rounds(
                cells,
                settings.trials,
                test,
                policy,
                fingerprint,
                telemetry,
                &mut tally,
                pool,
            ),
        },
        |(outcome, completed)| (outcome.stop, *completed, outcome.stats.wall),
    )?;
    outcome.cells = tally.into_iter().map(|t| t.outcome(outcome.stop)).collect();
    Ok(outcome)
}

/// The adaptive round scheduler of [`measure_cells_resilient_observed`]:
/// pool runs of one shard per live cell until every cell is settled,
/// quarantined or timed out, or the budget stops the campaign. Returns the
/// outcome without its cells (the tallies hold them) and the number of
/// settled cells.
///
/// Progress persists as cell-granular [`AdaptiveCellState`] records
/// through the same recovery chain and flush path as the pool's shard
/// records, so a torn newest checkpoint resumes from the previous
/// generation and a failed flush is a warning. Rounds run without the
/// policy's checkpoint, resume and kill switch, and with what is left of
/// the deadline.
#[allow(clippy::too_many_arguments)]
fn adaptive_rounds(
    cells: &[(Vulnerability, TlbDesign)],
    full: u32,
    test: &SequentialTest,
    policy: &RunPolicy,
    fingerprint: u64,
    telemetry: &Telemetry,
    tally: &mut [CellTally],
    pool: impl Fn(&[Shard], &RunPolicy) -> Result<ResilientRun<Measurement>, CampaignError>,
) -> Result<(CampaignOutcome, usize), CampaignError> {
    let injector = policy
        .faults
        .as_ref()
        .map(FaultPlan::io_injector)
        .unwrap_or_default();
    let mut resumed = 0usize;
    let mut prior = Duration::ZERO;
    if let Some(loaded) = policy
        .resume
        .as_deref()
        .and_then(|path| load_resume(path, &injector, telemetry))
    {
        loaded.validate(fingerprint, cells.len())?;
        prior = loaded.consumed;
        for (i, state) in loaded.decoded::<AdaptiveCellState>()? {
            tally[i].m = state.m;
            tally[i].settled = state.decided;
            resumed += 1;
        }
        if telemetry.is_armed() {
            telemetry.emit(Event::Resume {
                restored: resumed as u64,
                consumed_ns: duration_ns(prior),
            });
        }
    }

    // Wall-clock already consumed by the resume chain counts against the
    // whole-campaign deadline, exactly as on an exhaustive run.
    let outer = Supervisor::with_consumed(policy.budget, prior);
    let mut stop: Option<StopReason> = None;
    let mut stats = PoolStats {
        wall: Duration::ZERO,
        workers: Vec::new(),
        quarantined: 0,
        stalled: 0,
        skipped: 0,
        preempted: 0,
        trials_saved: 0,
        deaths: 0,
        reclaimed: 0,
    };
    let mut stalls: Vec<StallEvent> = Vec::new();
    let started = Instant::now();

    // Settles every cell whose current prefix decides it (also covers
    // resumed cells and the trials == full case), emitting exactly one
    // adaptive-stop event per newly settled cell.
    let settle = |tally: &mut [CellTally]| {
        for (i, t) in tally.iter_mut().enumerate() {
            if !t.settled && next_trials(&t.m, full, test).is_none() {
                t.settled = true;
                if telemetry.is_armed() {
                    let (v, d) = &cells[i];
                    telemetry.emit(Event::AdaptiveStop {
                        cell: format!("{v} on {d} TLB"),
                        trials: u64::from(t.m.trials),
                        saved: u64::from(full.saturating_sub(t.m.trials)),
                    });
                }
            }
        }
    };

    loop {
        settle(tally);
        let round: Vec<Shard> = tally
            .iter()
            .enumerate()
            .filter(|(_, t)| t.failure.is_none() && t.gap.is_none())
            .filter_map(|(cell, t)| {
                let range = next_trials(&t.m, full, test)?;
                Some(Shard {
                    cell,
                    lo: range.start,
                    hi: range.end,
                })
            })
            .collect();
        if round.is_empty() {
            break;
        }
        if let Some(reason) = outer.should_stop() {
            stop = Some(reason);
            break;
        }
        // The whole-campaign deadline shrinks each round; the pool's own
        // supervisor then enforces the remainder at shard claims.
        let round_policy = RunPolicy {
            checkpoint: None,
            resume: None,
            stop_after: None,
            budget: BudgetPolicy {
                deadline: policy
                    .budget
                    .deadline
                    .map(|d| d.saturating_sub(outer.elapsed())),
                cell_deadline: policy.budget.cell_deadline,
            },
            ..policy.clone()
        };
        let run = pool(&round, &round_policy)?;
        let trials = tally_run(tally, &round, &run);
        let mut round_stats = run.stats;
        distribute_trial_counts(&mut round_stats, trials);
        merge_round_stats(&mut stats, &round_stats);
        // Rounds renumber their shard lists: report stalls by cell.
        stalls.extend(run.stalls.iter().map(|s| StallEvent {
            worker: s.worker,
            task: round.get(s.task).map_or(s.task, |shard| shard.cell),
            waited: s.waited,
        }));
        if let Some(cp) = &policy.checkpoint {
            // Settle decisions before persisting so a resumed process
            // sees the same decided set this one would compute.
            settle(tally);
            let mut ck = Checkpoint::new(fingerprint, cells.len());
            for (i, t) in tally.iter().enumerate() {
                if t.m.trials > 0 || t.settled {
                    ck.record(
                        i,
                        &AdaptiveCellState {
                            m: t.m,
                            decided: t.settled,
                        },
                    );
                }
            }
            ck.consumed = outer.elapsed();
            flush_checkpoint(&ck, cp, &injector, telemetry, "");
        }
        if let Some(reason) = run.stop {
            stop = Some(reason);
            break;
        }
    }
    stats.wall = started.elapsed();
    stats.trials_saved = tally
        .iter()
        .filter(|t| t.measured())
        .map(|t| u64::from(full.saturating_sub(t.m.trials)))
        .sum();
    let settled = tally.iter().filter(|t| t.settled).count();
    let outcome = CampaignOutcome {
        cells: Vec::new(),
        stats,
        resumed,
        stalls,
        stop,
    };
    Ok((outcome, settled))
}

/// Folds one adaptive round's pool counters into the campaign totals.
/// Worker vectors are merged index-wise (round `k`'s worker `w` is the
/// same logical slot as round `k+1`'s worker `w`).
fn merge_round_stats(total: &mut PoolStats, round: &PoolStats) {
    for (w, stats) in round.workers.iter().enumerate() {
        if w >= total.workers.len() {
            total.workers.push(*stats);
        } else {
            let slot = &mut total.workers[w];
            slot.shards += stats.shards;
            slot.trials += stats.trials;
            slot.busy += stats.busy;
            slot.retried += stats.retried;
            slot.stolen += stats.stolen;
        }
    }
    total.quarantined += round.quarantined;
    total.stalled += round.stalled;
    total.skipped += round.skipped;
    total.preempted += round.preempted;
    total.deaths += round.deaths;
    total.reclaimed += round.reclaimed;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> NonZeroUsize {
        NonZeroUsize::new(2).expect("nonzero")
    }

    /// The pool over `u64` tasks labelled `task {t}`, without telemetry.
    fn run<R: Send + Record>(
        tasks: &[u64],
        workers: NonZeroUsize,
        policy: &RunPolicy,
        fingerprint: u64,
        f: impl Fn(&u64) -> R + Sync,
    ) -> Result<ResilientRun<R>, CampaignError> {
        run_sharded_resilient_observed(
            tasks,
            workers,
            policy,
            fingerprint,
            &|t| format!("task {t}"),
            &Telemetry::disabled(),
            f,
        )
    }

    fn done<R: Copy>(run: &ResilientRun<R>) -> Vec<R> {
        run.results
            .iter()
            .map(|r| *r.done().expect("task done"))
            .collect()
    }

    #[test]
    fn results_land_in_task_order() {
        let tasks: Vec<u64> = (0..137).collect();
        let run = run(&tasks, two(), &RunPolicy::default(), 1, |&t| t * t).expect("clean");
        assert_eq!(done(&run), tasks.iter().map(|t| t * t).collect::<Vec<_>>());
        assert_eq!(run.stats.shards(), tasks.len());
        assert!(run.stats.workers.len() <= 2);
        let text = run.stats.render();
        assert!(text.contains("workers"), "{text}");
        assert!(text.contains("speedup"), "{text}");
        // Stealing is opportunistic, so the segment appears exactly when
        // a steal happened.
        assert_eq!(
            text.contains("work stealing"),
            run.stats.stolen() > 0,
            "{text}"
        );
    }

    #[test]
    fn empty_and_single_task_lists_run() {
        let empty = run(&[], two(), &RunPolicy::default(), 1, |&t| t).expect("clean");
        assert!(empty.results.is_empty());
        let eight = NonZeroUsize::new(8).expect("nonzero");
        let single = run(&[7], eight, &RunPolicy::default(), 1, |&t| t + 1).expect("clean");
        assert_eq!(done(&single), vec![8]);
        // Only as many workers as tasks are spawned.
        assert_eq!(single.stats.workers.len(), 1);
        // A lone worker has nobody to steal from.
        let text = single.stats.render();
        assert!(text.contains("1 workers"), "{text}");
        assert!(!text.contains("work stealing"), "{text}");
    }

    #[test]
    fn an_uneven_load_makes_idle_workers_steal() {
        // Worker 0 owns tasks 0..4 and parks on task 0; worker 1 drains
        // its own chunk quickly and must steal the rest of worker 0's.
        let tasks: Vec<u64> = (0..8).collect();
        let run = run(&tasks, two(), &RunPolicy::default(), 1, |&t| {
            if t == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            t * 10
        })
        .expect("clean");
        assert_eq!(done(&run), tasks.iter().map(|t| t * 10).collect::<Vec<_>>());
        assert!(
            run.stats.stolen() > 0,
            "expected steals, got {:?}",
            run.stats
        );
        let text = run.stats.render();
        assert!(text.contains("work stealing"), "{text}");
        assert!(text.contains("speedup"), "{text}");
        assert!(!text.contains("supervision"), "{text}");
    }

    #[test]
    fn clean_run_matches_plain_sharding() {
        let tasks: Vec<u64> = (0..60).collect();
        let policy = RunPolicy::default();
        let run = run(&tasks, two(), &policy, 1, |&t| t * t).expect("clean run");
        assert!(run.is_clean());
        assert_eq!(run.stop, None);
        let values: Vec<u64> = run
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        assert_eq!(values, tasks.iter().map(|t| t * t).collect::<Vec<_>>());
        assert_eq!(run.stats.quarantined, 0);
        assert_eq!(run.stats.retried(), 0);
        assert_eq!(run.stats.skipped, 0);
        assert_eq!(run.stats.preempted, 0);
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan {
            panic_per_mille: 250,
            fatal_per_mille: 100,
            ..FaultPlan::default()
        };
        for i in 0..100 {
            assert_eq!(plan.is_fatal(i), plan.is_fatal(i));
        }
        assert!((0..1000).any(|i| plan.is_fatal(i)));
        assert!(!(0..1000).all(|i| plan.is_fatal(i)));
    }

    #[test]
    fn transient_faults_retry_to_identical_results() {
        let tasks: Vec<u64> = (0..40).collect();
        let clean = run(&tasks, two(), &RunPolicy::default(), 2, |&t| t + 1).expect("clean");
        let faulty_policy = RunPolicy {
            faults: Some(FaultPlan {
                panic_per_mille: 400,
                panic_attempts: 2,
                ..FaultPlan::default()
            }),
            max_retries: 3,
            ..RunPolicy::default()
        };
        let faulty = run(&tasks, two(), &faulty_policy, 2, |&t| t + 1).expect("faulty converges");
        assert!(faulty.is_clean(), "retries absorb transient faults");
        assert!(faulty.stats.retried() > 0, "some shards were retried");
        let a: Vec<u64> = clean
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        let b: Vec<u64> = faulty
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn permanent_faults_quarantine_without_aborting() {
        let tasks: Vec<u64> = (0..50).collect();
        let plan = FaultPlan {
            fatal_per_mille: 200,
            ..FaultPlan::default()
        };
        let policy = RunPolicy {
            faults: Some(plan),
            max_retries: 1,
            ..RunPolicy::default()
        };
        let run = run(&tasks, two(), &policy, 3, |&t| t).expect("run completes despite faults");
        let expected_fatal: Vec<usize> = (0..tasks.len()).filter(|&i| plan.is_fatal(i)).collect();
        assert!(!expected_fatal.is_empty(), "plan injects something");
        for (i, result) in run.results.iter().enumerate() {
            if expected_fatal.contains(&i) {
                let failure = result.failure().expect("quarantined");
                assert_eq!(failure.index, i);
                assert_eq!(failure.attempts, 2, "1 attempt + 1 retry");
                assert!(failure.payload.contains("injected permanent fault"));
                assert!(failure.task.contains(&format!("task {i}")));
            } else {
                assert!(result.is_done(), "shard {i} unaffected");
            }
        }
        assert_eq!(run.stats.quarantined, expected_fatal.len());
    }

    #[test]
    fn watchdog_reports_stalled_shards() {
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            stall_deadline: Some(Duration::from_millis(10)),
            ..RunPolicy::default()
        };
        let run = run(&tasks, two(), &policy, 4, |&t| {
            if t == 2 {
                std::thread::sleep(Duration::from_millis(60));
            }
            t
        })
        .expect("completes");
        assert!(run.is_clean());
        assert!(run.stats.stalled >= 1, "stall detected");
        assert!(run.stalls.iter().any(|s| s.task == 2), "{:?}", run.stalls);
    }

    #[test]
    fn expired_deadline_skips_all_shards_gracefully() {
        let tasks: Vec<u64> = (0..20).collect();
        let policy = RunPolicy {
            budget: BudgetPolicy {
                deadline: Some(Duration::ZERO),
                cell_deadline: None,
            },
            ..RunPolicy::default()
        };
        let run = run(&tasks, two(), &policy, 9, |&t| t)
            .expect("budget stop is a graceful Ok, not an error");
        assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
        assert_eq!(run.stats.skipped, tasks.len());
        assert!(run
            .results
            .iter()
            .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::DeadlineExpired))));
    }

    #[test]
    fn cell_deadline_preempts_an_overrunning_shard() {
        // Task 1 spins on preempt_point until the monitor flags it; the
        // other tasks are instant. The run completes with task 1 reported
        // TimedOut — not quarantined, not retried — and `stop` is None
        // because the overall campaign was never stopped.
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            budget: BudgetPolicy {
                deadline: None,
                cell_deadline: Some(Duration::from_millis(15)),
            },
            ..RunPolicy::default()
        };
        let run = run(&tasks, two(), &policy, 11, |&t| {
            if t == 1 {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_secs(10) {
                    supervisor::preempt_point();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            t
        })
        .expect("completes");
        assert_eq!(run.stop, None);
        assert_eq!(run.stats.preempted, 1);
        assert_eq!(run.stats.retried(), 0);
        assert!(matches!(run.results[1], ShardOutcome::TimedOut(_)));
        for i in [0usize, 2, 3] {
            assert!(run.results[i].is_done(), "shard {i} unaffected");
        }
    }
}
