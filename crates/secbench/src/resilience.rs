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
//!    [`TrialCell`]s into trial shards ([`crate::parallel`]), runs them on
//!    the pool, and merges them back per cell — exhaustively in one pool
//!    run, or in rounds that stop each cell early when
//!    [`RunPolicy::adaptive`] is set. Every security trial runs here.
//! 3. **Campaigns** — the Table 4 builder
//!    ([`crate::report::build_table4_resilient_observed_for`]) and the
//!    survey, ablation and Table 7 drivers on top of the cells, and the
//!    other drivers' own task lists directly on the pool.
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
//!
//! # The pool's stages
//!
//! A pool run is a crate-private `Pool` that owns what its threads share,
//! with one method per stage. Each stage touches only these fields:
//!
//! - **resume** (before the pool exists; the adaptive rounds share it):
//!   the result slots, and the consumed time the `supervisor` starts from.
//! - **claim** (each worker): `supervisor` (a stop lands in `stop_slot`),
//!   `claims` (capped by `stop_after`) and `queues`; with an injected
//!   death, an idle worker waits while `outstanding` is nonzero.
//! - **run a shard** (each worker): its `WorkerSlot` (`task`, `started`,
//!   `preempt`, and `dead` if it claims `death_shard` first, per
//!   `death_fired`), then `outstanding` and the collector's channel.
//! - **monitor sweep** (one thread, only under a stall or cell deadline or
//!   an injected death): every `WorkerSlot` at the clock it is given —
//!   stalls become [`StallEvent`]s, an overrun sets `preempt` — and a dead
//!   worker's shard goes back on `queues` or is quarantined
//!   (`outstanding`). It stops after the sweep that follows `done`.
//! - **collect** (the calling thread): the result slots and, only when a
//!   checkpoint is configured, the checkpoint, saved every `every` shards.
//! - **settle** (after the join): the result slots, the monitor's report
//!   and `stop_slot`, into a [`ResilientRun`] after a final save.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use sectlb_model::Vulnerability;
use sectlb_sim::machine::{Machine, TlbDesign};

use crate::adaptive::{self, next_trials, AdaptiveCellState, SequentialTest};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, Record, RecoveredLoad};
use crate::codec::Word;
use crate::iofault::{IoFault, IoInjector};
use crate::parallel::{distribute_trial_counts, plan_shards, PoolStats, Shard, WorkerStats};
use crate::run::{
    splitmix64, vulnerability_code, Measurement, SetupError, TrialCell, TrialSettings,
};
use crate::scheduler::{Claim, StealQueues};
use crate::supervisor::{self, BudgetPolicy, ShardPreempted, StopReason, Supervisor, EXIT_BUDGET};
use crate::telemetry::{duration_ns, Event, Telemetry};

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
    /// Kill the worker that claims the `K`-th shard (from 0) of worker
    /// `W`'s initial queue — `(W, K)` from `--inject-worker-death W:K` —
    /// once per pool run: its claim loop exits without delivering that
    /// shard. Keying the death to a shard, not to a worker's completed
    /// count, makes it fire however fast shards run or who steals them.
    /// The supervision layer must detect the death, reclaim the abandoned
    /// shard, and finish the campaign with output bitwise identical to an
    /// undisturbed run.
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
    /// the test settles its verdict against the test's threshold,
    /// checkpointing cell-granular progress. The pool ignores it — a
    /// driver's own tasks decide what one task runs.
    pub adaptive: Option<SequentialTest>,
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

    /// The storage fault injector of `--inject-io` (disabled without it).
    /// One per run: its rolls are keyed by an operation counter that the
    /// resume load and every save share.
    fn io_injector(&self) -> IoInjector {
        match self.faults {
            Some(FaultPlan {
                seed,
                io: Some(fault),
                ..
            }) => IoInjector::new(seed, fault),
            _ => IoInjector::disabled(),
        }
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

/// One worker's slot, shared with the monitor: when (nanos since the run
/// started, +1 so 0 means idle) the worker started its current shard,
/// which shard, that shard's preemption flag (which the worker arms as
/// its thread's `preempt_point` flag), and whether the worker has died.
#[derive(Default)]
struct WorkerSlot {
    started: AtomicU64,
    task: AtomicUsize,
    preempt: Arc<AtomicBool>,
    dead: AtomicBool,
}

/// One pool run: the state its workers and its monitor share through
/// `&self`, with one method per stage (see the module docs).
struct Pool<'a, T, R> {
    tasks: &'a [T],
    policy: &'a RunPolicy,
    label: &'a (dyn Fn(&T) -> String + Sync),
    run: &'a (dyn Fn(&T) -> R + Sync),
    telemetry: &'a Telemetry,
    injector: IoInjector,
    /// The clock of the watch slots and of the pool's wall time.
    started: Instant,
    supervisor: Supervisor,
    queues: StealQueues,
    claims: AtomicUsize,
    /// Tasks not yet completed, preempted or quarantined.
    outstanding: AtomicUsize,
    /// The shard whose first claim kills its claimer (`worker_death`).
    death_shard: Option<usize>,
    death_fired: AtomicBool,
    /// Set once the workers have joined; the monitor's last sweep follows.
    done: AtomicBool,
    /// The first supervisor stop the claims saw.
    stop_slot: OnceLock<StopReason>,
    workers: Vec<WorkerSlot>,
    /// Tasks restored from the resume checkpoint.
    resumed: usize,
}

/// The collector's side of a pool run: one result slot per task and,
/// only when checkpointing is configured, the checkpoint that records
/// the completed ones.
struct Outcomes<R> {
    slots: Vec<Option<ShardOutcome<R>>>,
    ck: Option<Checkpoint>,
}

impl<R: Record> Outcomes<R> {
    /// Puts task `i`'s outcome in its slot and returns whether the
    /// checkpoint recorded it. Only completed shards are recorded: a
    /// preempted shard re-runs in full on resume, keeping the final
    /// output bitwise identical.
    fn put(&mut self, i: usize, outcome: ShardOutcome<R>) -> bool {
        debug_assert!(self.slots[i].is_none(), "task {i} produced twice");
        let recorded = match (&outcome, &mut self.ck) {
            (ShardOutcome::Done(r), Some(ck)) => {
                ck.record(i, r);
                true
            }
            _ => false,
        };
        self.slots[i] = Some(outcome);
        recorded
    }
}

/// The monitor's state between sweeps, and its report: watchdog stalls,
/// worker deaths, reclaimed shards, and the abandoned shards it
/// quarantined (returned, not sent: the monitor holds no sender, so the
/// collector ends exactly when the workers hang up).
#[derive(Default)]
struct Monitor {
    /// `(worker, task)` pairs already reported stalled.
    flagged: HashSet<(usize, usize)>,
    /// How often each task has been abandoned by a dying worker.
    abandoned: HashMap<usize, u32>,
    /// Re-enqueues waiting out their backoff: `(due, task, attempt)`.
    backlog: Vec<(Duration, usize, u32)>,
    stalls: Vec<StallEvent>,
    deaths: usize,
    reclaimed: usize,
    quarantined: Vec<ShardFailure>,
}

impl<'a, T: Sync, R: Send + Record> Pool<'a, T, R> {
    /// Sets a pool run up: the resume stage, then one steal deque and one
    /// slot per worker over the tasks still pending.
    fn new(
        tasks: &'a [T],
        workers: NonZeroUsize,
        policy: &'a RunPolicy,
        fingerprint: u64,
        label: &'a (dyn Fn(&T) -> String + Sync),
        telemetry: &'a Telemetry,
        run: &'a (dyn Fn(&T) -> R + Sync),
    ) -> Result<(Pool<'a, T, R>, Outcomes<R>), CampaignError> {
        let (started, n) = (Instant::now(), tasks.len());
        let injector = policy.io_injector();
        let ck = policy
            .checkpoint
            .as_ref()
            .map(|_| Checkpoint::new(fingerprint, n));
        let slots = std::iter::repeat_with(|| None).take(n).collect();
        let mut outcomes = Outcomes { slots, ck };
        let restore = |i: usize, r: R| {
            let fresh = outcomes.slots[i].is_none();
            if fresh {
                outcomes.put(i, ShardOutcome::Done(r));
            }
            fresh
        };
        let (resumed, prior) = resume(policy, &injector, telemetry, fingerprint, n, restore)?;
        let pending: Vec<usize> = (0..n).filter(|&i| outcomes.slots[i].is_none()).collect();
        // Work-stealing deques over the pending task indices: each worker
        // drains its own contiguous chunk in index order and steals from
        // busier workers once idle.
        let queues = StealQueues::seed(workers.get().min(pending.len().max(1)), &pending);
        let death = policy.faults.as_ref().and_then(|plan| plan.worker_death);
        let pool = Pool {
            tasks,
            policy,
            label,
            run,
            telemetry,
            injector,
            started,
            // Wall-clock consumed by earlier runs in the resume chain
            // counts against `--deadline`: a resumed campaign gets the
            // remainder of its budget, never a fresh one.
            supervisor: Supervisor::with_cancel(policy.budget, prior, policy.cancel.clone()),
            claims: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(pending.len()),
            death_shard: death.and_then(|(w, k)| queues.nth_own(w as usize, k as usize)),
            death_fired: AtomicBool::new(false),
            done: AtomicBool::new(false),
            stop_slot: OnceLock::new(),
            workers: std::iter::repeat_with(WorkerSlot::default)
                .take(queues.workers())
                .collect(),
            queues,
            resumed,
        };
        Ok((pool, outcomes))
    }

    /// The claim stage: worker `w`'s next task, or `None` once it should
    /// stop. The budget is enforced here, at the claim boundary: in-flight
    /// shards drain, new ones are not started.
    fn claim(&self, w: usize) -> Option<Claim> {
        let cap = self.policy.stop_after.unwrap_or(usize::MAX);
        loop {
            if let Some(reason) = self.supervisor.should_stop() {
                let _ = self.stop_slot.set(reason);
                return None;
            }
            if self.claims.fetch_add(1, Ordering::Relaxed) >= cap {
                return None;
            }
            if let Some(claim) = self.queues.claim(w) {
                return Some(claim);
            }
            // Nothing was consumed: release the claim so the cap stays exact.
            self.claims.fetch_sub(1, Ordering::Relaxed);
            if self.death_shard.is_none() || self.outstanding.load(Ordering::Acquire) == 0 {
                return None;
            }
            // A dead worker's shard may be in flight between abandonment
            // and reclamation: stay available to pick it up.
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One worker: claims and runs shards until the claim stage says
    /// stop, sending each outcome to the collector.
    fn work(&self, w: usize, tx: &mpsc::Sender<(usize, ShardOutcome<R>)>) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let slot = &self.workers[w];
        while let Some(claim) = self.claim(w) {
            let i = claim.task;
            stats.stolen += usize::from(claim.stolen);
            if self.telemetry.is_armed() {
                self.telemetry.emit(Event::ShardClaim {
                    task: i as u64,
                    worker: w as u64,
                    label: (self.label)(&self.tasks[i]),
                });
            }
            let now = self.started.elapsed().as_nanos() as u64;
            slot.task.store(i, Ordering::Release);
            slot.started.store(now + 1, Ordering::Release);
            if self.death_shard == Some(i) && !self.death_fired.swap(true, Ordering::AcqRel) {
                // Injected whole-worker loss: exit without delivering the
                // claimed shard. The watch slot stays set so the monitor
                // can detect the abandonment and reclaim the shard.
                slot.dead.store(true, Ordering::Release);
                break;
            }
            let (outcome, wall) = self.run_shard(w, i, &mut stats.retried);
            slot.started.store(0, Ordering::Release);
            stats.busy += wall;
            stats.shards += 1;
            self.announce(i, w, &outcome, wall);
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            if tx.send((i, outcome)).is_err() {
                break;
            }
        }
        stats
    }

    /// The run-a-shard stage: task `i` on worker `w` under `catch_unwind`,
    /// retried identically after a panic up to `max_retries` times, then
    /// quarantined, or timed out by the cell deadline; with its wall time.
    fn run_shard(&self, w: usize, i: usize, retried: &mut usize) -> (ShardOutcome<R>, Duration) {
        if self.supervisor.cell_deadline().is_some() {
            // Re-arm after the watch slot is current, so a monitor
            // reading the *previous* shard's start time can at worst
            // preempt this shard a few trials early — never let it run
            // unbounded.
            let flag = &self.workers[w].preempt;
            flag.store(false, Ordering::Release);
            supervisor::set_preempt_flag(Some(flag.clone()));
        }
        let t0 = Instant::now();
        let task = &self.tasks[i];
        let mut attempt = 0u32;
        let outcome = loop {
            let run = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &self.policy.faults {
                    plan.inject(i, attempt);
                }
                (self.run)(task)
            }));
            let payload = match run {
                Ok(r) => break ShardOutcome::Done(r),
                Err(payload) => payload,
            };
            if payload.downcast_ref::<ShardPreempted>().is_some() {
                // Preemption is not a fault: no retry, no quarantine — the
                // shard simply ran out of time.
                break ShardOutcome::TimedOut(t0.elapsed());
            }
            let error = panic_message(payload.as_ref());
            if attempt >= self.policy.max_retries {
                break ShardOutcome::Quarantined(ShardFailure {
                    index: i,
                    task: (self.label)(task),
                    attempts: attempt + 1,
                    payload: error,
                });
            }
            if self.telemetry.is_armed() {
                self.telemetry.emit(Event::ShardRetry {
                    task: i as u64,
                    worker: w as u64,
                    attempt: u64::from(attempt),
                    error,
                });
            }
            attempt += 1;
            *retried += 1;
        };
        supervisor::set_preempt_flag(None);
        (outcome, t0.elapsed())
    }

    /// Emits the event that ends shard `task`'s run on `worker` (the
    /// worker count for a shard the monitor quarantined): complete after
    /// `wall`, quarantine, or preempt.
    fn announce(&self, task: usize, worker: usize, outcome: &ShardOutcome<R>, wall: Duration) {
        if !self.telemetry.is_armed() {
            return;
        }
        let (task, worker) = (task as u64, worker as u64);
        self.telemetry.emit(match outcome {
            ShardOutcome::Done(_) => Event::ShardComplete {
                task,
                worker,
                wall_ns: duration_ns(wall),
            },
            ShardOutcome::Quarantined(failure) => Event::ShardQuarantine {
                task,
                worker,
                attempts: u64::from(failure.attempts),
                error: failure.payload.clone(),
            },
            ShardOutcome::TimedOut(t) => Event::ShardPreempt {
                task,
                worker,
                wall_ns: duration_ns(*t),
            },
            ShardOutcome::Skipped(_) => return,
        });
    }

    /// The monitor's polling period, or `None` when nothing needs a
    /// monitor: an eighth of the tightest of the stall deadline, the cell
    /// deadline and, with an injected death, 8 ms, within 2–200 ms.
    fn poll(&self) -> Option<Duration> {
        let death = self.death_shard.map(|_| Duration::from_millis(8));
        let bounds = [
            self.policy.stall_deadline,
            self.supervisor.cell_deadline(),
            death,
        ];
        let tightest = bounds.into_iter().flatten().min()?;
        Some((tightest / 8).clamp(Duration::from_millis(2), Duration::from_millis(200)))
    }

    /// The monitor thread: a sweep every `poll` until the workers have
    /// joined, then one more. `done` is read before the sweep, so that
    /// last sweep follows the join, when an undetected abandonment or a
    /// pending re-enqueue can only be quarantined, never re-run.
    fn monitor(&self, poll: Duration) -> Monitor {
        let mut m = Monitor::default();
        loop {
            let finished = self.done.load(Ordering::Acquire);
            self.sweep(self.started.elapsed(), finished, &mut m);
            if finished {
                return m;
            }
            std::thread::sleep(poll);
        }
    }

    /// The monitor sweep at `now` (time since the run started): reports
    /// each stalled `(worker, task)` once, flags a shard past the cell
    /// deadline for preemption, and clears a dead worker's slot. Its
    /// abandoned shard is re-enqueued on a surviving worker 5·2^(a−1) ms
    /// after its `a`-th abandonment, up to `max(max_retries, 1)` times,
    /// and quarantined after that, when no worker survives, or once
    /// `finished` says the workers have joined.
    fn sweep(&self, now: Duration, finished: bool, m: &mut Monitor) {
        for (w, slot) in self.workers.iter().enumerate() {
            let started = slot.started.load(Ordering::Acquire);
            if started == 0 {
                continue;
            }
            let task = slot.task.load(Ordering::Acquire);
            if slot.dead.load(Ordering::Acquire) {
                slot.started.store(0, Ordering::Release);
                m.deaths += 1;
                if self.telemetry.is_armed() {
                    self.telemetry.emit(Event::WorkerDead {
                        worker: w as u64,
                        task: task as u64,
                    });
                }
                let attempt = *m.abandoned.entry(task).and_modify(|a| *a += 1).or_insert(1);
                if attempt <= self.policy.max_retries.max(1) && !finished {
                    let backoff = Duration::from_millis(5 << (attempt - 1).min(6));
                    m.backlog.push((now + backoff, task, attempt));
                } else {
                    self.quarantine_abandoned(task, attempt, m);
                }
                continue;
            }
            let ran = Duration::from_nanos((now.as_nanos() as u64).saturating_sub(started - 1));
            if self.policy.stall_deadline.is_some_and(|d| ran > d) && m.flagged.insert((w, task)) {
                if self.telemetry.is_armed() {
                    self.telemetry.emit(Event::WorkerStall {
                        task: task as u64,
                        worker: w as u64,
                        label: (self.label)(&self.tasks[task]),
                        wall_ns: duration_ns(ran),
                    });
                }
                m.stalls.push(StallEvent {
                    worker: w,
                    task,
                    waited: ran,
                });
            }
            if self.supervisor.cell_deadline().is_some_and(|d| ran > d) {
                slot.preempt.store(true, Ordering::Release);
            }
        }
        // Reclaims whose backoff has elapsed go onto a surviving worker's
        // deque, where any idle worker can steal them.
        let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut m.backlog)
            .into_iter()
            .partition(|&(at, _, _)| at <= now || finished);
        m.backlog = waiting;
        for (_, task, attempt) in due {
            match self
                .workers
                .iter()
                .position(|s| !s.dead.load(Ordering::Acquire))
            {
                Some(survivor) if !finished => {
                    self.queues.push(survivor, task);
                    m.reclaimed += 1;
                    if self.telemetry.is_armed() {
                        self.telemetry.emit(Event::WorkerReclaim {
                            task: task as u64,
                            attempt: u64::from(attempt),
                        });
                    }
                }
                _ => self.quarantine_abandoned(task, attempt, m),
            }
        }
    }

    /// Quarantines a shard whose owning worker died `attempts` times.
    fn quarantine_abandoned(&self, task: usize, attempts: u32, m: &mut Monitor) {
        let failure = ShardFailure {
            index: task,
            task: (self.label)(&self.tasks[task]),
            attempts,
            payload: "owning worker died before delivering the shard".to_owned(),
        };
        let outcome = ShardOutcome::Quarantined(failure.clone());
        self.announce(task, self.workers.len(), &outcome, Duration::ZERO);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        m.quarantined.push(failure);
    }

    /// The collector stage: puts each delivered outcome in its slot until
    /// the last worker hangs up. Every result already queued is recorded
    /// before the checkpoint's `every` is consulted: a save rewrites the
    /// whole file, so saving per result would fall ever further behind
    /// fast workers, and a drain would wait on the backlog.
    fn collect(&self, rx: &mpsc::Receiver<(usize, ShardOutcome<R>)>, outcomes: &mut Outcomes<R>) {
        let every = self
            .policy
            .checkpoint
            .as_ref()
            .map_or(usize::MAX, |c| c.every);
        let mut recorded = 0usize;
        while let Ok(first) = rx.recv() {
            for (i, outcome) in std::iter::once(first).chain(rx.try_iter()) {
                recorded += usize::from(outcomes.put(i, outcome));
            }
            if recorded >= every {
                self.save(outcomes, "");
                recorded = 0;
            }
        }
    }

    /// Saves the checkpoint, if one is configured, with the campaign's
    /// wall-clock time so far. A failed save degrades to a warning (see
    /// [`flush_checkpoint`]); `which` prefixes it.
    fn save(&self, outcomes: &mut Outcomes<R>, which: &str) {
        if let (Some(ck), Some(cp)) = (&mut outcomes.ck, &self.policy.checkpoint) {
            ck.consumed = self.supervisor.elapsed();
            flush_checkpoint(ck, cp, &self.injector, self.telemetry, which);
        }
    }

    /// The settle stage: the run's [`ResilientRun`], or
    /// [`CampaignError::Interrupted`] when the `stop_after` kill switch
    /// left tasks unrun.
    fn settle(
        &self,
        mut outcomes: Outcomes<R>,
        workers: Vec<WorkerStats>,
        monitor: Monitor,
    ) -> Result<ResilientRun<R>, CampaignError> {
        for failure in monitor.quarantined {
            outcomes.slots[failure.index].get_or_insert(ShardOutcome::Quarantined(failure));
        }
        // Steal counters, summarized once per worker so event streams
        // expose rebalancing without a per-claim firehose.
        if self.telemetry.is_armed() {
            for (w, stats) in workers.iter().enumerate() {
                if stats.stolen > 0 {
                    self.telemetry.emit(Event::StealSummary {
                        worker: w as u64,
                        stolen: stats.stolen as u64,
                    });
                }
            }
        }
        // A final write so the file always reflects the run's end state —
        // complete on success, maximal on interruption or budget stop.
        self.save(&mut outcomes, "final ");

        let total = self.tasks.len();
        let completed = outcomes.slots.iter().filter(|s| s.is_some()).count();
        // A supervisor stop only counts if shards actually went unclaimed:
        // a signal that lands as the queue drains changes nothing, and the
        // campaign is reported complete.
        let stop = self.stop_slot.get().copied().filter(|_| completed < total);
        if completed < total && stop.is_none() {
            // The legacy deterministic kill switch (`--kill-after`) keeps
            // its hard-interrupt semantics and exit code.
            return Err(CampaignError::Interrupted {
                completed,
                total,
                checkpoint: self.policy.checkpoint.as_ref().map(|cp| cp.path.clone()),
            });
        }
        let results: Vec<ShardOutcome<R>> = outcomes
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    let reason = stop.expect("missing shards imply a supervisor stop");
                    if self.telemetry.is_armed() {
                        self.telemetry.emit(Event::ShardSkip {
                            task: i as u64,
                            reason: reason.name().to_owned(),
                        });
                    }
                    ShardOutcome::Skipped(reason)
                })
            })
            .collect();
        let count = |kind: fn(&ShardOutcome<R>) -> bool| results.iter().filter(|r| kind(r)).count();
        let stats = PoolStats {
            wall: self.started.elapsed(),
            workers,
            quarantined: count(|r| r.failure().is_some()),
            stalled: monitor.stalls.len(),
            skipped: count(|r| matches!(r, ShardOutcome::Skipped(_))),
            preempted: count(|r| matches!(r, ShardOutcome::TimedOut(_))),
            deaths: monitor.deaths,
            reclaimed: monitor.reclaimed,
            ..PoolStats::default()
        };
        Ok(ResilientRun {
            results,
            stats,
            resumed: self.resumed,
            stalls: monitor.stalls,
            stop,
        })
    }
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
    let (pool, mut outcomes) =
        Pool::new(tasks, workers, policy, fingerprint, label, telemetry, &f)?;
    let pool = &pool;
    let (tx, rx) = mpsc::channel();
    let (workers, monitor) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool.workers.len())
            .map(|w| {
                let tx = tx.clone();
                scope.spawn(move || pool.work(w, &tx))
            })
            .collect();
        drop(tx);
        let monitor = pool
            .poll()
            .map(|poll| scope.spawn(move || pool.monitor(poll)));
        pool.collect(&rx, &mut outcomes);
        // Workers isolate task panics internally; a join failure can only
        // come from an engine bug. Degrade to missing stats rather than
        // aborting the campaign. The vector is sized to fit: callers keep
        // runs' stats, and a collected `filter_map` reserves four.
        let mut workers = Vec::with_capacity(handles.len());
        workers.extend(handles.into_iter().filter_map(|h| h.join().ok()));
        pool.done.store(true, Ordering::Release);
        (workers, monitor.and_then(|h| h.join().ok()))
    });
    pool.settle(outcomes, workers, monitor.unwrap_or_default())
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

/// The resume stage, shared by the pool and the adaptive rounds: loads
/// `policy.resume` through the recovery chain, rejects a checkpoint of
/// another campaign (`fingerprint`, `tasks`), and hands each record to
/// `restore`, which says whether it took it. Announces [`Event::Resume`]
/// and returns the records taken and the wall-clock time the resume chain
/// already consumed; a fresh start restores nothing.
fn resume<Rec: Record>(
    policy: &RunPolicy,
    injector: &IoInjector,
    telemetry: &Telemetry,
    fingerprint: u64,
    tasks: usize,
    mut restore: impl FnMut(usize, Rec) -> bool,
) -> Result<(usize, Duration), CampaignError> {
    let path = policy.resume.as_deref();
    let Some(loaded) = path.and_then(|path| load_resume(path, injector, telemetry)) else {
        return Ok((0, Duration::ZERO));
    };
    loaded.validate(fingerprint, tasks)?;
    let mut restored = 0;
    for (i, record) in loaded.decoded::<Rec>()? {
        restored += usize::from(restore(i, record));
    }
    if telemetry.is_armed() {
        telemetry.emit(Event::Resume {
            restored: restored as u64,
            consumed_ns: duration_ns(loaded.consumed),
        });
    }
    Ok((restored, loaded.consumed))
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

/// A campaign over [`TrialCell`]s, exhaustive or adaptive.
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

impl CampaignOutcome {
    /// The driver exit code: [`EXIT_BUDGET`] when the budget left cells
    /// incomplete (resumable), else [`EXIT_QUARANTINED`] when a cell was
    /// quarantined, else 0.
    pub fn exit_code(&self) -> i32 {
        let partial = |c: &CellOutcome| matches!(c, CellOutcome::Partial { .. });
        if self.stop.is_some() || self.cells.iter().any(partial) {
            EXIT_BUDGET
        } else if self.cells.iter().any(|c| c.measurement().is_none()) {
            EXIT_QUARANTINED
        } else {
            0
        }
    }

    /// Prints the resume/quarantine/stall/stop/pool summary to stderr
    /// (stdout is reserved for the table itself, which scripts diff).
    pub fn eprint_summary(&self) {
        if self.resumed > 0 {
            eprintln!("resumed: {} task(s) restored from checkpoint", self.resumed);
        }
        for cell in &self.cells {
            if let CellOutcome::Quarantined { failure, .. } = cell {
                eprintln!("{failure}");
            }
        }
        for stall in &self.stalls {
            eprintln!(
                "stall: worker {} exceeded the watchdog deadline on task {} (ran {:.2?})",
                stall.worker, stall.task, stall.waited
            );
        }
        if let Some(stop) = self.stop {
            let unfinished = self
                .cells
                .iter()
                .filter(|c| matches!(c, CellOutcome::Partial { .. }))
                .count();
            eprintln!(
                "campaign stopped early: {stop} ({unfinished} of {} cell(s) unfinished)",
                self.cells.len()
            );
        }
        eprintln!("pool: {}", self.stats.render());
    }
}

/// The campaign fingerprint of a Table 4 cell list under `settings` —
/// what a checkpoint must match to be resumed.
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
                reason: stop.map_or("complete", Word::name).to_owned(),
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
    /// The template of the last cell this worker measured, with its call
    /// and cell index; taken while a shard runs, so a shard that panics
    /// leaves nothing behind.
    static LAST_SETUP: Cell<Option<(u64, usize, Machine)>> = const { Cell::new(None) };
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

/// Measures `cells` on the engine — the cells layer, and the only way
/// security trials run. `fingerprint` is the exhaustive campaign's
/// identity (for Table 4, [`cells_fingerprint`]), which a resumed
/// checkpoint must match; `settings` gives the trial budget, the RF
/// eviction every machine starts from, and the oracle guardrails.
///
/// Each cell's trials split into [`crate::parallel::TRIALS_PER_SHARD`]
/// shards run on the pool ([`run_sharded_resilient_observed`]); worker
/// panics are isolated and retried, and a cell whose shards keep failing
/// is quarantined instead of killing the run. The measurements are
/// bitwise identical to running each cell's `0..settings.trials`
/// serially (for a Table 4 cell, [`crate::run::try_run_trial_range`]),
/// for any worker count.
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
    cells: &[TrialCell<'_>],
    fingerprint: u64,
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
) -> Result<CampaignOutcome, CampaignError> {
    let test = policy.adaptive;
    let plan = match test {
        None => plan_shards(cells.len(), settings.trials),
        Some(_) => Vec::new(),
    };
    let (fingerprint, tasks, suffix) = match &test {
        None => (fingerprint, plan.len(), ""),
        Some(test) => (
            adaptive::fingerprint(fingerprint, test),
            cells.len(),
            " (adaptive)",
        ),
    };
    let label = |shard: &Shard| {
        let cell = &cells[shard.cell];
        format!(
            "{} on {} TLB, trials {}..{}{suffix}",
            cell.row, cell.column, shard.lo, shard.hi
        )
    };
    // A worker's queue starts as a contiguous run of the plan, so the
    // shards it claims in a row are mostly of one cell: it keeps that
    // cell's setup and sets up again only when the cell changes, rather
    // than once per shard. The key is this call and the cell.
    let call = NEXT_CELLS_CALL.fetch_add(1, Ordering::Relaxed);
    let run_shard = |shard: &Shard| {
        let cell = &cells[shard.cell];
        let cached = LAST_SETUP
            .take()
            .filter(|&(c, i, _)| (c, i) == (call, shard.cell));
        let template = match cached {
            Some((_, _, template)) => template,
            None => cell.template(settings).unwrap_or_else(|e| panic!("{e}")),
        };
        let measured = cell
            .run(&template, settings, shard.lo..shard.hi)
            .unwrap_or_else(|e| panic!("{e}"));
        LAST_SETUP.set(Some((call, shard.cell, template)));
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
    cells: &[TrialCell<'_>],
    full: u32,
    test: &SequentialTest,
    policy: &RunPolicy,
    fingerprint: u64,
    telemetry: &Telemetry,
    tally: &mut [CellTally],
    pool: impl Fn(&[Shard], &RunPolicy) -> Result<ResilientRun<Measurement>, CampaignError>,
) -> Result<(CampaignOutcome, usize), CampaignError> {
    let (injector, tasks) = (policy.io_injector(), cells.len());
    let restore = |i: usize, state: AdaptiveCellState| {
        tally[i].m = state.m;
        tally[i].settled = state.decided;
        true
    };
    let (resumed, prior) = resume(policy, &injector, telemetry, fingerprint, tasks, restore)?;

    // Wall-clock already consumed by the resume chain counts against the
    // whole-campaign deadline, exactly as on an exhaustive run.
    let outer = Supervisor::with_consumed(policy.budget, prior);
    let mut stop: Option<StopReason> = None;
    let mut stats = PoolStats::default();
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
                    let cell = &cells[i];
                    telemetry.emit(Event::AdaptiveStop {
                        cell: format!("{} on {} TLB", cell.row, cell.column),
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
            let mut ck = Checkpoint::new(fingerprint, tasks);
            for (i, t) in tally.iter().enumerate() {
                let (m, decided) = (t.m, t.settled);
                if m.trials > 0 || decided {
                    ck.record(i, &AdaptiveCellState { m, decided });
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
    let workers = total.workers.len().max(round.workers.len());
    total.workers.resize(workers, WorkerStats::default());
    for (slot, stats) in total.workers.iter_mut().zip(&round.workers) {
        slot.shards += stats.shards;
        slot.trials += stats.trials;
        slot.busy += stats.busy;
        slot.retried += stats.retried;
        slot.stolen += stats.stolen;
    }
    total.quarantined += round.quarantined;
    total.stalled += round.stalled;
    total.skipped += round.skipped;
    total.preempted += round.preempted;
    total.deaths += round.deaths;
    total.reclaimed += round.reclaimed;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The measurements of `cells` on one engine worker, for the unit
    /// tests of the modules that build cells.
    pub(crate) fn measured(cells: &[TrialCell<'_>], settings: &TrialSettings) -> Vec<Measurement> {
        let policy = RunPolicy::default();
        let run = measure_cells_resilient_observed(
            cells,
            0,
            settings,
            NonZeroUsize::MIN,
            &policy,
            &Telemetry::disabled(),
        )
        .expect("clean campaign");
        run.cells
            .iter()
            .map(|c| c.measurement().expect("cell measured"))
            .collect()
    }

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

    // The stages on their own: no worker threads, and the monitor sweeps
    // at clock readings the test picks, so nothing sleeps.

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Worker `w` of `pool` starts `task` at `at` into the run.
    fn start(pool: &Pool<'_, u64, u64>, w: usize, task: usize, at: Duration) {
        pool.workers[w].task.store(task, Ordering::Release);
        pool.workers[w]
            .started
            .store(at.as_nanos() as u64 + 1, Ordering::Release);
    }

    #[test]
    fn the_collector_saves_once_for_a_queued_batch_and_fills_every_slot() {
        // Every result already queued is recorded before the checkpoint's
        // `every` is consulted, so 40 queued results at `every: 1` make one
        // save, plus the final one. Saving per result falls ever further
        // behind fast workers.
        let tasks: Vec<u64> = (0..40).collect();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sectlb-collector-ck-{}", std::process::id()));
        let events = dir.join(format!("sectlb-collector-events-{}", std::process::id()));
        let telemetry = Telemetry::to_path("collector", &events).expect("event file");
        let policy = RunPolicy {
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every: 1,
            }),
            ..RunPolicy::default()
        };
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t * 3);
        let (pool, mut outcomes) =
            Pool::new(&tasks, two(), &policy, 0xc011, &label, &telemetry, &f).expect("set up");
        let (tx, rx) = mpsc::channel();
        for &t in &tasks {
            tx.send((t as usize, ShardOutcome::Done(t * 3)))
                .expect("queued");
        }
        drop(tx);
        pool.collect(&rx, &mut outcomes);
        assert!(
            outcomes.slots.iter().all(Option::is_some),
            "every slot filled"
        );
        let run = pool
            .settle(outcomes, Vec::new(), Monitor::default())
            .expect("complete");
        telemetry.flush();
        let tripled: Vec<u64> = tasks.iter().map(|t| t * 3).collect();
        assert_eq!(done(&run), tripled);
        let stream = std::fs::read_to_string(&events).expect("event stream");
        let saves = stream
            .lines()
            .filter(|l| l.contains("\"checkpoint_flush\""))
            .count();
        assert_eq!(
            saves, 2,
            "one save for the batch and the final one:\n{stream}"
        );
        let saved = Checkpoint::load(&path).expect("final file");
        let mut decoded = saved.decoded::<u64>().expect("decodes");
        decoded.sort_unstable();
        assert_eq!(decoded, tripled.into_iter().enumerate().collect::<Vec<_>>());
        for p in [crate::iofault::prev_path(&path), path, events] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn without_a_checkpoint_policy_the_collector_keeps_no_checkpoint() {
        let tasks: Vec<u64> = (0..5).collect();
        let policy = RunPolicy::default();
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t);
        let telemetry = Telemetry::disabled();
        let (pool, mut outcomes) =
            Pool::new(&tasks, two(), &policy, 1, &label, &telemetry, &f).expect("set up");
        assert!(outcomes.ck.is_none());
        let (tx, rx) = mpsc::channel();
        for &t in &tasks {
            tx.send((t as usize, ShardOutcome::Done(t)))
                .expect("queued");
        }
        drop(tx);
        pool.collect(&rx, &mut outcomes);
        assert!(outcomes.ck.is_none());
        let run = pool
            .settle(outcomes, Vec::new(), Monitor::default())
            .expect("complete");
        assert_eq!(done(&run), tasks);
    }

    #[test]
    fn the_monitor_reports_a_stall_once_and_preempts_past_the_cell_deadline() {
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            stall_deadline: Some(ms(10)),
            budget: BudgetPolicy {
                deadline: None,
                cell_deadline: Some(ms(20)),
            },
            ..RunPolicy::default()
        };
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t);
        let telemetry = Telemetry::disabled();
        let (pool, _) =
            Pool::new(&tasks, two(), &policy, 1, &label, &telemetry, &f).expect("set up");
        // An eighth of the 10 ms stall deadline, raised to the 2 ms floor.
        assert_eq!(pool.poll(), Some(ms(2)));
        let mut m = Monitor::default();
        let preempted = |w: usize| pool.workers[w].preempt.load(Ordering::Acquire);
        start(&pool, 0, 2, ms(1));
        pool.sweep(ms(11), false, &mut m);
        assert!(m.stalls.is_empty(), "10 ms is not past a 10 ms deadline");
        pool.sweep(ms(12), false, &mut m);
        let stall = StallEvent {
            worker: 0,
            task: 2,
            waited: ms(11),
        };
        assert_eq!(m.stalls, vec![stall]);
        pool.sweep(ms(21), false, &mut m);
        assert!(!preempted(0), "20 ms is not past a 20 ms cell deadline");
        pool.sweep(ms(22), false, &mut m);
        assert!(preempted(0));
        assert!(!preempted(1), "an idle worker is left alone");
        pool.sweep(ms(40), false, &mut m);
        assert_eq!(m.stalls.len(), 1, "one report per (worker, task)");
        // The same worker stalling on another task is a new report, and so
        // is another worker stalling on the same task.
        start(&pool, 0, 3, ms(40));
        start(&pool, 1, 2, ms(40));
        pool.sweep(ms(51), false, &mut m);
        let reported: Vec<(usize, usize)> = m.stalls.iter().map(|s| (s.worker, s.task)).collect();
        assert_eq!(reported, vec![(0, 2), (0, 3), (1, 2)]);
        assert_eq!((m.deaths, m.reclaimed), (0, 0));
    }

    #[test]
    fn the_monitor_reenqueues_a_dead_workers_shard_with_backoff_then_quarantines_it() {
        // max_retries 2: the shard goes back on a survivor's deque after
        // its first and second abandonment, 5 and 10 ms later, and the
        // third abandonment quarantines it.
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy::default();
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t);
        let telemetry = Telemetry::disabled();
        let (pool, _) =
            Pool::new(&tasks, two(), &policy, 1, &label, &telemetry, &f).expect("set up");
        assert_eq!(pool.poll(), None, "no deadline and no death: no monitor");
        let mut m = Monitor::default();
        pool.workers[1].dead.store(true, Ordering::Release);
        let queued = pool.queues.remaining();
        for (attempt, (died, backoff)) in [(100, 5), (200, 10)].into_iter().enumerate() {
            start(&pool, 1, 3, ms(died - 1));
            pool.sweep(ms(died), false, &mut m);
            assert_eq!(m.deaths, attempt + 1);
            assert_eq!(
                pool.workers[1].started.load(Ordering::Acquire),
                0,
                "slot cleared"
            );
            pool.sweep(ms(died + backoff - 1), false, &mut m);
            assert_eq!(pool.queues.remaining(), queued, "still backing off");
            pool.sweep(ms(died + backoff), false, &mut m);
            assert_eq!(m.reclaimed, attempt + 1);
            // On the survivor's deque, at the end its owner pops next.
            let claim = pool.queues.claim(0).expect("re-enqueued");
            assert_eq!((claim.task, claim.stolen), (3, false));
        }
        start(&pool, 1, 3, ms(299));
        pool.sweep(ms(300), false, &mut m);
        assert_eq!(m.reclaimed, 2);
        assert_eq!(m.quarantined.len(), 1);
        let failure = &m.quarantined[0];
        assert_eq!((failure.index, failure.attempts), (3, 3));
        assert!(failure.task.contains("task 3"), "{failure}");
        assert!(failure.payload.contains("worker died"), "{failure}");
        assert_eq!(pool.outstanding.load(Ordering::Acquire), tasks.len() - 1);
    }

    #[test]
    fn an_abandoned_shard_is_quarantined_once_no_worker_survives_or_the_workers_joined() {
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            max_retries: 0,
            ..RunPolicy::default()
        };
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t);
        let telemetry = Telemetry::disabled();
        let (pool, _) =
            Pool::new(&tasks, two(), &policy, 1, &label, &telemetry, &f).expect("set up");
        let mut m = Monitor::default();
        // max_retries 0 still re-enqueues once: max(max_retries, 1).
        pool.workers[1].dead.store(true, Ordering::Release);
        start(&pool, 1, 2, ms(0));
        pool.sweep(ms(1), false, &mut m);
        assert_eq!(m.backlog.len(), 1);
        // Worker 0 dies too before the backoff ends: nobody survives.
        pool.workers[0].dead.store(true, Ordering::Release);
        start(&pool, 0, 0, ms(2));
        pool.sweep(ms(6), false, &mut m);
        assert_eq!(m.reclaimed, 0);
        let quarantined: Vec<(usize, u32)> = m
            .quarantined
            .iter()
            .map(|f| (f.index, f.attempts))
            .collect();
        assert_eq!(quarantined, vec![(2, 1)], "task 0 is still backing off");
        // After the join nothing is re-run: the backlog is quarantined.
        pool.sweep(ms(7), true, &mut m);
        let quarantined: Vec<(usize, u32)> = m
            .quarantined
            .iter()
            .map(|f| (f.index, f.attempts))
            .collect();
        assert_eq!(quarantined, vec![(2, 1), (0, 1)]);
        assert!(m.backlog.is_empty());
        assert_eq!(m.deaths, 2);
    }

    #[test]
    fn the_claim_cap_alone_stops_every_worker_after_stop_after_claims() {
        let tasks: Vec<u64> = (0..10).collect();
        let policy = RunPolicy {
            stop_after: Some(3),
            ..RunPolicy::default()
        };
        let (label, f) = (|t: &u64| format!("task {t}"), |&t: &u64| t);
        let telemetry = Telemetry::disabled();
        let (pool, _) =
            Pool::new(&tasks, two(), &policy, 1, &label, &telemetry, &f).expect("set up");
        let claimed: Vec<usize> = [0, 1, 0, 1, 0]
            .iter()
            .filter_map(|&w| pool.claim(w))
            .map(|c| c.task)
            .collect();
        assert_eq!(claimed, vec![0, 5, 1]);
        assert!(pool.claim(0).is_none() && pool.claim(1).is_none());
        assert_eq!(
            pool.stop_slot.get(),
            None,
            "a kill switch is no supervisor stop"
        );
    }
}
