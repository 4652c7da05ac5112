//! The resource-budgeted campaign supervisor.
//!
//! A real campaign runs under real limits: a CI time slot, an operator's
//! patience, a shared machine. This module gives the fault-tolerant
//! engine ([`crate::resilience`]) the three cooperating mechanisms that
//! make it degrade gracefully instead of running open-loop:
//!
//! - **Wall-clock budget** ([`BudgetPolicy::deadline`], `--deadline
//!   SECS`): checked cooperatively at shard-claim boundaries. On expiry
//!   workers stop claiming new shards, in-flight shards drain, the
//!   checkpoint is flushed, and the campaign returns a *partial* outcome
//!   — unfinished cells render as `PARTIAL` (exit [`EXIT_BUDGET`]), and a
//!   `--resume` from the flushed checkpoint completes to output bitwise
//!   identical to an uninterrupted run.
//! - **Per-shard deadline** ([`BudgetPolicy::cell_deadline`],
//!   `--cell-deadline-ms MS`): bounds any single shard's runtime. A
//!   monitor thread flags overrunning workers; the trial loop notices at
//!   its next [`preempt_point`] and unwinds with [`ShardPreempted`]. The
//!   shard is reported `TIMEOUT` — never recorded in the checkpoint, so a
//!   resume re-runs it in full and determinism is preserved. This is also
//!   what bounds the drain time after a budget expiry.
//! - **Signal-safe shutdown** ([`install_signal_handlers`]): the first
//!   SIGINT/SIGTERM trips a process-global latch ([`sectlb_signal`])
//!   that the claim boundary treats exactly like a deadline expiry —
//!   drain, flush, partial report — and a second signal exits
//!   immediately. Tests drive the identical path via [`trip_interrupt`].
//!
//! The supervisor never changes *what* a completed shard measured — only
//! *whether* a shard runs. Every completed shard is a pure function of
//! its coordinates, so any interleaving of budgets, signals, and resumes
//! converges to the same final table.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code drivers use when a campaign was cut short by its resource
/// budget — a deadline expiry, a per-shard timeout, or a graceful-signal
/// drain. The rendered table marks the missing cells `PARTIAL`/`TIMEOUT`
/// and a flushed checkpoint (when configured) is resumable.
pub const EXIT_BUDGET: i32 = 7;

/// Why the supervisor stopped a campaign before every shard completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The `--deadline` wall-clock budget expired.
    DeadlineExpired,
    /// A SIGINT/SIGTERM (or an in-process [`trip_interrupt`]) requested a
    /// graceful shutdown.
    Interrupted,
    /// This run's [`CancelFlag`] was tripped: the owner (e.g. `campaignd`
    /// serving a `cancel` request) asked for this one run to stop, not
    /// the whole process.
    Cancelled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            StopReason::Interrupted => write!(f, "interrupted by signal"),
            StopReason::Cancelled => write!(f, "cancelled by request"),
        }
    }
}

/// A per-run cancellation latch: the scoped sibling of the process-global
/// signal latch. Tripping it stops exactly one engine run at its next
/// claim boundary — in-flight shards drain and the checkpoint flushes,
/// the same graceful-preemption path a SIGTERM drives — while every other
/// run in the process keeps going. `campaignd` arms one per job so a
/// `cancel <id>` request preempts that job alone.
///
/// Equality is identity (two flags are equal when they are the *same*
/// latch), which keeps [`crate::resilience::RunPolicy`] comparable.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, untripped flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation (idempotent, callable from any thread).
    pub fn trip(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelFlag {
    fn eq(&self, other: &CancelFlag) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelFlag {}

/// The campaign's resource budget (the `--deadline` / `--cell-deadline-ms`
/// flags). Plain data so [`crate::resilience::RunPolicy`] stays comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetPolicy {
    /// Wall-clock budget for the whole campaign; `None` is unlimited.
    pub deadline: Option<Duration>,
    /// Per-shard runtime bound; an overrunning shard is preempted at its
    /// next trial boundary and reported `TIMEOUT`. `None` never preempts.
    pub cell_deadline: Option<Duration>,
}

impl BudgetPolicy {
    /// Whether any budget mechanism is configured.
    pub fn is_active(&self) -> bool {
        self.deadline.is_some() || self.cell_deadline.is_some()
    }
}

/// The live supervisor of one engine run: the budget, the run's start
/// instant, and wall-clock already consumed by earlier runs of the same
/// campaign (restored from the checkpoint on `--resume`). Signal state is
/// process-global (signals are); deadline state is per-run.
#[derive(Debug)]
pub struct Supervisor {
    started: Instant,
    consumed: Duration,
    budget: BudgetPolicy,
    cancel: Option<CancelFlag>,
}

impl Supervisor {
    /// Starts supervising a fresh run under `budget`, with the clock at
    /// zero.
    pub fn new(budget: BudgetPolicy) -> Supervisor {
        Supervisor::with_consumed(budget, Duration::ZERO)
    }

    /// Starts supervising a resumed run: `consumed` wall-clock was
    /// already spent by earlier runs of this campaign and counts against
    /// `budget.deadline`. A `--deadline 60` campaign killed at 45 seconds
    /// resumes with 15 seconds left, not a fresh 60.
    pub fn with_consumed(budget: BudgetPolicy, consumed: Duration) -> Supervisor {
        Supervisor::with_cancel(budget, consumed, None)
    }

    /// Like [`Supervisor::with_consumed`], additionally watching a
    /// per-run [`CancelFlag`]: when the owner trips it, the run stops at
    /// its next claim boundary with [`StopReason::Cancelled`].
    pub fn with_cancel(
        budget: BudgetPolicy,
        consumed: Duration,
        cancel: Option<CancelFlag>,
    ) -> Supervisor {
        Supervisor {
            started: Instant::now(),
            consumed,
            budget,
            cancel,
        }
    }

    /// Whether the run should stop claiming new shards, and why.
    /// A cancellation wins over everything — it makes this run terminal,
    /// where a signal drain merely pauses it — and a latched signal wins
    /// over a deadline expiry: it is the more urgent of the two and the
    /// operator-visible one.
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelFlag::is_tripped) {
            return Some(StopReason::Cancelled);
        }
        if sectlb_signal::received() {
            return Some(StopReason::Interrupted);
        }
        if let Some(deadline) = self.budget.deadline {
            if self.elapsed() >= deadline {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// The per-shard deadline, if one is configured.
    pub fn cell_deadline(&self) -> Option<Duration> {
        self.budget.cell_deadline
    }

    /// Campaign wall-clock consumed so far: this run's elapsed time plus
    /// the consumed time carried in from resumed checkpoints.
    pub fn elapsed(&self) -> Duration {
        self.consumed + self.started.elapsed()
    }

    /// Time elapsed in this process alone (excludes resumed consumption).
    pub fn elapsed_here(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Installs the process-global SIGINT/SIGTERM handlers (idempotent).
///
/// Every driver calls this before its campaign runs, so a first signal
/// always drains gracefully — flagless runs included.
pub fn install_signal_handlers() {
    sectlb_signal::install();
}

/// Trips the graceful-shutdown latch in-process — the test-harness stand
/// in for a real SIGINT/SIGTERM, driving the identical drain path.
pub fn trip_interrupt() {
    sectlb_signal::trip();
}

/// Clears the graceful-shutdown latch (tests run many campaigns per
/// process; a real campaign never unlatches).
pub fn reset_interrupt() {
    sectlb_signal::reset();
}

/// The panic payload of a preempted shard. The engine's `catch_unwind`
/// recognizes this type and records the shard as `TIMEOUT` instead of
/// retrying or quarantining it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPreempted;

impl std::fmt::Display for ShardPreempted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard preempted by the cell deadline")
    }
}

thread_local! {
    /// The preemption flag of the shard currently executing on this
    /// thread, if the engine armed one. Shared with the monitor thread,
    /// which sets it when the shard overruns its deadline.
    static PREEMPT: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// Arms (or clears, with `None`) the calling thread's preemption flag.
/// The engine calls this around each shard execution.
pub fn set_preempt_flag(flag: Option<Arc<AtomicBool>>) {
    PREEMPT.with(|p| *p.borrow_mut() = flag);
}

/// Cooperative preemption point, called by the trial loop between
/// trials. Unwinds with [`ShardPreempted`] when the monitor has flagged
/// this shard as over its deadline; a few nanoseconds of no-op otherwise.
pub fn preempt_point() {
    let preempt = PREEMPT.with(|p| {
        p.borrow()
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Acquire))
    });
    if preempt {
        // Disarm before unwinding so the panic path cannot re-trigger.
        set_preempt_flag(None);
        std::panic::panic_any(ShardPreempted);
    }
}

// Tests that trip the process-wide latch live in `tests/signal_latch.rs`,
// a process of their own: this crate's unit tests run the engine, which a
// tripped latch would stop.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expiry_is_reported() {
        let s = Supervisor::new(BudgetPolicy {
            deadline: Some(Duration::ZERO),
            cell_deadline: None,
        });
        assert_eq!(s.should_stop(), Some(StopReason::DeadlineExpired));
        let relaxed = Supervisor::new(BudgetPolicy {
            deadline: Some(Duration::from_secs(3600)),
            cell_deadline: None,
        });
        assert_eq!(relaxed.should_stop(), None);
    }

    #[test]
    fn consumed_time_counts_against_the_deadline() {
        let budget = BudgetPolicy {
            deadline: Some(Duration::from_secs(3600)),
            cell_deadline: None,
        };
        // Fresh run: a full hour left.
        assert_eq!(Supervisor::new(budget).should_stop(), None);
        // Resumed run that already burned two hours: stops immediately.
        let resumed = Supervisor::with_consumed(budget, Duration::from_secs(7200));
        assert_eq!(resumed.should_stop(), Some(StopReason::DeadlineExpired));
        assert!(resumed.elapsed() >= Duration::from_secs(7200));
        assert!(resumed.elapsed_here() < Duration::from_secs(1));
    }

    #[test]
    fn unbudgeted_supervisor_never_stops() {
        let s = Supervisor::new(BudgetPolicy::default());
        assert_eq!(s.should_stop(), None);
        assert!(!BudgetPolicy::default().is_active());
    }

    #[test]
    fn preempt_point_unwinds_only_when_flagged() {
        preempt_point(); // unarmed: no-op
        let flag = Arc::new(AtomicBool::new(false));
        set_preempt_flag(Some(flag.clone()));
        preempt_point(); // armed but not flagged: no-op
        flag.store(true, Ordering::Release);
        let unwound = std::panic::catch_unwind(preempt_point).expect_err("unwinds");
        assert!(unwound.downcast_ref::<ShardPreempted>().is_some());
        // The flag was disarmed on unwind.
        preempt_point();
    }
}
