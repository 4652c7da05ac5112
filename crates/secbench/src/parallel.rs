//! The shard plan and the counters of the campaign engine.
//!
//! The paper's security evaluation is embarrassingly parallel: Table 4
//! alone is 24 vulnerability types × 3 designs × 2 placements × 500
//! trials = 72,000 independent machine simulations. The engine
//! ([`crate::resilience`]) splits each `(vulnerability, design)` cell
//! into [`TRIALS_PER_SHARD`]-trial shards, runs them on a scoped-thread
//! worker pool, and merges the per-shard [`crate::run::Measurement`]s
//! with their commutative [`crate::run::Measurement::merge`].
//!
//! # Determinism contract
//!
//! Every trial's RFE seed is derived by [`crate::run::derive_trial_seed`]
//! from `(base_seed, vulnerability, design, placement, trial_index)` —
//! the trial's *coordinates*, never its schedule. Shards are merged by
//! component-wise sums. Together these make the campaign's output
//! **bitwise identical for any worker count** and equal to measuring each
//! cell serially — the property `tests/parallel_equivalence.rs` pins.
//!
//! This module holds what every engine run shares: the shard plan and
//! [`PoolStats`] / [`WorkerStats`], the per-shard throughput counters
//! that make the speedup (and steal traffic) observable in reports.

use std::time::Duration;

/// Trials per shard. Small enough that 24×3 cells split into plenty of
/// shards for any sane worker count, large enough that the atomic queue
/// is noise. Results never depend on this value — only scheduling does.
pub const TRIALS_PER_SHARD: u32 = 25;

/// What one worker did during a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shards this worker completed.
    pub shards: usize,
    /// Trials (per placement) this worker executed.
    pub trials: u64,
    /// Time this worker spent executing shards (excludes queue idling).
    pub busy: Duration,
    /// Shard attempts this worker retried after a caught panic.
    pub retried: usize,
    /// Shards this worker stole from another worker's deque.
    pub stolen: usize,
}

/// Timing and throughput of one sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Shards quarantined after exhausting their retry budget.
    pub quarantined: usize,
    /// Shards the watchdog flagged as exceeding their deadline (always 0
    /// without a watchdog deadline).
    pub stalled: usize,
    /// Shards never claimed because the supervisor stopped the campaign
    /// (deadline expiry or graceful signal). Always 0 without a budget.
    pub skipped: usize,
    /// Shards preempted mid-flight by the per-shard `--cell-deadline-ms`
    /// bound. Always 0 without a budget.
    pub preempted: usize,
    /// Trials the adaptive early-stopping rule avoided running (always 0
    /// on exhaustive campaigns).
    pub trials_saved: u64,
    /// Workers the supervision layer declared dead mid-campaign (always 0
    /// without injected worker death).
    pub deaths: usize,
    /// Shards abandoned by a dead worker and re-enqueued for a surviving
    /// worker to re-execute deterministically.
    pub reclaimed: usize,
}

impl PoolStats {
    /// Total shards executed.
    pub fn shards(&self) -> usize {
        self.workers.iter().map(|w| w.shards).sum()
    }

    /// Total trials (per placement) executed.
    pub fn trials(&self) -> u64 {
        self.workers.iter().map(|w| w.trials).sum()
    }

    /// Sum of busy time across workers — the serial-equivalent work.
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Total shard attempts retried after a caught panic.
    pub fn retried(&self) -> usize {
        self.workers.iter().map(|w| w.retried).sum()
    }

    /// Total shards claimed from another worker's deque.
    pub fn stolen(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Trial *pairs* completed per second of wall-clock time.
    ///
    /// [`WorkerStats::trials`] counts per-placement trial indices, and
    /// every index runs as one mapped + one not-mapped placement pair, so
    /// a pair is the natural unit of completed work. An earlier revision
    /// multiplied by 2 here to count individual placements while
    /// `trials()` already described the same work — readers comparing the
    /// footer against `trials x 2 placements` saw a doubled rate. The
    /// pinned definition is `trials() / wall`, labeled "trial pairs/s".
    pub fn throughput(&self) -> f64 {
        self.trials() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Worker overlap: aggregate busy time divided by wall-clock time.
    ///
    /// Busy time is measured in wall time per shard, so this equals the
    /// effective speedup over a serial run only when the machine has at
    /// least as many free cores as workers; with oversubscribed workers
    /// the timeshared shards inflate the busy sum.
    pub fn speedup(&self) -> f64 {
        self.busy().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// One-line throughput summary for campaign footers.
    ///
    /// Resilience counters (retries, quarantined shards, watchdog stalls)
    /// are appended only when nonzero, so clean runs render exactly as
    /// they did before the fault-tolerant engine existed.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} workers, {} shards, {} trials x 2 placements in {:.2?} \
             ({:.0} trial pairs/s, {:.2}x worker overlap / speedup)",
            self.workers.len(),
            self.shards(),
            self.trials(),
            self.wall,
            self.throughput(),
            self.speedup(),
        );
        let retried = self.retried();
        if retried > 0 || self.quarantined > 0 || self.stalled > 0 {
            line.push_str(&format!(
                "; resilience: {retried} retried, {} quarantined, {} stalled",
                self.quarantined, self.stalled
            ));
        }
        if self.skipped > 0 || self.preempted > 0 {
            line.push_str(&format!(
                "; budget: {} shards skipped, {} preempted",
                self.skipped, self.preempted
            ));
        }
        if self.trials_saved > 0 {
            line.push_str(&format!(
                "; adaptive: {} trials x 2 placements saved",
                self.trials_saved
            ));
        }
        let stolen = self.stolen();
        if stolen > 0 {
            line.push_str(&format!("; work stealing: {stolen} shards stolen"));
        }
        if self.deaths > 0 || self.reclaimed > 0 {
            line.push_str(&format!(
                "; supervision: {} workers died, {} shards reclaimed",
                self.deaths, self.reclaimed
            ));
        }
        line
    }
}

/// One chunk of trials for one campaign cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shard {
    pub(crate) cell: usize,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// Splits `cells` campaign cells of `trials` trials each into
/// [`TRIALS_PER_SHARD`]-sized shards, in cell order.
pub(crate) fn plan_shards(cells: usize, trials: u32) -> Vec<Shard> {
    let mut shards = Vec::new();
    for cell in 0..cells {
        let mut lo = 0;
        while lo < trials {
            let hi = (lo + TRIALS_PER_SHARD).min(trials);
            shards.push(Shard { cell, lo, hi });
            lo = hi;
        }
    }
    shards
}

/// Spreads the `total` trials a run executed over the workers
/// proportionally to the shards each one completed (the queue hands out
/// equal-sized shards, so this matches what each worker actually ran up
/// to the final ragged shard).
pub(crate) fn distribute_trial_counts(stats: &mut PoolStats, total: u64) {
    let done: usize = stats.workers.iter().map(|w| w.shards).sum();
    if done == 0 {
        return;
    }
    let mut assigned = 0;
    let worker_count = stats.workers.len();
    for (i, w) in stats.workers.iter_mut().enumerate() {
        if i + 1 == worker_count {
            w.trials = total - assigned;
        } else {
            w.trials = total * w.shards as u64 / done as u64;
            assigned += w.trials;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_trial_pairs_once() {
        let stats = PoolStats {
            wall: Duration::from_secs(2),
            workers: vec![
                WorkerStats {
                    shards: 4,
                    trials: 100,
                    busy: Duration::from_secs(1),
                    retried: 0,
                    stolen: 0,
                },
                WorkerStats {
                    shards: 2,
                    trials: 50,
                    busy: Duration::from_secs(1),
                    retried: 0,
                    stolen: 0,
                },
            ],
            quarantined: 0,
            stalled: 0,
            skipped: 0,
            preempted: 0,
            trials_saved: 0,
            deaths: 0,
            reclaimed: 0,
        };
        // 150 trial pairs over 2 seconds: exactly 75 pairs/s, with no
        // doubling for the two placements each pair already contains.
        assert_eq!(stats.trials(), 150);
        assert!((stats.throughput() - 75.0).abs() < 1e-9);
        assert!(
            stats.render().contains("trial pairs/s"),
            "{}",
            stats.render()
        );
    }
}
