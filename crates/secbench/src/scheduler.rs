//! The work-stealing shard scheduler.
//!
//! The campaign engine ([`crate::resilience`]) used to hand out shards
//! from a single atomic index: workers claimed tasks in
//! strict queue order, so a worker stuck behind an expensive shard (an
//! adaptive round's straggler cell, an injected stall, a preemption-bound
//! retry loop) left the rest of the pool idle once the tail of the queue
//! was drained. This module replaces that claim loop with per-worker
//! deques and classic work stealing:
//!
//! - every worker owns one deque, seeded with a contiguous chunk of the
//!   task list;
//! - an owner pops from the **back** of its own deque (LIFO — the chunk
//!   is stored reversed, so the owner still executes its tasks in
//!   ascending index order);
//! - an idle worker scans the other deques in ring order and steals from
//!   the **front** (FIFO — the end farthest from where the owner is
//!   working, minimizing contention on the hot end).
//!
//! # Determinism
//!
//! Stealing changes *which worker* runs a shard and *when*, never *what*
//! the shard computes: every trial seed is a pure function of its
//! coordinates ([`crate::run::derive_trial_seed`]), and shard results are
//! merged by commutative sums into per-task slots. Campaign output is
//! therefore bitwise identical for any worker count and any steal
//! schedule — the property `tests/scheduler_determinism.rs` pins by
//! forcing steals with injected stalls.
//!
//! # Reclamation
//!
//! [`StealQueues::push`] re-enqueues a task after the fact — the
//! supervision layer in [`crate::resilience`] uses it to hand a dead
//! worker's abandoned shard to a surviving worker, which re-executes it
//! from the same coordinate-derived seeds and produces the same result.
//!
//! The queues are plain `Mutex<VecDeque<_>>`s rather than lock-free
//! Chase-Lev deques: the crate forbids `unsafe`, shards are coarse
//! (≈[`crate::parallel::TRIALS_PER_SHARD`] simulated trials each), and a
//! handful of microsecond-scale lock acquisitions per shard is noise
//! against milliseconds of simulation.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One granted claim: which task, and whether it was stolen from another
/// worker's deque (steals are counted in
/// [`crate::parallel::WorkerStats::stolen`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The claimed task index.
    pub task: usize,
    /// Whether the claim came from another worker's deque.
    pub stolen: bool,
}

/// Per-worker work-stealing deques over task indices.
#[derive(Debug)]
pub struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

/// Locks a deque even if a panicking thread poisoned it — the queue's
/// contents (plain indices) cannot be left in a broken state by any
/// operation this module performs.
fn lock(q: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StealQueues {
    /// Builds `workers` deques seeded with contiguous chunks of `tasks`
    /// (worker `w` owns the `w`-th chunk; chunk sizes differ by at most
    /// one). Each chunk is stored reversed so the owner's LIFO pop walks
    /// it in ascending task order — the same order the old atomic-index
    /// queue produced for a lone worker.
    pub fn seed(workers: usize, tasks: &[usize]) -> StealQueues {
        let workers = workers.max(1);
        let base = tasks.len() / workers;
        let extra = tasks.len() % workers;
        let mut queues = Vec::with_capacity(workers);
        let mut lo = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk: VecDeque<usize> = tasks[lo..lo + len].iter().rev().copied().collect();
            queues.push(Mutex::new(chunk));
            lo += len;
        }
        StealQueues { queues }
    }

    /// The number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Claims a task for `worker`: its own deque first (LIFO), then the
    /// other deques in ring order starting at its right-hand neighbor
    /// (FIFO steal). `None` means every deque was empty *at the time each
    /// was inspected* — with [`StealQueues::push`] in play the caller
    /// decides whether to retry.
    pub fn claim(&self, worker: usize) -> Option<Claim> {
        if let Some(task) = lock(&self.queues[worker]).pop_back() {
            return Some(Claim {
                task,
                stolen: false,
            });
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(task) = lock(&self.queues[victim]).pop_front() {
                return Some(Claim { task, stolen: true });
            }
        }
        None
    }

    /// Re-enqueues `task` onto `worker`'s deque (at the owner's hot end,
    /// so it runs next there — or gets stolen by whoever is idle). Used
    /// by the supervision layer to reclaim a dead worker's shard.
    pub fn push(&self, worker: usize, task: usize) {
        lock(&self.queues[worker % self.queues.len()]).push_back(task);
    }

    /// Total tasks currently enqueued across all deques.
    pub fn remaining(&self) -> usize {
        self.queues.iter().map(|q| lock(q).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn lone_worker_claims_in_ascending_task_order() {
        let q = StealQueues::seed(1, &indices(7));
        let order: Vec<usize> = std::iter::from_fn(|| q.claim(0)).map(|c| c.task).collect();
        assert_eq!(order, indices(7));
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn owners_walk_their_own_chunks_in_order_without_stealing() {
        let q = StealQueues::seed(3, &indices(8));
        // Chunks: 0..3, 3..6, 6..8 (sizes differ by at most one).
        for (w, chunk) in [(0, vec![0, 1, 2]), (1, vec![3, 4, 5]), (2, vec![6, 7])] {
            for expect in chunk {
                let claim = q.claim(w).expect("own chunk non-empty");
                assert_eq!((claim.task, claim.stolen), (expect, false));
            }
        }
        assert!(q.claim(0).is_none(), "every deque drained");
    }

    #[test]
    fn an_idle_worker_steals_from_the_victims_cold_end() {
        let q = StealQueues::seed(2, &indices(6));
        // Worker 1 drains its own chunk (3, 4, 5) ...
        for expect in [3, 4, 5] {
            assert_eq!(q.claim(1).expect("own").task, expect);
        }
        // ... then steals from worker 0's chunk, farthest-first: the
        // owner would pop 0 next, so the thief takes 2.
        let steal = q.claim(1).expect("steal");
        assert_eq!((steal.task, steal.stolen), (2, true));
        let own = q.claim(0).expect("own");
        assert_eq!((own.task, own.stolen), (0, false));
    }

    #[test]
    fn every_task_is_claimed_exactly_once_under_contention() {
        let tasks = indices(500);
        let q = StealQueues::seed(4, &tasks);
        let claimed: Vec<Mutex<Vec<usize>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let q = &q;
                let claimed = &claimed;
                scope.spawn(move || {
                    while let Some(claim) = q.claim(w) {
                        claimed[w].lock().expect("test lock").push(claim.task);
                    }
                });
            }
        });
        let mut all: Vec<usize> = claimed
            .iter()
            .flat_map(|c| c.lock().expect("test lock").clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, tasks, "each task claimed exactly once");
    }

    #[test]
    fn pushed_tasks_are_claimable_again() {
        let q = StealQueues::seed(2, &indices(2));
        assert_eq!(q.claim(0).expect("own").task, 0);
        assert_eq!(q.claim(1).expect("own").task, 1);
        assert!(q.claim(0).is_none());
        q.push(1, 0); // reclaim task 0 onto worker 1's deque
        assert_eq!(q.remaining(), 1);
        let claim = q.claim(0).expect("steals the reclaimed task");
        assert_eq!((claim.task, claim.stolen), (0, true));
    }

    #[test]
    fn seeding_more_workers_than_tasks_leaves_empty_deques() {
        let q = StealQueues::seed(8, &indices(3));
        assert_eq!(q.workers(), 8);
        let mut got: Vec<usize> = (0..3).map(|w| q.claim(w).expect("seeded").task).collect();
        got.sort_unstable();
        assert_eq!(got, indices(3));
        assert!((0..8).all(|w| q.claim(w).is_none()));
    }
}
