//! Adaptive early stopping for the security campaigns.
//!
//! The exhaustive Table 4 campaign spends 500 trials per placement on
//! every cell, but most cells are statistically settled long before that:
//! a vulnerable cell shows `p1* ≈ 1, p2* ≈ 0` within a shard or two, and
//! a strongly defended cell pins `p1* ≈ p2*` well before the full budget.
//! This module adds a *sequential two-proportion test* that stops a
//! cell's trials as soon as its defended/vulnerable verdict is confident,
//! while keeping the campaign's two contracts intact:
//!
//! - **Agreement** — the test is conservative: it only stops early when a
//!   Hoeffding-bound confidence rectangle on `(p1*, p2*)` places the
//!   channel capacity entirely on one side of the defended threshold.
//!   Borderline cells run to the full budget, so the adaptive verdict for
//!   every cell equals the exhaustive run's verdict (pinned by
//!   `crates/secbench/tests/budget_adaptive.rs` on the golden Table 2
//!   enumeration).
//! - **Determinism** — trials are only ever *truncated to a prefix* of
//!   the exhaustive trial sequence, one [`TRIALS_PER_SHARD`]-sized shard
//!   at a time ([`next_trials`]). A cell's stopping point is a pure
//!   function of its own prefix measurements, never of worker
//!   scheduling, so any worker count (and any checkpoint/resume
//!   interleaving) produces identical measurements, identical verdicts,
//!   and identical trials-saved accounting.
//!
//! The campaign engine runs the schedule when
//! [`crate::resilience::RunPolicy::adaptive`] is set: rounds of one shard
//! per undecided cell, so panic isolation, quarantine, stall watchdogs,
//! fault injection, and the resource budget ([`crate::supervisor`]) all
//! compose with early stopping. Its checkpoints are cell-granular
//! ([`AdaptiveCellState`]) rather than shard-granular: the file records
//! each cell's merged prefix and whether it has been decided. Drivers
//! whose engine tasks are whole rows of cells run the same schedule per
//! cell with [`run_vulnerability_adaptive_with_builder`].

use std::ops::Range;

use sectlb_model::Vulnerability;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};

use crate::capacity::binary_channel_capacity;
use crate::checkpoint::Record;
use crate::parallel::TRIALS_PER_SHARD;
use crate::report::DEFENDED_THRESHOLD;
use crate::resilience::cells_fingerprint;
use crate::run::{run_trial_range, Measurement, TrialSettings};
use crate::spec::BenchmarkSpec;

/// The `--adaptive[=ALPHA]` configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Confidence parameter of the sequential test: the per-decision
    /// error budget of the Hoeffding rectangle. Smaller is more
    /// conservative (later stops, stronger agreement margin).
    pub alpha: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> AdaptivePolicy {
        AdaptivePolicy { alpha: 0.01 }
    }
}

/// The Hoeffding radius: with probability at least `1 - alpha`, both
/// `p1` and `p2` lie within `eps` of their empirical estimates after
/// `trials` trials per placement (two-sided bound on each of the two
/// proportions, union-bounded — hence the 4).
pub fn hoeffding_radius(trials: u32, alpha: f64) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    ((4.0 / alpha).ln() / (2.0 * f64::from(trials))).sqrt()
}

/// Confidence bounds on the channel capacity after `m.trials` trials.
///
/// The capacity `C(p1, p2)` is zero on the `p1 == p2` diagonal and
/// monotone moving away from it in either coordinate, so over the
/// confidence rectangle its maximum is attained at a corner, and its
/// minimum is zero iff the rectangle touches the diagonal (a corner
/// otherwise). Returns `(lo, hi)`.
pub fn capacity_bounds(m: &Measurement, alpha: f64) -> (f64, f64) {
    if m.trials == 0 {
        return (0.0, 1.0);
    }
    let eps = hoeffding_radius(m.trials, alpha);
    let (lo1, hi1) = ((m.p1() - eps).max(0.0), (m.p1() + eps).min(1.0));
    let (lo2, hi2) = ((m.p2() - eps).max(0.0), (m.p2() + eps).min(1.0));
    let corners = [(lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2)];
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (a, b) in corners {
        let c = binary_channel_capacity(a, b);
        lo = lo.min(c);
        hi = hi.max(c);
    }
    if lo1 <= hi2 && lo2 <= hi1 {
        lo = 0.0;
    }
    (lo, hi)
}

/// The sequential two-proportion test: decides a cell's verdict as soon
/// as the capacity's confidence interval clears the defended threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialTest {
    /// Error budget of the confidence rectangle.
    pub alpha: f64,
    /// The defended-capacity threshold the verdict is measured against
    /// (Table 4 uses [`DEFENDED_THRESHOLD`]).
    pub threshold: f64,
}

impl SequentialTest {
    /// The Table 4 test at confidence `alpha`.
    pub fn table4(alpha: f64) -> SequentialTest {
        SequentialTest {
            alpha,
            threshold: DEFENDED_THRESHOLD,
        }
    }

    /// `Some(true)` once the cell is confidently defended, `Some(false)`
    /// once confidently vulnerable, `None` while undecided.
    pub fn decide(&self, m: &Measurement) -> Option<bool> {
        if m.trials == 0 {
            return None;
        }
        let (lo, hi) = capacity_bounds(m, self.alpha);
        if hi <= self.threshold {
            Some(true)
        } else if lo > self.threshold {
            Some(false)
        } else {
            None
        }
    }
}

/// One cell's adaptive progress — the [`Record`] the cell-granular
/// checkpoint stores: the merged prefix measurement plus whether the
/// sequential test already settled the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveCellState {
    /// Merged measurement of the cell's completed prefix.
    pub m: Measurement,
    /// Whether the cell is settled (early stop or full budget).
    pub decided: bool,
}

impl Record for AdaptiveCellState {
    fn encode(&self) -> String {
        format!("{} {}", self.m.encode(), u8::from(self.decided))
    }

    fn decode(line: &str) -> Option<AdaptiveCellState> {
        let (m, decided) = line.rsplit_once(' ')?;
        let decided = match decided {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some(AdaptiveCellState {
            m: Measurement::decode(m)?,
            decided,
        })
    }
}

/// The adaptive campaign's checkpoint fingerprint: the exhaustive
/// campaign's fingerprint chained with the test parameters, so an
/// adaptive checkpoint can never be resumed by (or resume) an exhaustive
/// run or a different-alpha run.
pub(crate) fn fingerprint(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    test: &SequentialTest,
) -> u64 {
    crate::checkpoint::fingerprint(
        cells_fingerprint(cells, settings),
        [0xada9_717e, test.alpha.to_bits(), test.threshold.to_bits()],
    )
}

/// The next trials of a cell's adaptive schedule after its measured
/// prefix `m`: one [`TRIALS_PER_SHARD`]-sized shard, or `None` once the
/// cell is settled — the sequential test decided it, or it reached the
/// `full` exhaustive budget. The engine's round scheduler and the
/// per-cell loop both step through this, so their stopping points agree.
pub fn next_trials(m: &Measurement, full: u32, test: &SequentialTest) -> Option<Range<u32>> {
    if m.trials >= full || test.decide(m).is_some() {
        return None;
    }
    Some(m.trials..(m.trials + TRIALS_PER_SHARD).min(full))
}

/// Serial adaptive measurement of one cell — the early-stopping analogue
/// of [`crate::run::run_vulnerability`], used by the drivers whose engine
/// tasks are whole survey rows (mitigation matrices, RF ablations). It
/// steps through the same [`next_trials`] schedule as the campaign
/// engine, so the stopping point (and measurement) is identical to an
/// adaptive engine run on the same cell.
pub fn run_vulnerability_adaptive(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    test: &SequentialTest,
) -> Measurement {
    run_vulnerability_adaptive_with_builder(vulnerability, design, settings, test, &|b| b)
}

/// [`run_vulnerability_adaptive`] with a machine-builder hook, for cells
/// that need a customized machine (flush policies, partition splits).
pub fn run_vulnerability_adaptive_with_builder(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    test: &SequentialTest,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Measurement {
    let spec = BenchmarkSpec::build_with_config(vulnerability, design, settings.config);
    let mut m = Measurement::ZERO;
    while let Some(range) = next_trials(&m, settings.trials, test) {
        m = m.merge(run_trial_range(&spec, design, settings, range, customize));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(trials: u32, mm: u32, nm: u32) -> Measurement {
        Measurement {
            trials,
            n_mapped_miss: mm,
            n_not_mapped_miss: nm,
        }
    }

    #[test]
    fn radius_shrinks_with_trials_and_grows_with_confidence() {
        assert!(hoeffding_radius(25, 0.01) > hoeffding_radius(100, 0.01));
        assert!(hoeffding_radius(100, 0.001) > hoeffding_radius(100, 0.01));
        assert_eq!(hoeffding_radius(0, 0.01), 1.0);
    }

    #[test]
    fn capacity_bounds_bracket_the_point_estimate() {
        for m in [meas(50, 49, 1), meas(200, 100, 98), meas(25, 25, 0)] {
            let (lo, hi) = capacity_bounds(&m, 0.01);
            let c = m.capacity();
            assert!(lo <= c + 1e-12, "lo {lo} > C* {c}");
            assert!(hi + 1e-12 >= c, "hi {hi} < C* {c}");
            assert!((0.0..=1.0).contains(&lo) && hi <= 1.0);
        }
    }

    #[test]
    fn clear_gap_decides_vulnerable_and_no_gap_stays_open_early() {
        let test = SequentialTest::table4(0.01);
        // A maximal-gap cell (the Table 4 vulnerable shape) settles on
        // the very first shard.
        assert_eq!(test.decide(&meas(25, 25, 0)), Some(false));
        // A diagonal cell can't be *confirmed* defended at 25 trials —
        // the rectangle still admits capacities above the threshold.
        assert_eq!(test.decide(&meas(25, 12, 12)), None);
        // ... but enough diagonal trials confirm it.
        assert_eq!(test.decide(&meas(400, 200, 200)), Some(true));
        assert_eq!(test.decide(&Measurement::ZERO), None);
    }

    #[test]
    fn decisions_are_conservative_about_the_threshold() {
        let test = SequentialTest::table4(0.01);
        for trials in [25u32, 50, 100, 200, 400] {
            for mm in 0..=trials {
                for nm in [0, trials / 4, trials / 2, trials] {
                    let m = meas(trials, mm, nm);
                    match test.decide(&m) {
                        Some(true) => assert!(
                            m.defends(test.threshold),
                            "claimed defended but C* = {} at {m:?}",
                            m.capacity()
                        ),
                        Some(false) => assert!(
                            !m.defends(test.threshold),
                            "claimed vulnerable but C* = {} at {m:?}",
                            m.capacity()
                        ),
                        None => {}
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_state_record_round_trips() {
        for state in [
            AdaptiveCellState {
                m: meas(75, 74, 2),
                decided: true,
            },
            AdaptiveCellState {
                m: Measurement::ZERO,
                decided: false,
            },
        ] {
            let line = state.encode();
            assert_eq!(AdaptiveCellState::decode(&line), Some(state), "{line}");
        }
        assert_eq!(AdaptiveCellState::decode("25 1 2 7"), None);
        assert_eq!(AdaptiveCellState::decode("junk"), None);
    }
}
