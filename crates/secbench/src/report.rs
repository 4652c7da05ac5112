//! Assembling and rendering the Table 4 comparison.
//!
//! For every vulnerability type and every TLB design, the report holds the
//! measured `n_{M,M}`, `p1*`, `n_{N,M}`, `p2*`, `C*` alongside the paper's
//! theoretical `p1`, `p2`, `C` — the full structure of Table 4.

use std::fmt::Write as _;
use std::num::NonZeroUsize;

use sectlb_model::{enumerate_vulnerabilities, Vulnerability};
use sectlb_sim::machine::TlbDesign;

use crate::parallel::PoolStats;
use crate::resilience::{
    measure_cells_resilient_observed, CampaignError, CellGap, CellOutcome, RunPolicy, ShardFailure,
    StallEvent, EXIT_QUARANTINED,
};
use crate::run::{Measurement, TrialSettings};
use crate::supervisor::{StopReason, EXIT_BUDGET};
use crate::telemetry::Telemetry;
use crate::theory::{paper_theory, TheoryParams, TheoryRow};

/// One design's columns for one vulnerability row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Measured probabilities.
    pub measured: Measurement,
    /// Theoretical probabilities.
    pub theory: TheoryRow,
}

impl Cell {
    /// Whether measurement agrees with theory on the defended/vulnerable
    /// verdict, using a small capacity threshold for "about 0".
    pub fn verdict_matches(&self, threshold: f64) -> bool {
        self.measured.defends(threshold) == self.theory.defends()
    }
}

/// A full row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The vulnerability.
    pub vulnerability: Vulnerability,
    /// One cell per design column, in [`Table4::designs`] order
    /// (classically SA, SP, RF).
    pub cells: Vec<Cell>,
}

/// The assembled table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// All 24 rows, in Table 2 order.
    pub rows: Vec<Row>,
    /// Trials per placement used for the measurements.
    pub trials: u32,
    /// The design columns, left to right. The classic table is
    /// [`TlbDesign::ALL`]; `--designs` extends it with the temporal and
    /// multi-page-size designs.
    pub designs: Vec<TlbDesign>,
}

/// The number of the 24 vulnerability types the paper's closed-form
/// model says `design` defends — the `(paper: ...)` footer numbers,
/// derived from the theory rather than hardcoded per design.
pub fn paper_defended_count(design: TlbDesign) -> usize {
    let params = TheoryParams::default();
    enumerate_vulnerabilities()
        .iter()
        .filter(|v| paper_theory(v, design, &params).defends())
        .count()
}

/// Capacity threshold for calling a measured channel "about 0"
/// (Table 4 bolds capacities of 0.03 and below as secure).
pub const DEFENDED_THRESHOLD: f64 = 0.05;

/// Runs the full security evaluation (24 rows × 3 designs ×
/// 2×`settings.trials` trials) on the engine and assembles Table 4 — the
/// convenience form of [`build_table4_resilient_observed_for`] for tests
/// and examples: the classic columns, the default [`RunPolicy`], no
/// telemetry, and one worker. The table is bitwise identical for every
/// worker count.
///
/// # Panics
///
/// Panics if a cell does not complete (its shards kept failing and were
/// quarantined, or a signal stopped the campaign), rather than return a
/// table with a silently partial cell.
pub fn build_table4(settings: &TrialSettings) -> Table4 {
    let report = build_table4_resilient_observed_for(
        &TlbDesign::ALL,
        settings,
        NonZeroUsize::MIN,
        &RunPolicy::default(),
        &Telemetry::disabled(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        report.exit_code() == 0,
        "the campaign left cells incomplete:\n{}",
        report.render()
    );
    report.table
}

impl Table4 {
    /// Number of rows each design defends, per the measured capacity.
    pub fn defended_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.designs.len()];
        for row in &self.rows {
            for (i, cell) in row.cells.iter().enumerate() {
                if cell.measured.defends(DEFENDED_THRESHOLD) {
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    /// Whether every cell's measured verdict matches its theory.
    pub fn all_verdicts_match(&self) -> bool {
        self.rows.iter().all(|r| {
            r.cells
                .iter()
                .all(|c| c.verdict_matches(DEFENDED_THRESHOLD))
        })
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        self.render_marked(&[], &[], &[])
    }

    /// [`Table4::render`] with the listed `(row, column)` cells marked
    /// instead of showing numbers: `masked` cells `QUARANTINED`,
    /// `suspect` cells `SUSPECT` (the shadow oracle caught the TLB model
    /// misbehaving there), and budget-truncated cells `TIMEOUT` or
    /// `PARTIAL` — a missing cell is *visibly* missing, never a plausible
    /// number from a partial measurement. Priority is
    /// `SUSPECT > QUARANTINED > TIMEOUT > PARTIAL` when a cell qualifies
    /// for more than one. Marked cells are excluded from the defended
    /// counts; each nonempty category appends its own warning footer.
    /// With all lists empty the output is byte-identical to
    /// [`Table4::render`].
    pub fn render_marked(
        &self,
        masked: &[(usize, usize)],
        suspect: &[(usize, usize)],
        partial: &[(usize, usize, CellGap)],
    ) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self.designs.iter().map(|d| d.name()).collect();
        let _ = writeln!(
            out,
            "Table 4: {} TLB — simulated (p1*, p2*, C*) vs. theoretical (p1, p2, C)",
            names.join(" / ")
        );
        let _ = writeln!(out, "({} trials per placement per cell)", self.trials);
        let mut header = format!("{:<34} {:<30}", "Attack Strategy", "Vulnerability");
        for name in &names {
            let _ = write!(header, " | {:^24}", format!("{name} TLB"));
        }
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        let _ = writeln!(out, "{header}");
        let mut sub = format!("{:<34} {:<30}", "", "");
        for _ in &names {
            let _ = write!(sub, " | {:>7} {:>7} {:>4} {:>3}", "p1*", "p2*", "C*", "C");
        }
        let _ = writeln!(out, "{sub}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        let mut last_strategy = String::new();
        for (r, row) in self.rows.iter().enumerate() {
            let v = &row.vulnerability;
            let strategy = v.strategy.paper_name();
            let shown = if strategy == last_strategy {
                ""
            } else {
                strategy
            };
            last_strategy = strategy.to_owned();
            let pat = format!("{} ({})", v.pattern, v.timing);
            let mut line = format!("{shown:<34} {pat:<30}");
            for (c, cell) in row.cells.iter().enumerate() {
                let gap = partial.iter().find(|(pr, pc, _)| (*pr, *pc) == (r, c));
                if suspect.contains(&(r, c)) {
                    let _ = write!(line, " | {:^24}", "SUSPECT");
                } else if masked.contains(&(r, c)) {
                    let _ = write!(line, " | {:^24}", "QUARANTINED");
                } else if let Some((_, _, gap)) = gap {
                    let _ = write!(line, " | {:^24}", gap.marker());
                } else {
                    let _ = write!(
                        line,
                        " | {:>7.2} {:>7.2} {:>4.2} {:>3.2}",
                        cell.measured.p1(),
                        cell.measured.p2(),
                        cell.measured.capacity(),
                        cell.theory.capacity(),
                    );
                }
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        let mut counts = vec![0usize; self.designs.len()];
        for (r, row) in self.rows.iter().enumerate() {
            for (c, cell) in row.cells.iter().enumerate() {
                if !masked.contains(&(r, c))
                    && !suspect.contains(&(r, c))
                    && !partial.iter().any(|(pr, pc, _)| (*pr, *pc) == (r, c))
                    && cell.measured.defends(DEFENDED_THRESHOLD)
                {
                    counts[c] += 1;
                }
            }
        }
        let measured: Vec<String> = names
            .iter()
            .zip(&counts)
            .map(|(name, n)| format!("{name} {n}/24"))
            .collect();
        let paper: Vec<String> = self
            .designs
            .iter()
            .map(|&d| paper_defended_count(d).to_string())
            .collect();
        let _ = writeln!(
            out,
            "defended (measured C* <= {DEFENDED_THRESHOLD}): {} (paper: {})",
            measured.join(", "),
            paper.join(", ")
        );
        if !masked.is_empty() {
            let _ = writeln!(
                out,
                "WARNING: {} cell(s) quarantined and excluded from the counts above",
                masked.len()
            );
        }
        if !suspect.is_empty() {
            let _ = writeln!(
                out,
                "WARNING: {} cell(s) SUSPECT (shadow-oracle violation) and excluded from the \
                 counts above",
                suspect.len()
            );
        }
        if !partial.is_empty() {
            let _ = writeln!(
                out,
                "WARNING: {} cell(s) incomplete (PARTIAL/TIMEOUT) and excluded from the counts \
                 above — resume from the checkpoint to finish them",
                partial.len()
            );
        }
        out
    }
}

/// A campaign cell whose shards kept failing and were quarantined.
#[derive(Debug, Clone)]
pub struct QuarantinedCell {
    /// The cell's vulnerability.
    pub vulnerability: Vulnerability,
    /// The cell's TLB design.
    pub design: TlbDesign,
    /// Row index in [`Table4::rows`].
    pub row: usize,
    /// Column index into [`Table4::designs`] (classically 0 = SA, 1 = SP, 2 = RF).
    pub col: usize,
    /// Merged measurement of the shards that did complete.
    pub partial: Measurement,
    /// The first quarantined shard's failure report.
    pub failure: ShardFailure,
}

/// A campaign cell left incomplete by the resource budget — the campaign
/// stopped (or the cell timed out) before its trials finished.
#[derive(Debug, Clone)]
pub struct PartialCell {
    /// The cell's vulnerability.
    pub vulnerability: Vulnerability,
    /// The cell's TLB design.
    pub design: TlbDesign,
    /// Row index in [`Table4::rows`].
    pub row: usize,
    /// Column index into [`Table4::designs`] (classically 0 = SA, 1 = SP, 2 = RF).
    pub col: usize,
    /// Merged measurement of the trials that did complete.
    pub partial: Measurement,
    /// Why the cell is incomplete (selects the `PARTIAL`/`TIMEOUT`
    /// marker).
    pub gap: CellGap,
}

/// The adaptive campaign's early-stopping accounting: which cells were
/// settled before their full trial budget and what that saved.
/// Deterministic — the stopping points are pure functions of the trial
/// prefixes — so it renders on stdout with the table.
#[derive(Debug, Clone)]
pub struct AdaptiveSummary {
    /// Confidence parameter of the sequential test.
    pub alpha: f64,
    /// The exhaustive per-cell budget being truncated.
    pub full_trials: u32,
    /// `(row, col, trials used)` for every early-stopped cell.
    pub stopped: Vec<(usize, usize, u32)>,
}

impl AdaptiveSummary {
    /// Total per-placement trials the early stops avoided.
    pub fn saved(&self) -> u64 {
        self.stopped
            .iter()
            .map(|(_, _, used)| u64::from(self.full_trials.saturating_sub(*used)))
            .sum()
    }
}

/// A Table 4 campaign run on the engine: the table, the quarantine
/// report, and the pool's resilience counters.
#[derive(Debug)]
pub struct CampaignReport {
    /// The assembled table (quarantined cells hold partial measurements
    /// and are masked in [`CampaignReport::render`]).
    pub table: Table4,
    /// `(row, col)` cells the shadow oracle flagged, rendered `SUSPECT`.
    /// The builder leaves it empty; a driver fills it from the oracle's
    /// summary ([`CampaignReport::suspect_cells`]) once the campaign ran.
    pub suspect: Vec<(usize, usize)>,
    /// Every quarantined cell with its failure report — quarantine is
    /// always surfaced, never silently dropped.
    pub quarantined: Vec<QuarantinedCell>,
    /// Every cell the resource budget left incomplete, rendered
    /// `PARTIAL`/`TIMEOUT` — like quarantine, never silently dropped.
    pub partial: Vec<PartialCell>,
    /// Pool timing plus retry/quarantine/stall counters.
    pub stats: PoolStats,
    /// Shards skipped via the resume checkpoint.
    pub resumed: usize,
    /// The stall watchdog's individual reports (counted in
    /// [`PoolStats::stalled`], detailed here).
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the campaign early, if it did.
    pub stop: Option<StopReason>,
    /// Early-stopping accounting when the campaign ran `--adaptive`.
    pub adaptive: Option<AdaptiveSummary>,
}

impl CampaignReport {
    /// The driver exit code: 0 for a clean campaign,
    /// [`EXIT_QUARANTINED`] when any cell was quarantined, and
    /// [`EXIT_BUDGET`] — which wins, since the campaign is incomplete
    /// but resumable — when the budget cut it short.
    pub fn exit_code(&self) -> i32 {
        if !self.partial.is_empty() || self.stop.is_some() {
            EXIT_BUDGET
        } else if !self.quarantined.is_empty() {
            EXIT_QUARANTINED
        } else {
            0
        }
    }

    /// Renders the table (quarantined, suspect and incomplete cells
    /// marked) followed by the per-cell detail sections: quarantine
    /// reports, budget gaps, the stop reason, and the adaptive accounting.
    ///
    /// Only deterministic content: a clean run renders byte-identically
    /// to [`Table4::render`], and a resumed run renders byte-identically
    /// to an uninterrupted one. Timing and resume counters go to stderr
    /// via [`CampaignReport::eprint_summary`].
    pub fn render(&self) -> String {
        let masked: Vec<(usize, usize)> = self.quarantined.iter().map(|q| (q.row, q.col)).collect();
        let partial: Vec<(usize, usize, CellGap)> =
            self.partial.iter().map(|p| (p.row, p.col, p.gap)).collect();
        let mut out = self.table.render_marked(&masked, &self.suspect, &partial);
        for q in &self.quarantined {
            let _ = writeln!(
                out,
                "quarantined cell [{} on {} TLB]: {} ({} of {} trials salvaged)",
                q.vulnerability, q.design, q.failure, q.partial.trials, self.table.trials
            );
        }
        for p in &self.partial {
            let _ = writeln!(
                out,
                "{} cell [{} on {} TLB]: {} of {} trials completed",
                p.gap.marker(),
                p.vulnerability,
                p.design,
                p.partial.trials,
                self.table.trials
            );
        }
        if let Some(stop) = self.stop {
            let _ = writeln!(out, "campaign stopped early: {stop}");
        }
        if let Some(adaptive) = &self.adaptive {
            let _ = writeln!(
                out,
                "adaptive early stopping (alpha = {}): {} of {} cells settled early, saving {} \
                 trials x 2 placements",
                adaptive.alpha,
                adaptive.stopped.len(),
                self.table.rows.len() * self.table.designs.len(),
                adaptive.saved()
            );
            for &(r, c, used) in &adaptive.stopped {
                let _ = writeln!(
                    out,
                    "adaptive stop [{} on {} TLB]: settled after {} of {} trials (saved {})",
                    self.table.rows[r].vulnerability,
                    self.table.designs[c],
                    used,
                    adaptive.full_trials,
                    adaptive.full_trials.saturating_sub(used)
                );
            }
        }
        out
    }

    /// Maps an oracle summary's suspect contexts back to `(row, col)`
    /// table cells by matching the context's vulnerability and design
    /// fields.
    pub fn suspect_cells(&self, summary: &crate::oracle::OracleSummary) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (r, row) in self.table.rows.iter().enumerate() {
            let v = row.vulnerability.to_string();
            for (c, d) in self.table.designs.iter().enumerate() {
                if summary.affects(&[&v, d.name()]) {
                    out.push((r, c));
                }
            }
        }
        out
    }

    /// Prints the run's non-deterministic bookkeeping — the resume count,
    /// the stall watchdog's reports, and the pool's timing/throughput
    /// line — to stderr, keeping stdout bitwise-comparable across
    /// kill/resume interleavings.
    pub fn eprint_summary(&self) {
        if self.resumed > 0 {
            eprintln!(
                "resumed: {} shard(s) restored from checkpoint",
                self.resumed
            );
        }
        for s in &self.stalls {
            eprintln!(
                "stall: worker {} exceeded the watchdog deadline on shard {} (ran {:.2?})",
                s.worker, s.task, s.waited
            );
        }
        eprintln!("pool: {}", self.stats.render());
    }
}

/// The full Table 4 cell list, in row-major `(vulnerability, design)`
/// order — the task space shared by every Table 4 campaign path.
pub fn table4_cells() -> Vec<(Vulnerability, TlbDesign)> {
    table4_cells_for(&TlbDesign::ALL)
}

/// [`table4_cells`] over an explicit design-column list.
pub fn table4_cells_for(designs: &[TlbDesign]) -> Vec<(Vulnerability, TlbDesign)> {
    enumerate_vulnerabilities()
        .iter()
        .flat_map(|&v| designs.iter().map(move |&d| (v, d)))
        .collect()
}

/// Runs a Table 4 campaign over the `designs` columns on the engine
/// ([`measure_cells_resilient_observed`]) and assembles the report: worker
/// panics are isolated and deterministically retried, completed shards
/// are checkpointed per `policy`, cells whose shards keep failing are
/// quarantined in the report instead of killing the campaign, and with
/// [`RunPolicy::adaptive`] every cell stops as soon as its verdict is
/// settled, the report carrying the [`AdaptiveSummary`] accounting. With
/// [`TlbDesign::ALL`] a clean table (and its rendering) is byte-identical
/// to the classic three-column one.
pub fn build_table4_resilient_observed_for(
    designs: &[TlbDesign],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
) -> Result<CampaignReport, CampaignError> {
    let cells = table4_cells_for(designs);
    let outcome =
        measure_cells_resilient_observed(&cells, settings, workers, policy, telemetry, &|b| b)?;
    let params = TheoryParams::default();
    let ncols = designs.len();
    let mut quarantined = Vec::new();
    let mut partial_cells = Vec::new();
    let mut stopped = Vec::new();
    let measurements: Vec<Measurement> = outcome
        .cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let (vulnerability, design) = cells[i];
            let (row, col) = (i / ncols, i % ncols);
            match cell {
                CellOutcome::Measured(m) => {
                    if m.trials < settings.trials {
                        stopped.push((row, col, m.trials));
                    }
                    m
                }
                CellOutcome::Quarantined { partial, failure } => {
                    quarantined.push(QuarantinedCell {
                        vulnerability,
                        design,
                        row,
                        col,
                        partial,
                        failure,
                    });
                    partial
                }
                CellOutcome::Partial { partial, gap } => {
                    partial_cells.push(PartialCell {
                        vulnerability,
                        design,
                        row,
                        col,
                        partial,
                        gap,
                    });
                    partial
                }
            }
        })
        .collect();
    let rows = enumerate_vulnerabilities()
        .into_iter()
        .zip(measurements.chunks_exact(ncols))
        .map(|(v, cells)| Row {
            vulnerability: v,
            cells: cells
                .iter()
                .zip(designs)
                .map(|(&measured, &d)| Cell {
                    measured,
                    theory: paper_theory(&v, d, &params),
                })
                .collect(),
        })
        .collect();
    Ok(CampaignReport {
        table: Table4 {
            rows,
            trials: settings.trials,
            designs: designs.to_vec(),
        },
        suspect: Vec::new(),
        quarantined,
        partial: partial_cells,
        stats: outcome.stats,
        resumed: outcome.resumed,
        stalls: outcome.stalls,
        stop: outcome.stop,
        adaptive: policy.adaptive.map(|a| AdaptiveSummary {
            alpha: a.alpha,
            full_trials: settings.trials,
            stopped,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end check of the paper's headline security result with a
    /// reduced trial count (the full 500-trial table is regenerated by the
    /// `table4` bench binary).
    #[test]
    fn defense_matrix_matches_paper() {
        // 50 trials is the smallest count where the marginal RF cells
        // (Evict + Time: a few random-fill misses against zero) stay
        // clear of the 0.05 capacity threshold.
        let settings = TrialSettings {
            trials: 50,
            ..TrialSettings::default()
        };
        let table = build_table4(&settings);
        assert_eq!(table.rows.len(), 24);
        let [sa, sp, rf] = table.defended_counts()[..] else {
            panic!("classic table has three columns");
        };
        assert_eq!(sa, 10, "SA TLB defends 10 of 24");
        assert_eq!(sp, 14, "SP TLB defends 14 of 24");
        assert_eq!(rf, 24, "RF TLB defends all 24");
        assert!(table.all_verdicts_match(), "measured verdicts match theory");
    }

    /// The `--designs` path: the extended six-column table reproduces
    /// the closed-form defended counts for the temporal and
    /// multi-page-size designs, and its renderer derives the paper
    /// footer from theory.
    #[test]
    fn extended_table_reproduces_closed_form_counts() {
        let settings = TrialSettings {
            trials: 50,
            ..TrialSettings::default()
        };
        let table = build_table4_resilient_observed_for(
            &TlbDesign::EXTENDED,
            &settings,
            NonZeroUsize::MIN,
            &RunPolicy::default(),
            &Telemetry::disabled(),
        )
        .expect("clean campaign")
        .table;
        assert_eq!(table.defended_counts(), vec![10, 14, 24, 14, 14, 10]);
        assert!(table.all_verdicts_match(), "measured verdicts match theory");
        let text = table.render();
        assert!(text.contains("Table 4: SA / SP / RF / FS / FT / MS TLB"));
        assert!(text.contains("FT TLB"));
        assert!(
            text.contains("SA 10/24, SP 14/24, RF 24/24, FS 14/24, FT 14/24, MS 10/24"),
            "footer counts:\n{text}"
        );
        assert!(text.contains("(paper: 10, 14, 24, 14, 14, 10)"));
    }

    /// The classic three-column rendering must not move: the golden
    /// table pins depend on the generalized renderer producing exactly
    /// the historical header and footer for [`TlbDesign::ALL`].
    #[test]
    fn classic_render_keeps_the_historical_header_and_footer() {
        let settings = TrialSettings {
            trials: 10,
            ..TrialSettings::default()
        };
        let table = build_table4(&settings);
        let text = table.render();
        assert!(text.contains(
            "Table 4: SA / SP / RF TLB — simulated (p1*, p2*, C*) vs. theoretical (p1, p2, C)"
        ));
        assert!(text
            .contains("|          SA TLB          |          SP TLB          |          RF TLB"));
        assert!(text.contains(" (paper: 10, 14, 24)\n"));
    }

    #[test]
    fn parallel_table_is_bitwise_identical_and_reports_stats() {
        let settings = TrialSettings {
            trials: 12,
            ..TrialSettings::default()
        };
        let reference = build_table4(&settings);
        let report = build_table4_resilient_observed_for(
            &TlbDesign::ALL,
            &settings,
            NonZeroUsize::new(3).expect("nonzero"),
            &RunPolicy::default(),
            &Telemetry::disabled(),
        )
        .expect("clean campaign");
        assert_eq!(report.table, reference, "3 workers diverged from 1");
        assert_eq!(report.render(), reference.render());
        assert_eq!(report.stats.trials(), 12 * 24 * 3);
    }

    #[test]
    fn render_contains_all_strategies_and_counts() {
        let settings = TrialSettings {
            trials: 10,
            ..TrialSettings::default()
        };
        let table = build_table4(&settings);
        let text = table.render();
        assert!(text.contains("TLB Prime + Probe"));
        assert!(text.contains("SA TLB"));
        assert!(text.contains("defended"));
    }
}
