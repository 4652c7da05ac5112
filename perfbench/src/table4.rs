//! The `table4-classic` workload and its durable companion.
//!
//! `table4-classic` times SA/SP/RF Table 4 on one worker, no durability.
//! Once per run, untimed, the RF column also runs on two workers with the
//! checkpoint cadence and JSONL event stream `campaignd` gives every job,
//! so its files are checked and counted. Both go through
//! `report::build_table4_resilient_observed_for`.
//!
//! A timed call is one campaign of [`UNIT_TRIALS`] trials per placement,
//! call `i` with base seed `seed + i`: short enough that the fastest of a
//! run's calls is steady on a shared host, and on fresh inputs every
//! time. The calls' measurements merge into the cells the verdict check
//! reads; a 500-trial campaign at `seed` runs once per run for the
//! output checks.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sectlb_model::Vulnerability;
use sectlb_secbench::checkpoint::{Checkpoint, CheckpointPolicy, Record, RecoveredLoad};
use sectlb_secbench::generate::generate_program;
use sectlb_secbench::iofault::IoInjector;
use sectlb_secbench::oracle;
use sectlb_secbench::parallel::{PoolStats, TRIALS_PER_SHARD};
use sectlb_secbench::report::{
    build_table4_resilient_observed_for, table4_cells_for, CampaignReport, DEFENDED_THRESHOLD,
};
use sectlb_secbench::resilience::{cells_fingerprint, CampaignError, RunPolicy};
use sectlb_secbench::run::{try_run_trial_range, Measurement, TrialSettings};
use sectlb_secbench::spec::{BenchmarkSpec, Placement};
use sectlb_secbench::telemetry::{Envelope, Event, Telemetry};
use sectlb_secbench::theory::{paper_theory, TheoryParams, TheoryRow};
use sectlb_sim::machine::TlbDesign;

use crate::sys::{measure, Sample};

/// The committed Table 4 output the canonical run must reproduce.
pub const GOLDEN: &str = include_str!("../../results/table4.txt");

/// The line `table4` prints after a clean table.
const VERDICTS_MATCH: &str = "all measured defense verdicts match the theoretical ones";

/// Trials per placement per cell, as committed in `results/table4.txt`.
pub const TRIALS: u32 = 500;

/// Trials per placement per cell in one timed campaign call: one engine
/// shard per cell.
pub const UNIT_TRIALS: u32 = TRIALS_PER_SHARD;

/// `campaignd`'s checkpoint cadence, in completed shards.
pub const CHECKPOINT_EVERY: usize = 4;

/// A Table 4 workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Config {
    /// The design columns.
    pub designs: &'static [TlbDesign],
    /// Engine workers.
    pub workers: usize,
    /// Checkpoint every [`CHECKPOINT_EVERY`] shards and stream JSONL
    /// events, as `campaignd` runs a job.
    pub durable: bool,
}

/// `table4-classic`'s timed campaigns.
pub const CLASSIC: Table4Config = Table4Config {
    designs: &TlbDesign::ALL,
    workers: 1,
    durable: false,
};

/// The durable RF campaign `table4-classic` runs once, as `campaignd`
/// runs a job.
pub const RF_DURABLE: Table4Config = Table4Config {
    designs: &[TlbDesign::Rf],
    workers: 2,
    durable: true,
};

impl Table4Config {
    fn workers(&self) -> NonZeroUsize {
        NonZeroUsize::new(self.workers).expect("a workload has at least one worker")
    }
}

/// Everything a timed call needs, built from the seed before timing.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The workload shape.
    pub config: Table4Config,
    /// Campaign settings of call 0 (the seed is `base_seed`).
    pub settings: TrialSettings,
    /// `(vulnerability, design)` cells in table order.
    pub cells: Vec<(Vulnerability, TlbDesign)>,
    /// The closed-form row of every cell.
    pub theory: Vec<TheoryRow>,
    /// Simulated instructions of one mapped plus one not-mapped trial of
    /// every cell.
    pub instr_per_trial: u64,
}

impl Prepared {
    /// The campaign settings of call `i`: base seed `seed + i`.
    pub fn call(&self, i: u64) -> TrialSettings {
        TrialSettings {
            base_seed: self.settings.base_seed.wrapping_add(i),
            ..self.settings
        }
    }

    /// Accounted trial pairs per call.
    pub fn pairs(&self) -> u64 {
        u64::from(self.settings.trials) * self.cells.len() as u64
    }

    /// Simulated instructions per call.
    pub fn instructions(&self) -> u64 {
        u64::from(self.settings.trials) * self.instr_per_trial
    }
}

/// Builds a workload's inputs from its seed, `trials` trials per
/// placement per call.
pub fn prepare(config: Table4Config, seed: u64, trials: u32) -> Prepared {
    let settings = TrialSettings {
        trials,
        base_seed: seed,
        workers: Some(config.workers()),
        ..TrialSettings::default()
    };
    let cells = table4_cells_for(config.designs);
    let params = TheoryParams::default();
    let theory = cells
        .iter()
        .map(|(v, d)| paper_theory(v, *d, &params))
        .collect();
    let instr_per_trial = cells
        .iter()
        .map(|(v, d)| {
            let spec = BenchmarkSpec::build_with_config(v, *d, settings.config);
            [Placement::Mapped, Placement::NotMapped]
                .map(|p| crate::instret_of(&generate_program(&spec, p)))
                .iter()
                .sum::<u64>()
        })
        .sum();
    Prepared {
        config,
        settings,
        cells,
        theory,
        instr_per_trial,
    }
}

/// The engine's shard plan: each cell's trials in
/// [`TRIALS_PER_SHARD`]-sized ranges, cell-major. A checkpoint's task
/// indices refer to this order.
pub fn shard_plan(cells: usize, trials: u32) -> Vec<(usize, u32, u32)> {
    let mut shards = Vec::new();
    for cell in 0..cells {
        let mut lo = 0;
        while lo < trials {
            let hi = (lo + TRIALS_PER_SHARD).min(trials);
            shards.push((cell, lo, hi));
            lo = hi;
        }
    }
    shards
}

/// The files a durable pass writes.
fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("ck.txt")
}

fn events_path(dir: &Path) -> PathBuf {
    dir.join("events.jsonl")
}

/// One timed call and what it produced.
#[derive(Debug)]
pub struct Pass {
    /// Measurements per cell, in cell order.
    pub measured: Vec<Measurement>,
    /// The engine's pool counters.
    pub stats: PoolStats,
    /// Wall and CPU time of the campaign call.
    pub sample: Sample,
    /// Failed cells with the reason, keyed by cell index.
    pub failures: BTreeMap<usize, String>,
    /// For durable passes: checkpoint flushes and bytes, event lines and
    /// bytes.
    pub durable: Option<DurableOutput>,
}

/// What a durable pass left on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOutput {
    /// `checkpoint_flush` events in the stream.
    pub saves: u64,
    /// Size of the final checkpoint.
    pub checkpoint_bytes: u64,
    /// Event lines.
    pub events: u64,
    /// Size of the event stream.
    pub event_bytes: u64,
}

/// Runs call `i`'s campaign once, timed, in `dir` (a fresh directory for
/// durable passes), then checks its outputs.
///
/// # Errors
///
/// Fails when the campaign itself errors or its files cannot be handled.
pub fn run_pass(p: &Prepared, i: u64, dir: &Path) -> Result<Pass, String> {
    if p.config.durable {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let settings = p.call(i);
    let (built, sample) = measure(|| campaign(p, &settings, dir));
    let report = built?;
    let mut failures = check_report(p, &report, dir);
    let measured: Vec<Measurement> = report
        .table
        .rows
        .iter()
        .flat_map(|r| r.cells.iter().map(|c| c.measured))
        .collect();
    let durable = if p.config.durable {
        let (out, bad) = check_durable(p, &settings, dir, &measured)?;
        for (cell, why) in bad {
            failures.entry(cell).or_insert(why);
        }
        Some(out)
    } else {
        None
    };
    Ok(Pass {
        measured,
        stats: report.stats,
        sample,
        failures,
        durable,
    })
}

/// The timed call: the campaign as the `table4` binary or `campaignd`
/// runs it.
fn campaign(p: &Prepared, settings: &TrialSettings, dir: &Path) -> Result<CampaignReport, String> {
    let (policy, telemetry) = if p.config.durable {
        let ck = checkpoint_path(dir);
        let policy = RunPolicy {
            checkpoint: Some(CheckpointPolicy {
                path: ck.clone(),
                every: CHECKPOINT_EVERY,
            }),
            resume: Some(ck),
            ..RunPolicy::default()
        };
        let telemetry = Telemetry::to_path("campaignd", &events_path(dir))
            .map_err(|e| format!("cannot open the event stream: {e}"))?;
        (policy, telemetry)
    } else {
        (RunPolicy::default(), Telemetry::disabled())
    };
    let built = build_table4_resilient_observed_for(
        p.config.designs,
        settings,
        p.config.workers(),
        &policy,
        &telemetry,
    );
    telemetry.flush();
    built.map_err(|e: CampaignError| format!("campaign failed: {e}"))
}

/// Whether a design's trials ignore the trial seed, so each of its cells
/// must equal the closed form exactly.
fn deterministic(design: TlbDesign) -> bool {
    design != TlbDesign::Rf
}

/// Cell-level checks of one call: nothing quarantined, partial or
/// SUSPECT, and deterministic designs equal the closed form exactly.
/// Verdicts are checked on merged calls by [`verdict_failures`].
fn check_report(p: &Prepared, report: &CampaignReport, dir: &Path) -> BTreeMap<usize, String> {
    let ncols = p.config.designs.len();
    let mut failures = BTreeMap::new();
    for q in &report.quarantined {
        failures.insert(q.row * ncols + q.col, format!("quarantined: {}", q.failure));
    }
    for c in &report.partial {
        failures.insert(c.row * ncols + c.col, c.gap.marker().to_owned());
    }
    let summary = oracle::conclude("table4", &dir.join("repro"));
    for (r, c) in report.suspect_cells(&summary) {
        failures.insert(r * ncols + c, "SUSPECT".to_owned());
    }
    if let Some(stop) = report.stop {
        for i in 0..p.cells.len() {
            failures
                .entry(i)
                .or_insert_with(|| format!("stopped: {stop}"));
        }
    }
    let cells = report.table.rows.iter().flat_map(|r| &r.cells);
    for (i, (cell, (v, d))) in cells.zip(&p.cells).enumerate() {
        let m = cell.measured;
        let why = if cell.theory != p.theory[i] {
            Some("theory row differs from the prepared one".to_owned())
        } else if deterministic(*d) && (m.p1() != cell.theory.p1 || m.p2() != cell.theory.p2) {
            Some(format!(
                "p1*/p2* = {}/{} but the closed form is {}/{}",
                m.p1(),
                m.p2(),
                cell.theory.p1,
                cell.theory.p2
            ))
        } else {
            None
        };
        if let Some(why) = why {
            failures.entry(i).or_insert(format!("{v} on {d}: {why}"));
        }
    }
    failures
}

/// Verdict checks on every cell's measurements: each verdict must match
/// theory, as `table4` prints it.
pub fn verdict_failures(p: &Prepared, merged: &[Measurement]) -> BTreeMap<usize, String> {
    let mut failures = BTreeMap::new();
    for (i, ((v, d), m)) in p.cells.iter().zip(merged).enumerate() {
        if m.defends(DEFENDED_THRESHOLD) != p.theory[i].defends() {
            failures.insert(
                i,
                format!(
                    "{v} on {d}: verdict differs from theory (C* = {:.3})",
                    m.capacity()
                ),
            );
        }
    }
    failures
}

/// Durable-output checks: the final checkpoint loads as the current
/// generation, belongs to this campaign, records every shard once, and
/// its shards merge to the campaign's measurements; every event line
/// parses.
fn check_durable(
    p: &Prepared,
    settings: &TrialSettings,
    dir: &Path,
    measured: &[Measurement],
) -> Result<(DurableOutput, BTreeMap<usize, String>), String> {
    let all = |why: String| (0..p.cells.len()).map(|i| (i, why.clone())).collect();
    let mut failures = BTreeMap::new();
    let shards = shard_plan(p.cells.len(), settings.trials);
    let ck_path = checkpoint_path(dir);
    match Checkpoint::load_recovering(&ck_path, &IoInjector::disabled()) {
        RecoveredLoad::Current(ck) => {
            let merged = ck
                .validate(cells_fingerprint(&p.cells, settings), shards.len())
                .map_err(|e| e.to_string())
                .and_then(|()| ck.decoded::<Measurement>().map_err(|e| e.to_string()))
                .and_then(|done| merge_shards(&shards, p.cells.len(), &done));
            match merged {
                Ok(merged) => {
                    for (i, (got, want)) in merged.iter().zip(measured).enumerate() {
                        if got != want {
                            failures.insert(
                                i,
                                format!("checkpoint holds {got:?}, the campaign {want:?}"),
                            );
                        }
                    }
                }
                Err(e) => failures = all(format!("checkpoint: {e}")),
            }
        }
        other => failures = all(format!("checkpoint did not load as current: {other:?}")),
    }
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let stream = read(&events_path(dir))?;
    let mut out = DurableOutput {
        saves: 0,
        checkpoint_bytes: read(&ck_path)?.len() as u64,
        events: 0,
        event_bytes: stream.len() as u64,
    };
    for line in stream.lines() {
        out.events += 1;
        match Envelope::parse(line) {
            Ok(env) => {
                if matches!(env.event, Event::CheckpointFlush { .. }) {
                    out.saves += 1;
                }
            }
            Err(e) => {
                for i in 0..p.cells.len() {
                    failures.entry(i).or_insert_with(|| {
                        format!("event line {} does not parse: {e}", out.events)
                    });
                }
            }
        }
    }
    Ok((out, failures))
}

/// Merges per-shard records into per-cell measurements, requiring every
/// shard exactly once.
fn merge_shards(
    shards: &[(usize, u32, u32)],
    cells: usize,
    done: &[(usize, Measurement)],
) -> Result<Vec<Measurement>, String> {
    let mut seen = vec![false; shards.len()];
    let mut merged = vec![Measurement::ZERO; cells];
    for &(index, m) in done {
        let (cell, lo, hi) = shards[index];
        if std::mem::replace(&mut seen[index], true) {
            return Err(format!("shard {index} recorded twice"));
        }
        if m.trials != hi - lo {
            return Err(format!("shard {index} records {} trials", m.trials));
        }
        merged[cell] = merged[cell].merge(m);
    }
    match seen.iter().position(|s| !s) {
        Some(missing) => Err(format!("shard {missing} missing")),
        None => Ok(merged),
    }
}

/// The canonical campaign (default seed, 500 trials, SA/SP/RF, one
/// worker) rendered as `table4` prints it; `None` when it is
/// byte-identical to `results/table4.txt` below that file's first line
/// (the `table4` binary's stderr progress line).
///
/// # Errors
///
/// Fails when the campaign itself errors.
pub fn golden_mismatch() -> Result<Option<String>, String> {
    let settings = TrialSettings {
        trials: TRIALS,
        workers: Some(NonZeroUsize::MIN),
        ..TrialSettings::default()
    };
    let report = build_table4_resilient_observed_for(
        &TlbDesign::ALL,
        &settings,
        NonZeroUsize::MIN,
        &RunPolicy::default(),
        &Telemetry::disabled(),
    )
    .map_err(|e| format!("canonical campaign failed: {e}"))?;
    let rendered = format!("{}\n{VERDICTS_MATCH}\n", report.render());
    let expected = GOLDEN.split_once('\n').map_or("", |(_, rest)| rest);
    if rendered == expected {
        return Ok(None);
    }
    let line = rendered
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .map_or(
            rendered.lines().count().min(expected.lines().count()),
            |n| n,
        );
    Ok(Some(format!(
        "canonical table differs from results/table4.txt at output line {}",
        line + 2
    )))
}

/// Per-shard timings of the benchmark's own shard loop: every shard of
/// the plan through `try_run_trial_range` on the workload's worker count.
#[derive(Debug, Clone)]
pub struct ShardPass {
    /// Merged measurements per cell.
    pub measured: Vec<Measurement>,
    /// Each shard's result, in plan order, as a checkpoint records it.
    pub records: Vec<(usize, String)>,
    /// Each shard's host seconds.
    pub busy: Vec<f64>,
    /// Wall seconds of the whole loop.
    pub wall_s: f64,
}

/// One worker's `(shard index, measurement, seconds)` results.
type ShardResults = Result<Vec<(usize, Measurement, f64)>, String>;

/// Runs every shard of one call's `settings` through
/// `try_run_trial_range`, timing each.
///
/// # Errors
///
/// Fails on a machine-setup error in any shard.
pub fn shard_pass(p: &Prepared, settings: &TrialSettings) -> Result<ShardPass, String> {
    let shards = shard_plan(p.cells.len(), settings.trials);
    let specs: Vec<BenchmarkSpec> = p
        .cells
        .iter()
        .map(|(v, d)| BenchmarkSpec::build_with_config(v, *d, p.settings.config))
        .collect();
    // A shared claim counter; it publishes no other data (results come
    // back through the joined threads), so Relaxed suffices.
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_worker: Vec<ShardResults> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.config.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, lo, hi)) = shards.get(i) else {
                            return Ok(done);
                        };
                        let t = Instant::now();
                        let m = try_run_trial_range(
                            &specs[cell],
                            p.cells[cell].1,
                            settings,
                            lo..hi,
                            &|b| b,
                        )
                        .map_err(|e| e.to_string())?;
                        done.push((i, m, t.elapsed().as_secs_f64()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a shard worker panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut results: Vec<Option<(Measurement, f64)>> = vec![None; shards.len()];
    for worker in per_worker {
        for (i, m, busy) in worker? {
            results[i] = Some((m, busy));
        }
    }
    let mut measured = vec![Measurement::ZERO; p.cells.len()];
    let mut records = Vec::with_capacity(shards.len());
    let mut busy = Vec::with_capacity(shards.len());
    for (i, (r, &(cell, _, _))) in results.into_iter().zip(&shards).enumerate() {
        let (m, secs) = r.ok_or_else(|| format!("shard {i} never ran"))?;
        measured[cell] = measured[cell].merge(m);
        records.push((i, m.encode()));
        busy.push(secs);
    }
    Ok(ShardPass {
        measured,
        records,
        busy,
        wall_s,
    })
}

/// Times program generation as the engine performs it in one call: one
/// `BenchmarkSpec::build_with_config` per cell and two `generate_program`
/// calls per shard. Returns `(calls, seconds)`.
pub fn time_generation(p: &Prepared) -> (u64, f64) {
    let shards_per_cell = shard_plan(1, p.settings.trials).len();
    let mut calls = 0;
    let started = Instant::now();
    for (v, d) in &p.cells {
        let spec = BenchmarkSpec::build_with_config(v, *d, p.settings.config);
        calls += 1;
        for _ in 0..shards_per_cell {
            for placement in [Placement::Mapped, Placement::NotMapped] {
                std::hint::black_box(generate_program(&spec, placement));
                calls += 1;
            }
        }
    }
    (calls, started.elapsed().as_secs_f64())
}
