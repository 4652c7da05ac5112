//! The `fig7-perf` workload: a seeded, stratified subset of the Figure 7
//! grid run through `campaign::run_campaign_observed` and
//! `perf::run_cell_oracle` on one worker.
//!
//! Strata are design × co-runner (RSA alone and the four SPEC-like
//! benchmarks): every seed draws exactly one cell per stratum, 15 cells.
//! Within each co-runner the three designs get the three decryption
//! counts (50/100/150) in a seeded order, so every seed simulates the
//! same number of instructions. The geometry class follows the run
//! count, so every seed also costs the simulator about the same host
//! time (a fully associative lookup costs about twice a set-associative
//! one): 50 runs draw FA 32 or FA 128, 100 runs 2W 128 or 4W 128, and 150
//! runs 2W 32 or 4W 32. The SA RSA-alone cell always uses the 1E geometry
//! (the only design Figure 7 shows it for). The SecRSA flag is drawn; at
//! least one cell is plain RSA alone and at least one is a SecRSA co-run.
//!
//! The timed units are the subset's cells at `1/`[`SCALE`] of their
//! decryption count (5, 10 or 15), each one campaign call: short enough
//! that the fastest of a unit's repeated calls is steady on a shared host.
//! The full-size cells run once per run and are checked against
//! `results/fig7.txt`.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use sectlb_bench::campaign::run_campaign_observed;
use sectlb_bench::perf::{run_cell_oracle, Workload};
use sectlb_secbench::parallel::PoolStats;
use sectlb_secbench::resilience::RunPolicy;
use sectlb_secbench::run::splitmix64;
use sectlb_secbench::telemetry::Telemetry;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;
use sectlb_workloads::spec_like::SpecBenchmark;

use crate::replica::{rsa_program, QUANTUM, SPEC_BASE};

/// The committed Figure 7 output every cell is checked against.
pub const GOLDEN: &str = include_str!("../../results/fig7.txt");

/// The decryption counts of Figure 7.
pub const RUNS: [usize; 3] = [50, 100, 150];

/// A timed unit runs a cell's decryption count divided by this.
pub const SCALE: usize = 10;

/// One Figure 7 cell of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Cell {
    /// The TLB design.
    pub design: TlbDesign,
    /// The TLB geometry.
    pub config: TlbConfig,
    /// RSA or SecRSA, alone or with a co-runner.
    pub workload: Workload,
    /// Decryption repetitions.
    pub runs: usize,
}

impl Fig7Cell {
    /// A human-readable label, as `fig7` prints it in shard events.
    pub fn label(&self) -> String {
        format!(
            "{} TLB {} {} x{}",
            self.design,
            self.config.label(),
            self.workload.label(),
            self.runs
        )
    }
}

/// RSA alone, then the four SPEC-like co-runners.
pub fn co_runners() -> [Option<SpecBenchmark>; 5] {
    let [a, b, c, d] = SpecBenchmark::ALL.map(Some);
    [None, a, b, c, d]
}

/// A counter-mode stream of draws from the workload seed.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn below(&mut self, bound: usize) -> usize {
        self.n += 1;
        (splitmix64(self.seed ^ splitmix64(self.n)) % bound as u64) as usize
    }
}

/// The seed's stratified subset, one cell per design × co-runner, in
/// co-runner-major order.
pub fn subset(seed: u64) -> Vec<Fig7Cell> {
    // 1E, FA 32, 2W 32, 4W 32, FA 128, 2W 128, 4W 128.
    let g = TlbConfig::paper_performance_configs();
    let mut draws = Draws {
        seed: splitmix64(seed),
        n: 0,
    };
    let mut cells = Vec::with_capacity(15);
    for co_runner in co_runners() {
        let mut runs = RUNS;
        for i in (1..runs.len()).rev() {
            runs.swap(i, draws.below(i + 1));
        }
        for (design, runs) in TlbDesign::ALL.into_iter().zip(runs) {
            let class = match runs {
                50 => [g[1], g[4]],
                100 => [g[5], g[6]],
                _ => [g[2], g[3]],
            };
            let member = class[draws.below(2)];
            let config = if design == TlbDesign::Sa && co_runner.is_none() {
                g[0]
            } else {
                member
            };
            let secure = draws.below(2) == 1;
            cells.push(Fig7Cell {
                design,
                config,
                workload: Workload { secure, co_runner },
                runs,
            });
        }
    }
    if !cells
        .iter()
        .any(|c| c.workload.co_runner.is_none() && !c.workload.secure)
    {
        cells[0].workload.secure = false;
    }
    if !cells
        .iter()
        .any(|c| c.workload.co_runner.is_some() && c.workload.secure)
    {
        cells[3].workload.secure = true;
    }
    cells
}

/// Everything a timed call needs, built from the seed before timing.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The seed's subset, checked against the golden panels.
    pub cells: Vec<Fig7Cell>,
    /// The timed units: `cells` at `1/`[`SCALE`] of their run counts.
    pub timed: Vec<Fig7Cell>,
    /// The committed panels the cells are checked against.
    pub golden: Golden,
    /// Simulated instructions the timed units retire together.
    pub instructions: u64,
}

/// Draws the subset and its timed units, parses the golden panels and
/// counts the units' simulated instructions.
///
/// # Errors
///
/// Fails when `results/fig7.txt` does not parse.
pub fn prepare(seed: u64) -> Result<Prepared, String> {
    let cells = subset(seed);
    let timed: Vec<Fig7Cell> = cells
        .iter()
        .map(|c| Fig7Cell {
            runs: c.runs / SCALE,
            ..*c
        })
        .collect();
    let golden = parse_golden(GOLDEN)?;
    let instructions = timed.iter().map(cell_instret).sum();
    Ok(Prepared {
        cells,
        timed,
        golden,
        instructions,
    })
}

/// Simulated instructions one cell retires. `decryption_program` repeats
/// one decryption `runs` times and `SpecBenchmark::trace` emits the same
/// instructions for every access, so both are counted on one decryption
/// and one access and scaled: every instruction retires once (`Compute(n)`
/// retires `n`), plus the `SetAsid` that starts RSA alone or each
/// round-robin slice of a co-run. The traced run checks the count against
/// the simulator's own `instret`.
pub fn cell_instret(cell: &Fig7Cell) -> u64 {
    let one_run = rsa_program(1);
    let rsa_len = one_run.len() * cell.runs;
    let rsa = cell.runs as u64 * crate::instret_of(&one_run);
    let slices = |len: usize| len.div_ceil(QUANTUM) as u64;
    match cell.workload.co_runner {
        None => 1 + rsa,
        Some(bench) => {
            let accesses = rsa_len / 3;
            let one_access = bench.trace(SPEC_BASE, 1, 0x5bec ^ cell.runs as u64);
            let spec_len = accesses * one_access.len();
            let spec = accesses as u64 * crate::instret_of(&one_access);
            rsa + spec + slices(rsa_len) + slices(spec_len)
        }
    }
}

/// Golden values by `(design, metric, workload, runs, geometry)`, as
/// printed (three decimals).
pub type Golden = BTreeMap<(String, String, String, usize, String), String>;

/// Parses the committed `fig7` output into its panel cells.
///
/// # Errors
///
/// Fails on a line that does not fit the panel layout.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut out = Golden::new();
    let mut panel: Option<(String, String)> = None;
    let mut columns: Vec<String> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let bad = || format!("results/fig7.txt line {}: unexpected {line:?}", n + 1);
        if line.starts_with("Headline") {
            break;
        } else if let Some(rest) = line.strip_prefix("Figure ") {
            let (_, title) = rest.split_once(": ").ok_or_else(bad)?;
            let (metric, design) = title.split_once(" of the ").ok_or_else(bad)?;
            let design = design.strip_suffix(" TLB").ok_or_else(bad)?;
            panel = Some((design.to_owned(), metric.to_owned()));
        } else if line.starts_with("workload") {
            columns = fields(line).map(str::to_owned).collect();
        } else if !line.trim().is_empty() {
            let (design, metric) = panel.as_ref().ok_or_else(bad)?;
            let label = line.get(..22).ok_or_else(bad)?.trim().to_owned();
            let runs: usize = line
                .get(23..28)
                .and_then(|r| r.trim().parse().ok())
                .ok_or_else(bad)?;
            let values: Vec<&str> = fields(line).collect();
            if values.len() != columns.len() {
                return Err(bad());
            }
            for (geometry, value) in columns.iter().zip(values) {
                out.insert(
                    (
                        design.clone(),
                        metric.clone(),
                        label.clone(),
                        runs,
                        geometry.clone(),
                    ),
                    value.to_owned(),
                );
            }
        }
    }
    Ok(out)
}

/// The 9-wide value columns after the 28-character `workload runs`
/// prefix of a panel line.
fn fields(line: &str) -> impl Iterator<Item = &str> {
    let body = line.get(28..).unwrap_or("");
    (0..body.len() / 9).map(move |k| body[9 * k..9 * (k + 1)].trim())
}

/// Compares one cell's `(ipc, mpki)` with the golden panels; `None` when
/// both match to the printed three decimals.
pub fn golden_mismatch(golden: &Golden, cell: &Fig7Cell, ipc: f64, mpki: f64) -> Option<String> {
    for (metric, value) in [("IPC", ipc), ("MPKI", mpki)] {
        let key = (
            cell.design.name().to_owned(),
            metric.to_owned(),
            cell.workload.label(),
            cell.runs,
            cell.config.label(),
        );
        let shown = format!("{value:.3}");
        match golden.get(&key) {
            Some(want) if *want == shown => {}
            Some(want) => {
                return Some(format!(
                    "{}: {metric} {shown}, results/fig7.txt has {want}",
                    cell.label()
                ))
            }
            None => return Some(format!("{}: not in results/fig7.txt", cell.label())),
        }
    }
    None
}

/// One cell's `(ipc, mpki)`, or why it is missing.
pub type CellResult = Result<(f64, f64), String>;

/// One campaign over `cells` through the engine: each cell's result and
/// the pool counters.
pub fn run_pass(cells: &[Fig7Cell], seed: u64) -> (Vec<CellResult>, PoolStats) {
    let outcome = run_campaign_observed(
        "fig7",
        [seed],
        cells,
        NonZeroUsize::MIN,
        &RunPolicy::default(),
        &Telemetry::disabled(),
        &|c: &Fig7Cell| c.label(),
        |c| match run_cell_oracle(c.design, c.config, c.workload, c.runs, None, |b| b) {
            Ok(cell) => (cell.ipc, cell.mpki),
            // A setup error panics the shard, as in the `fig7` binary:
            // the engine retries it and then quarantines it.
            Err(e) => panic!("{e}"),
        },
    );
    let results = outcome
        .results
        .iter()
        .zip(cells)
        .map(|(r, c)| {
            r.done()
                .copied()
                .ok_or_else(|| format!("{}: no result ({r:?})", c.label()))
        })
        .collect();
    (results, outcome.stats)
}
