//! `perfbench`: the repository benchmark.
//!
//! One command runs one named workload for a fixed time and prints one
//! JSON result line: untraced (`--trace 0`) with every end-to-end metric,
//! or traced (`--trace 1`) with every per-layer metric. Both check the
//! workload's outputs and count failed cells. The workloads and metrics
//! are described in `perfbench/README.md`.
//!
//! The benchmark links the workspace crates and times calls into their
//! public functions from its own code; the program under test receives
//! only the inputs generated from `--seed`.

pub mod fig7;
pub mod metrics;
pub mod replica;
pub mod sys;
pub mod table4;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sectlb_bench::perf::run_cell_oracle;
use sectlb_secbench::checkpoint::{Checkpoint, Record, RecoveredLoad};
use sectlb_secbench::iofault::IoInjector;
use sectlb_secbench::parallel::PoolStats;
use sectlb_secbench::resilience::cells_fingerprint;
use sectlb_secbench::run::Measurement;
use sectlb_secbench::telemetry::{Event, Telemetry};
use sectlb_sim::cpu::Instr;

use metrics::Metrics;
use sys::{measure, median, percentile, Sample};

/// The command line.
pub const USAGE: &str = "usage: perfbench --workload table4-classic|fig7-perf \
                         --seed N --seconds S --trace 0|1";

/// The fewest times a run performs its set-up; `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 5;

/// Past [`SETUP_REPEATS`], the set-up repeats after further rounds while
/// its repetitions have taken less than this share of `--seconds`.
const SETUP_SHARE: f64 = 0.05;

/// The fewest rounds over every unit a run makes, however long each takes.
pub const MIN_ROUNDS: usize = 3;

/// Repetitions behind the checkpoint save/load timings.
const CHECKPOINT_REPEATS: usize = 15;

/// Events behind the `Telemetry::emit` timing.
const EMITS: u64 = 20_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SA/SP/RF Table 4 on one worker.
    Table4Classic,
    /// A stratified subset of Figure 7 on one worker.
    Fig7Perf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Table4Classic, Workload::Fig7Perf];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Classic => "table4-classic",
            Workload::Fig7Perf => "fig7-perf",
        }
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed calls run, in seconds.
    pub seconds: f64,
    /// Print per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Fails on a missing, unknown, repeated or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let known = ["--workload", "--seed", "--seconds", "--trace"];
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            if flags.insert(flag, value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
        let name = get("--workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or(format!("unknown workload {name:?}"))?;
        let seed = get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number".to_owned())?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_owned());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Simulated instructions a straight-line program retires: one per
/// instruction, `n` for `Compute(n)`.
pub fn instret_of(program: &[Instr]) -> u64 {
    program
        .iter()
        .map(|i| match i {
            Instr::Compute(n) => *n,
            _ => 1,
        })
        .sum()
}

/// Checked cells and the reasons some failed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// One line per failed cell.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `cells` checked cells, of which `failures` failed.
    pub fn add(&mut self, cells: usize, failures: &BTreeMap<usize, String>) {
        self.attempted += cells as u64;
        self.failed += failures.len() as u64;
        self.failures.extend(failures.values().cloned());
    }
}

/// A finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The output checks.
    pub tally: Tally,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Whether this was a traced run.
    pub trace: bool,
}

impl RunResult {
    /// The JSON result line.
    ///
    /// # Errors
    ///
    /// Fails when a metric is not finite.
    pub fn render(&self) -> Result<String, String> {
        let catalog = if self.trace {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        metrics::render_result(
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            &catalog,
            &self.metrics,
        )
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("the benchmark package has no parent directory")?
            .join(".perfbench-work");
        let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Runs one workload as `args` asks.
///
/// # Errors
///
/// Fails when the workload cannot run at all (a campaign error, an
/// unreadable output file); failed output checks are counted in the
/// result instead.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let work = WorkDir::create(args.workload)?;
    match args.workload {
        Workload::Table4Classic => run_table4(args, &work.0),
        Workload::Fig7Perf => run_fig7(args, &work.0),
    }
}

/// Runs the set-up once, then rounds of timed calls — every unit `0..n`
/// once per round, `n` given by `units` — until `seconds` have passed and
/// at least [`MIN_ROUNDS`] rounds ran. `call` runs and checks one unit
/// and returns the time of its timed part; the result holds each unit's
/// fastest wall and fastest CPU time. The set-up repeats after
/// rounds — at least [`SETUP_REPEATS`] times in all, and more while the
/// repetitions stay under [`SETUP_SHARE`] of `seconds` — and the returned
/// set-up time is the fastest repetition.
///
/// On a shared host, interference only adds time, and it comes and goes
/// over seconds, so the fastest of many short calls is the steadiest
/// estimate of a call's cost; whole passes of a second or more rarely
/// run free of it.
fn setup_and_rounds<P>(
    seconds: f64,
    mut prepare: impl FnMut() -> Result<P, String>,
    units: impl Fn(&P) -> usize,
    mut call: impl FnMut(&P, usize) -> Result<Sample, String>,
) -> Result<(P, f64, Vec<Sample>), String> {
    let timed_prepare = |prepare: &mut dyn FnMut() -> Result<P, String>| {
        let t = Instant::now();
        let p = prepare()?;
        Ok::<_, String>((p, t.elapsed().as_secs_f64()))
    };
    let (p, first) = timed_prepare(&mut prepare)?;
    let mut setup = vec![first];
    let n = units(&p);
    let mut best = vec![
        Sample {
            wall_s: f64::INFINITY,
            cpu_s: f64::INFINITY,
        };
        n
    ];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS
        || setup.len() < SETUP_REPEATS
        || started.elapsed().as_secs_f64() < seconds
    {
        for (k, b) in best.iter_mut().enumerate() {
            let s = call(&p, k)?;
            b.wall_s = b.wall_s.min(s.wall_s);
            b.cpu_s = b.cpu_s.min(s.cpu_s);
        }
        rounds += 1;
        if setup.len() < SETUP_REPEATS || setup.iter().sum::<f64>() < SETUP_SHARE * seconds {
            let (again, secs) = timed_prepare(&mut prepare)?;
            std::hint::black_box(again);
            setup.push(secs);
        }
    }
    let fastest_setup = setup.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((p, fastest_setup, best))
}

/// Records the end-to-end metrics: the wall and CPU time of one round
/// (the sums of every unit's fastest call), and throughputs of `pairs`
/// accounted trial pairs and `instructions` simulated instructions per
/// round at that wall time.
fn record_end_to_end(
    m: &mut Metrics,
    best: &[Sample],
    setup_s: f64,
    pairs: u64,
    instructions: u64,
    tally: &Tally,
) -> Result<(), String> {
    let wall = round_wall(best);
    let cpu: f64 = best.iter().map(|s| s.cpu_s).sum();
    m.set("wall_s", wall);
    m.set("cpu_s", cpu);
    m.set("trial_pairs_per_s", pairs as f64 / wall);
    m.set("sim_minstr_per_s", instructions as f64 / wall / 1e6);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mib", sys::peak_rss_mib()?);
    m.set(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    Ok(())
}

/// The wall time of one round: the sum of every unit's fastest call.
fn round_wall(best: &[Sample]) -> f64 {
    best.iter().map(|s| s.wall_s).sum()
}

/// Records the engine's resilience counters, as medians over the timed
/// calls (retries summed).
fn record_resilience<'a>(m: &mut Metrics, stats: impl Iterator<Item = &'a PoolStats>) {
    let (mut util, mut overhead, mut retries) = (vec![], vec![], 0);
    for s in stats {
        let wall = s.wall.as_secs_f64();
        let workers = s.workers.len().max(1) as f64;
        let busy = s.busy().as_secs_f64();
        util.push(busy / (wall * workers));
        overhead.push(wall - busy / workers);
        retries += s.retried();
    }
    m.set("secbench.resilience.utilization", median(&util));
    m.set("secbench.resilience.overhead_s", median(&overhead));
    m.set("secbench.resilience.retries", retries as f64);
}

/// Records per-shard timings of the benchmark's own shard loop.
fn record_shards(m: &mut Metrics, busy: &[f64]) {
    m.set("secbench.run.shards", busy.len() as f64);
    m.set("secbench.run.shard_busy_s", busy.iter().sum());
    m.set("secbench.run.shard_p50_ms", percentile(busy, 50.0) * 1e3);
    m.set("secbench.run.shard_p99_ms", percentile(busy, 99.0) * 1e3);
}

/// Times `Checkpoint::save` and `Checkpoint::load_recovering` on a
/// checkpoint holding `records` (one per shard, the workload's own
/// size), in `dir`.
fn record_checkpoint_costs(
    m: &mut Metrics,
    dir: &Path,
    settings_hash: u64,
    records: &[(usize, String)],
) -> Result<(), String> {
    let dir = dir.join("checkpoint-cost");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("ck.txt");
    let mut ck = Checkpoint::new(settings_hash, records.len());
    ck.done = records.to_vec();
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..CHECKPOINT_REPEATS {
        let t = Instant::now();
        ck.save(&path)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        saves.push(t.elapsed().as_secs_f64());
    }
    for _ in 0..CHECKPOINT_REPEATS {
        let t = Instant::now();
        let loaded = Checkpoint::load_recovering(&path, &IoInjector::disabled());
        loads.push(t.elapsed().as_secs_f64());
        match loaded {
            RecoveredLoad::Current(back) if back == ck => {}
            other => return Err(format!("checkpoint did not round-trip: {other:?}")),
        }
    }
    m.set(
        "secbench.checkpoint.save_p50_us",
        percentile(&saves, 50.0) * 1e6,
    );
    m.set("secbench.checkpoint.load_ms", median(&loads) * 1e3);
    Ok(())
}

/// Times `Telemetry::emit` of shard-completion events into a JSONL file
/// in `dir`, flush included.
fn record_emit_cost(m: &mut Metrics, dir: &Path) -> Result<(), String> {
    let path = dir.join("emit-cost.jsonl");
    let telemetry =
        Telemetry::to_path("perfbench", &path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t = Instant::now();
    for task in 0..EMITS {
        telemetry.emit(Event::ShardComplete {
            task,
            worker: task % 2,
            wall_ns: 250_000 + task,
        });
    }
    telemetry.flush();
    let ns = t.elapsed().as_secs_f64() * 1e9 / EMITS as f64;
    m.set("secbench.telemetry.emit_ns", ns);
    Ok(())
}

/// Failures of cells whose values differ from `reference`.
fn disagreements<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    reference: &[T],
) -> BTreeMap<usize, String> {
    let mut out: BTreeMap<usize, String> = got
        .iter()
        .zip(reference)
        .enumerate()
        .filter(|(_, (g, r))| g != r)
        .map(|(i, (g, r))| (i, format!("cell {i}: {what} gave {g:?}, expected {r:?}")))
        .collect();
    for i in got.len().min(reference.len())..got.len().max(reference.len()) {
        out.insert(i, format!("cell {i}: {what} has a different cell count"));
    }
    out
}

/// Runs a full-size (500-trial) campaign of `config` at the workload
/// seed once, untimed, and counts its failed checks, verdicts included.
fn full_size_checks(
    config: table4::Table4Config,
    args: &Args,
    dir: &Path,
    tally: &mut Tally,
) -> Result<table4::Pass, String> {
    let full = table4::prepare(config, args.seed, table4::TRIALS);
    let mut pass = table4::run_pass(&full, 0, dir)?;
    for (i, why) in table4::verdict_failures(&full, &pass.measured) {
        pass.failures.entry(i).or_insert(why);
    }
    tally.add(full.cells.len(), &pass.failures);
    Ok(pass)
}

/// `table4-classic`.
fn run_table4(args: &Args, dir: &Path) -> Result<RunResult, String> {
    let config = table4::CLASSIC;
    let mut tally = Tally::default();
    let mut first: Option<Vec<Measurement>> = None;
    let mut merged: Vec<Measurement> = Vec::new();
    let mut stats = Vec::new();
    let mut calls = 0;
    let campaign_dir = dir.join("campaign");
    let prepare = || Ok(table4::prepare(config, args.seed, table4::UNIT_TRIALS));
    let (p, setup_s, best) = setup_and_rounds(args.seconds, prepare, |_| 1, |p, _| {
        let pass = table4::run_pass(p, calls, &campaign_dir)?;
        calls += 1;
        tally.add(p.cells.len(), &pass.failures);
        merged.resize(p.cells.len(), Measurement::ZERO);
        for (acc, m) in merged.iter_mut().zip(&pass.measured) {
            *acc = acc.merge(*m);
        }
        first.get_or_insert(pass.measured);
        stats.push(pass.stats);
        Ok(pass.sample)
    })?;
    let first = first.ok_or("no timed call ran")?;
    tally.add(p.cells.len(), &table4::verdict_failures(&p, &merged));

    // The output checks at full size, untimed: the workload's campaign
    // and the durable RF campaign at the workload seed, and the canonical
    // table.
    full_size_checks(config, args, &campaign_dir, &mut tally)?;
    let durable = full_size_checks(table4::RF_DURABLE, args, &campaign_dir, &mut tally)?;
    let failures: BTreeMap<usize, String> = match table4::golden_mismatch()? {
        Some(why) => (0..p.cells.len()).map(|i| (i, why.clone())).collect(),
        None => BTreeMap::new(),
    };
    tally.add(p.cells.len(), &failures);
    let mut m = Metrics::default();
    if !args.trace {
        record_end_to_end(
            &mut m,
            &best,
            setup_s,
            p.pairs(),
            p.instructions(),
            &tally,
        )?;
        return Ok(RunResult {
            tally,
            metrics: m,
            trace: false,
        });
    }

    let (generated, generate_s) = table4::time_generation(&p);
    m.set("secbench.generate.calls", generated as f64);
    m.set("secbench.generate.busy_ms", generate_s * 1e3);

    let shards = table4::shard_pass(&p, &p.settings)?;
    tally.add(
        p.cells.len(),
        &disagreements("the shard loop", &shards.measured, &first),
    );
    record_shards(&mut m, &shards.busy);
    let last = stats.last().ok_or("no timed call ran")?;
    m.set("secbench.run.trials_simulated", last.trials() as f64);
    m.set("secbench.run.trials_accounted", p.pairs() as f64);

    let replica = replica::table4_trials(&p.cells, &p.settings)?;
    let mut failures = disagreements("the trial replica", &replica.measured, &first);
    if replica.counts.instret != p.instructions() {
        failures.insert(
            0,
            format!(
                "replica retired {} instructions, the set-up counted {}",
                replica.counts.instret,
                p.instructions()
            ),
        );
    }
    let again = replica::table4_trials(&p.cells, &p.settings)?;
    if again.counts != replica.counts || again.measured != replica.measured {
        failures.insert(0, "simulated counts differ between two replicas".to_owned());
    }
    tally.add(p.cells.len(), &failures);
    replica.counts.record(&mut m);
    replica.times.record(replica.counts.instret, &mut m);

    record_resilience(&mut m, stats.iter());
    m.set("secbench.scheduler.steals", durable.stats.stolen() as f64);
    if let Some(d) = durable.durable {
        m.set("secbench.checkpoint.saves", d.saves as f64);
        m.set("secbench.checkpoint.bytes", d.checkpoint_bytes as f64);
        m.set("secbench.telemetry.events", d.events as f64);
        m.set("secbench.telemetry.bytes", d.event_bytes as f64);
    }
    let settings_hash = cells_fingerprint(&p.cells, &p.settings);
    record_checkpoint_costs(&mut m, dir, settings_hash, &shards.records)?;
    record_emit_cost(&mut m, dir)?;
    m.set("trace.overhead_frac", shards.wall_s / round_wall(&best) - 1.0);
    Ok(RunResult {
        tally,
        metrics: m,
        trace: true,
    })
}

/// Checks one fig7 campaign's results against the golden panels (when
/// `golden` is given), recording each cell's `(ipc, mpki)`.
fn check_fig7(
    results: Vec<fig7::CellResult>,
    cells: &[fig7::Fig7Cell],
    golden: Option<&fig7::Golden>,
) -> (Vec<(f64, f64)>, BTreeMap<usize, String>) {
    let mut failures = BTreeMap::new();
    let mut values = Vec::with_capacity(results.len());
    for (i, (r, cell)) in results.into_iter().zip(cells).enumerate() {
        match r {
            Ok((ipc, mpki)) => {
                if let Some(why) = golden.and_then(|g| fig7::golden_mismatch(g, cell, ipc, mpki)) {
                    failures.insert(i, why);
                }
                values.push((ipc, mpki));
            }
            Err(why) => {
                failures.insert(i, why);
                values.push((f64::NAN, f64::NAN));
            }
        }
    }
    (values, failures)
}

/// `fig7-perf`.
fn run_fig7(args: &Args, dir: &Path) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    // Each unit's first `(ipc, mpki)`, which its later calls must repeat.
    let mut reference: Vec<Option<(f64, f64)>> = Vec::new();
    let mut stats = Vec::new();
    let prepare = || fig7::prepare(args.seed);
    let units = |p: &fig7::Prepared| p.timed.len();
    let (p, setup_s, best) = setup_and_rounds(args.seconds, prepare, units, |p, k| {
        let cell = &p.timed[k..=k];
        let ((results, pool), sample) = measure(|| fig7::run_pass(cell, args.seed));
        let (values, mut failures) = check_fig7(results, cell, None);
        reference.resize(p.timed.len(), None);
        match reference[k] {
            None => reference[k] = Some(values[0]),
            Some(first) => {
                for (_, why) in disagreements("a later call", &values, &[first]) {
                    failures.entry(0).or_insert(why);
                }
            }
        }
        tally.add(1, &failures);
        stats.push(pool);
        Ok(sample)
    })?;
    let reference: Vec<(f64, f64)> = reference
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a unit never ran")?;
    let (results, _) = fig7::run_pass(&p.cells, args.seed);
    let (_, failures) = check_fig7(results, &p.cells, Some(&p.golden));
    tally.add(p.cells.len(), &failures);
    let mut m = Metrics::default();
    if !args.trace {
        let units = p.timed.len() as u64;
        record_end_to_end(&mut m, &best, setup_s, units, p.instructions, &tally)?;
        return Ok(RunResult {
            tally,
            metrics: m,
            trace: false,
        });
    }

    let started_shards = Instant::now();
    let mut busy = Vec::with_capacity(p.timed.len());
    let mut shard_values = Vec::with_capacity(p.timed.len());
    for c in &p.timed {
        let t = Instant::now();
        let cell = run_cell_oracle(c.design, c.config, c.workload, c.runs, None, |b| b)
            .map_err(|e| format!("{}: {e}", c.label()))?;
        busy.push(t.elapsed().as_secs_f64());
        shard_values.push((cell.ipc, cell.mpki));
    }
    let shard_wall = started_shards.elapsed().as_secs_f64();
    tally.add(
        p.timed.len(),
        &disagreements("the shard loop", &shard_values, &reference),
    );
    record_shards(&mut m, &busy);
    let last_round = &stats[stats.len() - p.timed.len()..];
    let simulated: u64 = last_round.iter().map(PoolStats::trials).sum();
    m.set("secbench.run.trials_simulated", simulated as f64);
    m.set("secbench.run.trials_accounted", p.timed.len() as f64);

    let replicate = || -> Result<_, String> {
        let mut counts = replica::SimCounts::default();
        let mut times = replica::StageTimes::default();
        let mut gen = replica::GenTimes::default();
        let values = p
            .timed
            .iter()
            .map(|c| replica::fig7_cell(c, &mut counts, &mut times, &mut gen))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((values, counts, times, gen))
    };
    let (values, counts, times, gen) = replicate()?;
    let mut failures = disagreements("the cell replica", &values, &reference);
    if counts.instret != p.instructions {
        failures.insert(
            0,
            format!(
                "replica retired {} instructions, the set-up counted {}",
                counts.instret, p.instructions
            ),
        );
    }
    let (values_again, counts_again, _, _) = replicate()?;
    if counts_again != counts || values_again != values {
        failures.insert(0, "simulated counts differ between two replicas".to_owned());
    }
    tally.add(p.timed.len(), &failures);
    counts.record(&mut m);
    times.record(counts.instret, &mut m);
    m.set("workloads.rsa.program_ms", gen.rsa_s * 1e3);
    m.set("workloads.spec_like.trace_ms", gen.spec_s * 1e3);

    record_resilience(&mut m, stats.iter());
    let records: Vec<(usize, String)> = reference
        .iter()
        .enumerate()
        .map(|(i, v)| (i, v.encode()))
        .collect();
    let settings_hash = sectlb_secbench::checkpoint::fingerprint(args.seed, [records.len() as u64]);
    record_checkpoint_costs(&mut m, dir, settings_hash, &records)?;
    record_emit_cost(&mut m, dir)?;
    m.set("trace.overhead_frac", shard_wall / round_wall(&best) - 1.0);
    Ok(RunResult {
        tally,
        metrics: m,
        trace: true,
    })
}
