//! Campaign-side shadow-oracle guardrails: sampled lockstep checking,
//! SUSPECT reporting, minimal-repro capture, and deterministic replay.
//!
//! The simulator half of the oracle lives in [`sectlb_sim::shadow`]: every
//! [`sectlb_sim::Machine`] can run a reference model in lockstep and
//! record a replayable [`TraceCapture`] when a TLB design violates one of
//! its invariants. This module is the campaign half:
//!
//! - [`OracleConfig`] — the `--oracle[=RATE]` / `--inject-corruption[=PM]`
//!   knobs: which trials run with the oracle armed (sampled per-mille, to
//!   bound the lockstep overhead) and which trials get a deterministic
//!   TLB-entry corruption injected (the end-to-end proof that a real
//!   hardware fault would be caught, shrunk, and replayable);
//! - [`shrink`] — a delta-debugging (ddmin) shrinker that reduces a
//!   capture's operation trace to a minimal sequence still violating the
//!   same invariant;
//! - [`render_repro`] / [`parse_repro`] / [`replay_file`] — a
//!   line-oriented `repro/*.ron` file format so the `replay` bench binary
//!   can re-execute any captured violation deterministically;
//! - [`conclude`] — the driver epilogue: drain the process-wide suspect
//!   sink, deduplicate per campaign cell, shrink, write repro files, and
//!   compute the [`EXIT_SUSPECT`] exit code.
//!
//! Everything is a pure function of trial coordinates: whether a trial is
//! sampled or corrupted depends only on `(config seed, trial seed)`, so
//! injected campaigns are exactly reproducible across worker counts and
//! kill/resume interleavings, like every other part of the engine.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::TlbDesign;
use sectlb_sim::os::FlushPolicy;
use sectlb_sim::shadow::{drain_suspects_with_prefix, replay, MachineSetup, TraceCapture, TraceOp};
use sectlb_sim::{Invariant, OracleViolation};
use sectlb_tlb::check::CorruptionKind;
use sectlb_tlb::types::{Asid, PageSize, SecureRegion, Vpn};
use sectlb_tlb::{InvalidationPolicy, RandomFillEviction};

use crate::run::splitmix64;

/// Exit code drivers use when the shadow oracle flagged at least one
/// SUSPECT cell. Dominates [`crate::resilience::EXIT_QUARANTINED`]: a
/// quarantined shard is missing data, a suspect cell is *wrong* data.
pub const EXIT_SUSPECT: i32 = 6;

/// The `--oracle` / `--inject-corruption` configuration of a campaign.
///
/// Both decisions are pure per-mille rolls on the trial's seed, so they
/// are independent of scheduling. A trial whose roll injects a corruption
/// is always armed, regardless of the sampling rate — an injected fault
/// must never go unobserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Per-mille of trials that run with the oracle armed (1000 = every
    /// trial; lower rates bound the lockstep overhead).
    pub rate_per_mille: u16,
    /// Per-mille of trials that get one deterministic TLB-entry
    /// corruption injected mid-run (`--inject-corruption`).
    pub corrupt_per_mille: u16,
    /// Base seed of the sampling/corruption rolls.
    pub seed: u64,
    /// Context prefix for suspect reports ("which driver ran this") —
    /// also the prefix [`conclude`] drains by.
    pub tag: &'static str,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            rate_per_mille: 1000,
            corrupt_per_mille: 0,
            seed: 0x5ec0de,
            tag: "secbench",
        }
    }
}

impl OracleConfig {
    fn roll(&self, trial_seed: u64, salt: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ salt) ^ trial_seed)
    }

    /// Whether the lockstep check samples this trial.
    pub fn samples(&self, trial_seed: u64) -> bool {
        self.roll(trial_seed, 0x0bace) % 1000 < u64::from(self.rate_per_mille)
    }

    /// The corruption injected into this trial, if any, as
    /// `(op index, entry selector, kind)` — all derived from the trial
    /// seed, so the same trial corrupts identically wherever it runs.
    pub fn corruption(&self, trial_seed: u64) -> Option<(u64, u64, CorruptionKind)> {
        if self.roll(trial_seed, 0xc0bb) % 1000 >= u64::from(self.corrupt_per_mille) {
            return None;
        }
        let r = self.roll(trial_seed, 0xf11b);
        let kind = CorruptionKind::ALL[(r % 3) as usize];
        // Fire a handful of instructions in, once fills have happened (the
        // machine retries on later ops while the TLB is still empty).
        let op_index = 4 + (r >> 2) % 24;
        let selector = r >> 7;
        Some((op_index, selector, kind))
    }

    /// Whether this trial runs with the oracle armed at all.
    pub fn armed(&self, trial_seed: u64) -> bool {
        self.corrupt_per_mille > 0 && self.corruption(trial_seed).is_some()
            || self.samples(trial_seed)
    }
}

/// Delta-debugging (ddmin) shrink of a capture's operation trace: removes
/// chunks of operations at progressively finer granularity, keeping a
/// candidate whenever [`replay`] still reproduces a violation of the
/// *same invariant*. The returned capture's recorded violation is
/// rewritten to its own replay result, so `capture.violation` is exactly
/// what [`replay`] of the shrunk capture yields.
pub fn shrink(capture: &TraceCapture) -> TraceCapture {
    let target = capture.violation.invariant;
    let still_fails = |ops: &[TraceOp]| -> bool {
        let mut candidate = capture.clone();
        candidate.ops = ops.to_vec();
        replay(&candidate).is_some_and(|v| v.invariant == target)
    };
    let mut ops = capture.ops.clone();
    let mut granularity = 2usize;
    while ops.len() >= 2 {
        let chunk = ops.len().div_ceil(granularity);
        let mut start = 0usize;
        let mut reduced = false;
        while start < ops.len() {
            let end = (start + chunk).min(ops.len());
            let mut candidate = Vec::with_capacity(ops.len() - (end - start));
            candidate.extend_from_slice(&ops[..start]);
            candidate.extend_from_slice(&ops[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                ops = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                start = 0;
            } else {
                start = end;
            }
        }
        if !reduced {
            if granularity >= ops.len() {
                break;
            }
            granularity = (granularity * 2).min(ops.len());
        }
    }
    let mut out = capture.clone();
    out.ops = ops;
    if let Some(v) = replay(&out) {
        out.violation = v;
    }
    out
}

/// Errors loading or parsing a repro file.
#[derive(Debug)]
pub enum ReproError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// A line did not parse; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Io(e) => write!(f, "cannot read repro file: {e}"),
            ReproError::Parse { line, message } => {
                write!(f, "repro file line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ReproError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReproError::Io(e) => Some(e),
            ReproError::Parse { .. } => None,
        }
    }
}

const REPRO_MAGIC: &str = "sectlb-repro v1";

fn flush_name(p: FlushPolicy) -> &'static str {
    match p {
        FlushPolicy::None => "none",
        FlushPolicy::FlushOnSwitch => "flush-on-switch",
    }
}

fn eviction_name(e: RandomFillEviction) -> &'static str {
    match e {
        RandomFillEviction::RandomWay => "random-way",
        RandomFillEviction::LruWay => "lru-way",
    }
}

fn invalidation_name(i: InvalidationPolicy) -> &'static str {
    match i {
        InvalidationPolicy::Precise => "precise",
        InvalidationPolicy::RegionFlush => "region-flush",
    }
}

fn size_name(s: PageSize) -> &'static str {
    match s {
        PageSize::Base => "base",
        PageSize::Mega => "mega",
        PageSize::Giga => "giga",
    }
}

/// Renders a capture as the line-oriented `sectlb-repro v1` text format.
/// [`parse_repro`] inverts this exactly.
pub fn render_repro(capture: &TraceCapture) -> String {
    let s = &capture.setup;
    let mut out = String::new();
    let _ = writeln!(out, "{REPRO_MAGIC}");
    let _ = writeln!(out, "design {}", s.design.name());
    let _ = writeln!(out, "entries {}", s.entries);
    let _ = writeln!(out, "ways {}", s.ways);
    let _ = writeln!(out, "seed {:#x}", s.seed);
    let _ = writeln!(out, "flush {}", flush_name(s.flush_policy));
    let _ = writeln!(out, "switch_cost {}", s.switch_cost);
    let _ = writeln!(out, "cycles_per_level {}", s.cycles_per_level);
    let _ = writeln!(out, "rf_eviction {}", eviction_name(s.rf_eviction));
    let _ = writeln!(
        out,
        "rf_invalidation {}",
        invalidation_name(s.rf_invalidation)
    );
    if let Some(w) = s.sp_victim_ways {
        let _ = writeln!(out, "sp_victim_ways {w}");
    }
    if let Some((design, entries, ways, latency)) = s.l2 {
        let _ = writeln!(out, "l2 {} {entries} {ways} {latency}", design.name());
    }
    if let Some((design, entries, ways)) = s.itlb {
        let _ = writeln!(out, "itlb {} {entries} {ways}", design.name());
    }
    let _ = writeln!(out, "processes {}", capture.processes);
    for &(asid, vpn, size) in &capture.maps {
        let _ = writeln!(out, "map {} {:#x} {}", asid.0, vpn.0, size_name(size));
    }
    for &(asid, region, is_code) in &capture.protects {
        let _ = writeln!(
            out,
            "protect {} {:#x} {} {}",
            asid.0,
            region.base.0,
            region.pages,
            if is_code { "code" } else { "data" }
        );
    }
    for op in &capture.ops {
        match *op {
            TraceOp::Exec(instr) => {
                let _ = match instr {
                    Instr::Load(a) => writeln!(out, "op load {a:#x}"),
                    Instr::Store(a) => writeln!(out, "op store {a:#x}"),
                    Instr::Compute(n) => writeln!(out, "op compute {n}"),
                    Instr::SetAsid(a) => writeln!(out, "op setasid {}", a.0),
                    Instr::FlushAll => writeln!(out, "op flushall"),
                    Instr::FlushAsid(a) => writeln!(out, "op flushasid {}", a.0),
                    Instr::FlushPage(a) => writeln!(out, "op flushpage {a:#x}"),
                    Instr::ReadMissCounter => writeln!(out, "op readmiss"),
                    Instr::JumpTo(a) => writeln!(out, "op jumpto {a:#x}"),
                };
            }
            TraceOp::Corrupt { selector, kind } => {
                let _ = writeln!(out, "corrupt {selector} {}", kind.name());
            }
        }
    }
    let v = &capture.violation;
    let _ = writeln!(out, "violation {} {}", v.op_index, v.invariant.name());
    let _ = writeln!(out, "v_design {}", v.design);
    let _ = writeln!(out, "v_expected {}", v.expected);
    let _ = writeln!(out, "v_actual {}", v.actual);
    out
}

fn parse_u64(token: &str) -> Option<u64> {
    match token.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => token.parse().ok(),
    }
}

/// Parses the `sectlb-repro v1` text format back into a capture.
///
/// # Errors
///
/// Fails with a [`ReproError::Parse`] naming the offending line when the
/// magic, a field, or a required section is missing or malformed.
pub fn parse_repro(text: &str) -> Result<TraceCapture, ReproError> {
    let fail = |line: usize, message: String| ReproError::Parse { line, message };
    fn num<'a>(
        tokens: &mut impl Iterator<Item = &'a str>,
        line: usize,
        key: &str,
        what: &str,
    ) -> Result<u64, ReproError> {
        tokens.next().and_then(parse_u64).ok_or(ReproError::Parse {
            line,
            message: format!("{key}: missing or bad {what}"),
        })
    }
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == REPRO_MAGIC => {}
        other => {
            return Err(fail(
                1,
                format!(
                    "expected magic {REPRO_MAGIC:?}, found {:?}",
                    other.map(|(_, l)| l).unwrap_or("<empty file>")
                ),
            ))
        }
    }

    let mut setup = MachineSetup {
        design: TlbDesign::Sa,
        entries: 0,
        ways: 0,
        seed: 0,
        flush_policy: FlushPolicy::None,
        switch_cost: 0,
        cycles_per_level: 0,
        rf_eviction: RandomFillEviction::RandomWay,
        rf_invalidation: InvalidationPolicy::Precise,
        sp_victim_ways: None,
        l2: None,
        itlb: None,
    };
    let mut seen_geometry = false;
    let mut processes: Option<u16> = None;
    let mut maps: Vec<(Asid, Vpn, PageSize)> = Vec::new();
    let mut protects: Vec<(Asid, SecureRegion, bool)> = Vec::new();
    let mut ops: Vec<TraceOp> = Vec::new();
    let mut violation: Option<OracleViolation> = None;

    for (idx, raw) in lines {
        let line = idx + 1;
        let l = raw.trim();
        if l.is_empty() {
            continue;
        }
        let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
        let mut tokens = rest.split_whitespace();
        macro_rules! num {
            ($what:expr) => {
                num(&mut tokens, line, key, $what)
            };
        }
        match key {
            "design" => {
                setup.design = TlbDesign::from_name(rest)
                    .ok_or_else(|| fail(line, format!("unknown design {rest:?}")))?;
            }
            "entries" => {
                setup.entries = num!("count")? as usize;
                seen_geometry = true;
            }
            "ways" => setup.ways = num!("count")? as usize,
            "seed" => setup.seed = num!("seed")?,
            "flush" => {
                setup.flush_policy = match rest {
                    "none" => FlushPolicy::None,
                    "flush-on-switch" => FlushPolicy::FlushOnSwitch,
                    other => return Err(fail(line, format!("unknown flush policy {other:?}"))),
                };
            }
            "switch_cost" => setup.switch_cost = num!("cycles")?,
            "cycles_per_level" => setup.cycles_per_level = num!("cycles")?,
            "rf_eviction" => {
                setup.rf_eviction = match rest {
                    "random-way" => RandomFillEviction::RandomWay,
                    "lru-way" => RandomFillEviction::LruWay,
                    other => return Err(fail(line, format!("unknown eviction {other:?}"))),
                };
            }
            "rf_invalidation" => {
                setup.rf_invalidation = match rest {
                    "precise" => InvalidationPolicy::Precise,
                    "region-flush" => InvalidationPolicy::RegionFlush,
                    other => return Err(fail(line, format!("unknown invalidation {other:?}"))),
                };
            }
            "sp_victim_ways" => setup.sp_victim_ways = Some(num!("ways")? as usize),
            "l2" => {
                let design = tokens
                    .next()
                    .and_then(TlbDesign::from_name)
                    .ok_or_else(|| fail(line, "l2: bad design".into()))?;
                setup.l2 = Some((
                    design,
                    num!("entries")? as usize,
                    num!("ways")? as usize,
                    num!("latency")?,
                ));
            }
            "itlb" => {
                let design = tokens
                    .next()
                    .and_then(TlbDesign::from_name)
                    .ok_or_else(|| fail(line, "itlb: bad design".into()))?;
                setup.itlb = Some((design, num!("entries")? as usize, num!("ways")? as usize));
            }
            "processes" => processes = Some(num!("count")? as u16),
            "map" => {
                let asid = Asid(num!("asid")? as u16);
                let vpn = Vpn(num!("vpn")?);
                let size = match tokens.next() {
                    Some("base") => PageSize::Base,
                    Some("mega") => PageSize::Mega,
                    other => return Err(fail(line, format!("map: bad page size {other:?}"))),
                };
                maps.push((asid, vpn, size));
            }
            "protect" => {
                let asid = Asid(num!("asid")? as u16);
                let base = Vpn(num!("base")?);
                let pages = num!("pages")?;
                let is_code = match tokens.next() {
                    Some("data") => false,
                    Some("code") => true,
                    other => return Err(fail(line, format!("protect: bad kind {other:?}"))),
                };
                protects.push((asid, SecureRegion::new(base, pages), is_code));
            }
            "op" => {
                let mnemonic = tokens
                    .next()
                    .ok_or_else(|| fail(line, "op: missing mnemonic".into()))?;
                let instr = match mnemonic {
                    "load" => Instr::Load(num!("address")?),
                    "store" => Instr::Store(num!("address")?),
                    "compute" => Instr::Compute(num!("count")?),
                    "setasid" => Instr::SetAsid(Asid(num!("asid")? as u16)),
                    "flushall" => Instr::FlushAll,
                    "flushasid" => Instr::FlushAsid(Asid(num!("asid")? as u16)),
                    "flushpage" => Instr::FlushPage(num!("address")?),
                    "readmiss" => Instr::ReadMissCounter,
                    "jumpto" => Instr::JumpTo(num!("address")?),
                    other => return Err(fail(line, format!("op: unknown mnemonic {other:?}"))),
                };
                ops.push(TraceOp::Exec(instr));
            }
            "corrupt" => {
                let selector = num!("selector")?;
                let kind = tokens
                    .next()
                    .and_then(CorruptionKind::from_name)
                    .ok_or_else(|| fail(line, "corrupt: bad kind".into()))?;
                ops.push(TraceOp::Corrupt { selector, kind });
            }
            "violation" => {
                let op_index = num!("op index")? as usize;
                let invariant = tokens
                    .next()
                    .and_then(Invariant::from_name)
                    .ok_or_else(|| fail(line, "violation: unknown invariant".into()))?;
                violation = Some(OracleViolation {
                    design: String::new(),
                    op_index,
                    invariant,
                    expected: String::new(),
                    actual: String::new(),
                });
            }
            "v_design" | "v_expected" | "v_actual" => {
                let v = violation
                    .as_mut()
                    .ok_or_else(|| fail(line, format!("{key} before violation line")))?;
                match key {
                    "v_design" => v.design = rest.to_owned(),
                    "v_expected" => v.expected = rest.to_owned(),
                    _ => v.actual = rest.to_owned(),
                }
            }
            other => return Err(fail(line, format!("unknown directive {other:?}"))),
        }
    }

    if !seen_geometry {
        return Err(fail(2, "missing machine geometry (entries/ways)".into()));
    }
    let processes = processes.ok_or_else(|| fail(2, "missing processes line".into()))?;
    let violation = violation.ok_or_else(|| fail(2, "missing violation line".into()))?;
    Ok(TraceCapture {
        setup,
        processes,
        maps,
        protects,
        ops,
        violation,
    })
}

/// Writes `capture` to `dir/stem.ron` (creating `dir`), atomically via
/// the [`crate::iofault`] durable-write path (temp file + rename +
/// parent-directory fsync) so a half-written repro is never left behind
/// and the rename survives a crash.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_repro(dir: &Path, stem: &str, capture: &TraceCapture) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.ron"));
    crate::iofault::write_atomic(
        &path,
        render_repro(capture).as_bytes(),
        &crate::iofault::IoInjector::disabled(),
    )?;
    Ok(path)
}

/// Loads a repro file and re-executes it, returning the capture and the
/// violation the replay reproduced (`None` when it no longer fails).
///
/// # Errors
///
/// Fails when the file cannot be read or parsed.
pub fn replay_file(path: &Path) -> Result<(TraceCapture, Option<OracleViolation>), ReproError> {
    let text = fs::read_to_string(path).map_err(ReproError::Io)?;
    let capture = parse_repro(&text)?;
    let violation = replay(&capture);
    Ok((capture, violation))
}

/// One SUSPECT campaign cell: a deduplicated, shrunk oracle violation
/// with the repro file it was written to.
#[derive(Debug)]
pub struct SuspectCell {
    /// The full reporting context of the first violating trial
    /// (`tag|cell coordinates|…|seed`).
    pub context: String,
    /// The cell key the context was deduplicated by (its first three
    /// `|`-separated fields).
    pub cell: String,
    /// Trace length before shrinking.
    pub original_ops: usize,
    /// The shrunk capture; its `violation` is exactly what replaying it
    /// reproduces.
    pub capture: TraceCapture,
    /// Where the repro file was written, when writing succeeded.
    pub path: Option<PathBuf>,
    /// The filesystem error, when writing failed.
    pub write_error: Option<String>,
}

/// The outcome of [`conclude`]: every SUSPECT cell of a campaign.
#[derive(Debug, Default)]
pub struct OracleSummary {
    /// Deduplicated suspect cells, sorted by context.
    pub suspects: Vec<SuspectCell>,
}

impl OracleSummary {
    /// Whether the oracle flagged nothing.
    pub fn is_empty(&self) -> bool {
        self.suspects.is_empty()
    }

    /// The driver exit code: `base` when clean, [`EXIT_SUSPECT`] (which
    /// dominates quarantine) when any cell is suspect.
    pub fn exit_code(&self, base: i32) -> i32 {
        if self.suspects.is_empty() {
            base
        } else {
            EXIT_SUSPECT
        }
    }

    /// Whether some single suspect context carries *all* of `fields` as
    /// exact `|`-separated components — how drivers map suspects back to
    /// table cells (e.g. `&[vulnerability, design]`).
    pub fn affects(&self, fields: &[&str]) -> bool {
        self.suspects.iter().any(|s| {
            let parts: Vec<&str> = s.context.split('|').collect();
            fields.iter().all(|f| parts.contains(f))
        })
    }

    /// Prints the suspect details to stderr (stdout stays reserved for
    /// the deterministic tables).
    pub fn eprint(&self) {
        for s in &self.suspects {
            eprintln!("SUSPECT cell [{}]: {}", s.cell, s.capture.violation);
            match (&s.path, &s.write_error) {
                (Some(p), _) => eprintln!(
                    "  trace: {} op(s) shrunk to {}; repro written to {}",
                    s.original_ops,
                    s.capture.ops.len(),
                    p.display()
                ),
                (None, Some(e)) => eprintln!(
                    "  trace: {} op(s) shrunk to {}; writing repro FAILED: {e}",
                    s.original_ops,
                    s.capture.ops.len(),
                ),
                (None, None) => {}
            }
        }
        if !self.suspects.is_empty() {
            eprintln!(
                "WARNING: {} SUSPECT cell(s) — the shadow oracle caught the TLB \
                 model misbehaving; their numbers are untrustworthy",
                self.suspects.len()
            );
        }
    }
}

fn sanitize(context: &str) -> String {
    let mut out = String::with_capacity(context.len());
    let mut last_dash = true;
    for c in context.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    out.truncate(120);
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("suspect");
    }
    out
}

fn cell_key(context: &str) -> String {
    context.split('|').take(3).collect::<Vec<_>>().join("|")
}

/// The driver epilogue of an oracle-armed campaign: drains every suspect
/// report whose context starts with `prefix` (the driver's
/// [`OracleConfig::tag`]), deduplicates to one representative per
/// campaign cell, shrinks each trace to a minimal reproduction, and
/// writes `repro_dir/<cell>.ron` files.
///
/// Deterministic given the drained reports: suspects are sorted by
/// context, and the first report of each cell (in submission order) is
/// the representative.
pub fn conclude(prefix: &str, repro_dir: &Path) -> OracleSummary {
    let mut reports = drain_suspects_with_prefix(prefix);
    let mut seen_cells: Vec<String> = Vec::new();
    reports.retain(|r| {
        let key = cell_key(&r.context);
        if seen_cells.contains(&key) {
            false
        } else {
            seen_cells.push(key);
            true
        }
    });
    reports.sort_by(|a, b| a.context.cmp(&b.context));

    let mut used_stems: Vec<String> = Vec::new();
    let suspects = reports
        .into_iter()
        .map(|r| {
            let cell = cell_key(&r.context);
            let original_ops = r.capture.ops.len();
            let capture = shrink(&r.capture);
            let mut stem = sanitize(&cell);
            let mut n = 1usize;
            while used_stems.contains(&stem) {
                n += 1;
                stem = format!("{}-{n}", sanitize(&cell));
            }
            used_stems.push(stem.clone());
            let (path, write_error) = match write_repro(repro_dir, &stem, &capture) {
                Ok(p) => (Some(p), None),
                Err(e) => (None, Some(e.to_string())),
            };
            SuspectCell {
                context: r.context,
                cell,
                original_ops,
                capture,
                path,
                write_error,
            }
        })
        .collect();
    OracleSummary { suspects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_sim::machine::MachineBuilder;
    use sectlb_sim::Machine;

    fn test_machine(tag: &str) -> Machine {
        let mut m = MachineBuilder::new().oracle(true).build();
        let v = m.os_mut().create_process();
        let a = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .expect("victim exists");
        m.os_mut().map_region(v, Vpn(0x10), 8).expect("mappable");
        m.os_mut().map_region(a, Vpn(0x10), 8).expect("mappable");
        m.set_oracle_context(tag.to_owned());
        m
    }

    fn noisy_program() -> Vec<Instr> {
        let mut p = vec![Instr::SetAsid(Asid(1))];
        for round in 0..4u64 {
            for i in 0..8u64 {
                p.push(Instr::Load((0x10 + i) << 12));
            }
            p.push(Instr::Compute(3));
            p.push(Instr::SetAsid(Asid(2)));
            p.push(Instr::Store((0x10 + round) << 12));
            p.push(Instr::SetAsid(Asid(1)));
        }
        p
    }

    fn captured(tag: &str) -> TraceCapture {
        let mut m = test_machine(tag);
        m.run(&noisy_program());
        assert!(m.inject_corruption_now(5, CorruptionKind::Ppn));
        let mut reports = drain_suspects_with_prefix(tag);
        assert_eq!(reports.len(), 1, "one violation captured");
        reports.remove(0).capture
    }

    #[test]
    fn sampling_is_deterministic_and_respects_the_rate() {
        let always = OracleConfig::default();
        let never = OracleConfig {
            rate_per_mille: 0,
            ..OracleConfig::default()
        };
        for seed in 0..200u64 {
            assert!(always.samples(seed));
            assert!(!never.samples(seed));
            assert!(always.armed(seed));
            assert!(!never.armed(seed));
        }
        let half = OracleConfig {
            rate_per_mille: 500,
            ..OracleConfig::default()
        };
        let hits = (0..1000u64).filter(|&s| half.samples(s)).count();
        assert!((300..700).contains(&hits), "rate off: {hits}/1000");
        for seed in 0..50 {
            assert_eq!(half.samples(seed), half.samples(seed));
        }
    }

    #[test]
    fn corruption_rolls_are_deterministic_and_force_arming() {
        let plan = OracleConfig {
            rate_per_mille: 0,
            corrupt_per_mille: 1000,
            ..OracleConfig::default()
        };
        for seed in 0..50u64 {
            let c = plan.corruption(seed).expect("pm=1000 corrupts all");
            assert_eq!(plan.corruption(seed), Some(c));
            assert!(plan.armed(seed), "corrupted trials are always armed");
            assert!(c.0 >= 4, "fires after some fills");
        }
        let off = OracleConfig::default();
        assert_eq!(off.corruption(7), None, "pm=0 never corrupts");
        let kinds: std::collections::HashSet<_> = (0..64u64)
            .filter_map(|s| plan.corruption(s).map(|c| c.2.name()))
            .collect();
        assert_eq!(kinds.len(), 3, "all corruption kinds occur");
    }

    #[test]
    fn repro_round_trips_through_the_text_format() {
        let capture = captured("oracle-roundtrip");
        let text = render_repro(&capture);
        assert!(text.starts_with(REPRO_MAGIC));
        let parsed = parse_repro(&text).expect("parses back");
        assert_eq!(parsed, capture);
    }

    #[test]
    fn repro_round_trips_optional_sections() {
        let mut capture = captured("oracle-roundtrip-opt");
        capture.setup.sp_victim_ways = Some(4);
        capture.setup.l2 = Some((TlbDesign::Sa, 128, 4, 8));
        capture.setup.itlb = Some((TlbDesign::Sp, 32, 4));
        capture.setup.flush_policy = FlushPolicy::FlushOnSwitch;
        capture.setup.rf_eviction = RandomFillEviction::LruWay;
        capture.setup.rf_invalidation = InvalidationPolicy::RegionFlush;
        capture.violation.invariant = Invariant::ReplacementOrder;
        capture.maps.push((Asid(2), Vpn(0x200), PageSize::Mega));
        capture
            .protects
            .push((Asid(1), SecureRegion::new(Vpn(0x300), 2), true));
        capture.ops.extend([
            TraceOp::Exec(Instr::Compute(9)),
            TraceOp::Exec(Instr::FlushAsid(Asid(2))),
            TraceOp::Exec(Instr::FlushPage(0x12_000)),
            TraceOp::Exec(Instr::ReadMissCounter),
            TraceOp::Exec(Instr::JumpTo(0x500_000)),
            TraceOp::Exec(Instr::FlushAll),
        ]);
        let parsed = parse_repro(&render_repro(&capture)).expect("parses back");
        assert_eq!(parsed, capture);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        assert!(matches!(
            parse_repro("not a repro"),
            Err(ReproError::Parse { line: 1, .. })
        ));
        let bad = format!("{REPRO_MAGIC}\ndesign SA\nfrobnicate 3\n");
        match parse_repro(&bad) {
            Err(ReproError::Parse { line: 3, message }) => {
                assert!(message.contains("frobnicate"), "{message}");
            }
            other => panic!("expected line-3 parse error, got {other:?}"),
        }
        let truncated = format!("{REPRO_MAGIC}\ndesign SA\nentries 32\nways 8\n");
        assert!(
            parse_repro(&truncated).is_err(),
            "missing sections rejected"
        );
    }

    #[test]
    fn shrinker_minimizes_and_preserves_the_invariant() {
        let capture = captured("oracle-shrink");
        assert!(capture.ops.len() > 10, "trace long enough to shrink");
        let shrunk = shrink(&capture);
        assert!(shrunk.ops.len() < capture.ops.len(), "trace got shorter");
        assert_eq!(
            shrunk.violation.invariant, capture.violation.invariant,
            "shrunk trace violates the same invariant"
        );
        let replayed = replay(&shrunk).expect("shrunk capture still fails");
        assert_eq!(replayed, shrunk.violation, "recorded violation is exact");
        // A corruption-induced violation can never shrink below the
        // corruption op itself.
        assert!(shrunk
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::Corrupt { .. })));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Shrink soundness: wherever in the trace the corruption lands
        /// and whatever it flips, the ddmin result still violates the
        /// *same* invariant, and its recorded violation is exactly what a
        /// replay of the shrunk trace produces.
        #[test]
        fn shrinking_is_sound_for_any_corruption(
            selector in 0u64..64,
            kind_ix in 0usize..3,
            prefix in 10usize..40,
        ) {
            let tag = format!("oracle-prop-{selector}-{kind_ix}-{prefix}");
            let mut m = test_machine(&tag);
            let program = noisy_program();
            m.run(&program[..prefix.min(program.len())]);
            if !m.inject_corruption_now(selector, CorruptionKind::ALL[kind_ix]) {
                return; // the TLB held no entry to corrupt at that point
            }
            let mut reports = drain_suspects_with_prefix(&tag);
            if reports.is_empty() {
                return; // flip landed on a field the remaining ops never exposed
            }
            let capture = reports.remove(0).capture;
            let shrunk = shrink(&capture);
            assert!(shrunk.ops.len() <= capture.ops.len(), "shrinking never grows");
            assert_eq!(
                shrunk.violation.invariant, capture.violation.invariant,
                "shrunk trace violates the same invariant"
            );
            assert_eq!(
                replay(&shrunk).as_ref(),
                Some(&shrunk.violation),
                "recorded violation is exactly the shrunk trace's replay"
            );
        }
    }

    #[test]
    fn conclude_dedups_shrinks_and_writes_repro_files() {
        let dir = std::env::temp_dir().join(format!("sectlb-oracle-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Two violations in the same cell (different seeds), one in
        // another cell.
        for seed in [1u64, 2] {
            let mut m = test_machine(&format!("oracle-conclude|A|SA|Mapped|{seed:#x}"));
            m.run(&noisy_program());
            assert!(m.inject_corruption_now(seed, CorruptionKind::Tag));
        }
        let mut m = test_machine("oracle-conclude|B|RF|Mapped|0x3");
        m.run(&noisy_program());
        assert!(m.inject_corruption_now(3, CorruptionKind::Sec));

        let summary = conclude("oracle-conclude", &dir);
        assert_eq!(summary.suspects.len(), 2, "deduplicated per cell");
        assert_eq!(summary.exit_code(0), EXIT_SUSPECT);
        assert_eq!(summary.exit_code(4), EXIT_SUSPECT, "dominates quarantine");
        assert!(summary.affects(&["A", "SA"]));
        assert!(summary.affects(&["B", "RF"]));
        assert!(!summary.affects(&["A", "RF"]));
        for s in &summary.suspects {
            let path = s.path.as_ref().expect("repro written");
            assert!(path.exists());
            assert!(s.capture.ops.len() <= s.original_ops);
            let (capture, violation) = replay_file(path).expect("repro loads");
            assert_eq!(capture, s.capture);
            assert_eq!(violation.as_ref(), Some(&capture.violation));
        }
        assert!(
            drain_suspects_with_prefix("oracle-conclude").is_empty(),
            "conclude drained the sink"
        );
        let clean = conclude("oracle-conclude", &dir);
        assert!(clean.is_empty());
        assert_eq!(clean.exit_code(4), 4, "clean oracle keeps the base code");
        let _ = fs::remove_dir_all(&dir);
    }
}
