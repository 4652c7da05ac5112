//! The shadow oracle: a reference model run in lockstep with the machine.
//!
//! The TLB designs of this reproduction are *state machines whose outputs
//! the security campaigns trust blindly*: a silently wrong translation or
//! a partition leak would not crash anything — it would quietly corrupt
//! every derived table. The shadow oracle closes that gap. When enabled
//! (the default in debug builds, opt-in via `--oracle` in release
//! campaigns), [`crate::Machine`] checks, on every executed instruction,
//! that the TLB's observable behavior agrees with a pure re-derivation
//! from the page tables and the design's documented semantics:
//!
//! - **Translation** — a non-faulting access returns exactly the PPN the
//!   process's page table maps, and faults only when no mapping exists;
//! - **HitSoundness** — a reported hit was preceded by a resident L1
//!   entry matching `(asid, vpn)`;
//! - **Capacity** — every resident entry sits in the set its tag indexes,
//!   megapage tags are 512-page aligned, and no `(asid, vpn, size)` is
//!   duplicated;
//! - **Partition** — SP entries never cross the victim/attacker way split;
//! - **SecBit** — the *Sec* bit agrees with the programmed secure region
//!   (and is never set on SA/SP);
//! - **NoFill** — an RF miss inside the secure region is answered through
//!   the no-fill buffer;
//! - **FlushCompleteness** — flush instructions remove everything they
//!   promise to remove;
//! - **Provenance** — operations that must not touch the TLB leave its
//!   contents bit-identical;
//! - **ClassIsolation** — the MS design keeps every entry in the entry
//!   class matching its page size;
//! - **ClearCompleteness** — the temporal designs (`FS`, `FT`) leave no
//!   entry behind after a context switch, and `FT` additionally leaves
//!   no replacement residue;
//! - **ReplacementOrder** — every fill replaces the way true LRU
//!   predicts: the lowest invalid way of its candidate range, else the
//!   range's least recently used way (see `replacement_order`).
//!
//! A violation never panics. It is recorded as a structured
//! [`OracleViolation`], and — when the machine was given a reporting
//! context by a campaign driver — the full machine configuration, address-
//! space image, and operation trace are captured as a [`TraceCapture`] and
//! submitted to a process-wide sink, from which `secbench` drains them,
//! shrinks the trace to a minimal reproduction, and writes `repro/*.ron`
//! files that [`replay`] re-executes deterministically.
//!
//! # Replay determinism
//!
//! [`TraceCapture`] does not store physical frame numbers; it relies on
//! the simulator's bump [`crate::FrameAllocator`]: every `map` call
//! allocates the mapping's data frame *before* any intermediate
//! page-table-node frames, so data PPNs strictly increase in map-call
//! order. Dumping all leaf mappings at violation time sorted by PPN
//! therefore recovers the chronological map order, and replaying those
//! maps (after creating the same number of processes) reproduces the
//! identical frame assignment. Pre-mapping everything also makes the
//! walker's auto-map a no-op during replay, which is what lets the
//! shrinker drop operations without perturbing any translation. The one
//! construct that would break this — unmapping a page mid-run — is not
//! used by any campaign driver and is not supported in captures.

use std::ops::Range;
use std::sync::Mutex;

use sectlb_tlb::check::{CorruptionKind, SnapshotEntry};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{Asid, PageSize, SecureRegion, Vpn};
use sectlb_tlb::{InvalidationPolicy, RandomFillEviction};

use crate::cpu::Instr;
use crate::machine::{Machine, MachineBuilder, TlbDesign};
use crate::os::FlushPolicy;
use crate::walker::WalkerConfig;

/// The invariants the shadow oracle checks on every executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Returned PPNs agree with a pure page-table walk; faults occur
    /// exactly when no mapping exists.
    Translation,
    /// A reported hit was backed by a resident matching L1 entry.
    HitSoundness,
    /// Set indexing, megapage alignment, and duplicate freedom.
    Capacity,
    /// SP entries stay on their side of the victim/attacker way split.
    Partition,
    /// The *Sec* bit agrees with the programmed secure region.
    SecBit,
    /// RF secure-region misses are answered through the no-fill buffer.
    NoFill,
    /// Flushes remove everything they promise to remove.
    FlushCompleteness,
    /// Operations that must not touch the TLB leave it bit-identical.
    Provenance,
    /// MS entries live in the entry class matching their page size.
    ClassIsolation,
    /// Temporal-partitioning designs leave no entries behind after a
    /// context switch (`FT` additionally no replacement residue).
    ClearCompleteness,
    /// Every fill replaces the lowest invalid way of its candidate range,
    /// or else the range's least recently used way.
    ReplacementOrder,
}

impl Invariant {
    /// All checked invariants, in documentation order.
    pub const ALL: [Invariant; 11] = [
        Invariant::Translation,
        Invariant::HitSoundness,
        Invariant::Capacity,
        Invariant::Partition,
        Invariant::SecBit,
        Invariant::NoFill,
        Invariant::FlushCompleteness,
        Invariant::Provenance,
        Invariant::ClassIsolation,
        Invariant::ClearCompleteness,
        Invariant::ReplacementOrder,
    ];

    /// Stable machine-readable name (used in repro files).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Translation => "translation",
            Invariant::HitSoundness => "hit-soundness",
            Invariant::Capacity => "capacity",
            Invariant::Partition => "partition",
            Invariant::SecBit => "sec-bit",
            Invariant::NoFill => "no-fill",
            Invariant::FlushCompleteness => "flush-completeness",
            Invariant::Provenance => "provenance",
            Invariant::ClassIsolation => "class-isolation",
            Invariant::ClearCompleteness => "clear-completeness",
            Invariant::ReplacementOrder => "replacement-order",
        }
    }

    /// Parses [`Invariant::name`] output back.
    pub fn from_name(name: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.name() == name)
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured report of one oracle check failing: which design, at
/// which point of the trace, which invariant, and the expected-vs-actual
/// evidence. Never a panic — campaign drivers render these as SUSPECT
/// cells and keep running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Short name of the L1 D-TLB design under check (`SA`, `SP`, `RF`,
    /// `FS`, `FT` or `MS`).
    pub design: String,
    /// Index into the machine's recorded [`TraceOp`] sequence at which
    /// the check failed.
    pub op_index: usize,
    /// The violated invariant.
    pub invariant: Invariant,
    /// What the reference model required.
    pub expected: String,
    /// What the TLB actually did.
    pub actual: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] op {}: {} invariant violated — expected {}; actual: {}",
            self.design, self.op_index, self.invariant, self.expected, self.actual
        )
    }
}

/// One step of a machine's recorded operation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// An executed instruction.
    Exec(Instr),
    /// A deterministic fault injection: corrupt one resident TLB entry.
    Corrupt {
        /// Selects which eligible entry is corrupted (modulo their count).
        selector: u64,
        /// Which field of the entry is flipped.
        kind: CorruptionKind,
    },
}

/// A corruption scheduled to fire once at least `op_index` instructions
/// have executed (retrying on later instructions while the TLB is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCorruption {
    /// Executed-instruction count at which to attempt the corruption.
    pub op_index: u64,
    /// Selects which eligible entry is corrupted (modulo their count).
    pub selector: u64,
    /// Which field of the entry is flipped.
    pub kind: CorruptionKind,
}

/// Everything [`MachineBuilder`] was told, captured so a machine can be
/// rebuilt identically during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSetup {
    /// The L1 D-TLB design.
    pub design: TlbDesign,
    /// L1 D-TLB total entries.
    pub entries: usize,
    /// L1 D-TLB ways per set.
    pub ways: usize,
    /// RFE seed.
    pub seed: u64,
    /// Context-switch TLB policy.
    pub flush_policy: FlushPolicy,
    /// Fixed context-switch cost in cycles.
    pub switch_cost: u64,
    /// Page-table walker cycles per level.
    pub cycles_per_level: u64,
    /// RF random-fill eviction policy.
    pub rf_eviction: RandomFillEviction,
    /// RF secure-page invalidation policy.
    pub rf_invalidation: InvalidationPolicy,
    /// SP victim-partition way override.
    pub sp_victim_ways: Option<usize>,
    /// L2 TLB as `(design, entries, ways, latency)`, if configured.
    pub l2: Option<(TlbDesign, usize, usize, u64)>,
    /// I-TLB as `(design, entries, ways)`, if configured.
    pub itlb: Option<(TlbDesign, usize, usize)>,
}

/// A self-contained, replayable image of a machine run that ended in an
/// oracle violation: the builder configuration, the address-space image
/// (in frame-allocation order — see the module docs on determinism), the
/// protection calls, the operation trace, and the violation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCapture {
    /// The machine configuration.
    pub setup: MachineSetup,
    /// Number of processes to create (ASIDs are assigned 1..=processes).
    pub processes: u16,
    /// Every leaf mapping of every process, sorted by physical frame
    /// number — i.e. in the original allocation order.
    pub maps: Vec<(Asid, Vpn, PageSize)>,
    /// `protect_victim` / `protect_victim_code` calls, in order; the
    /// `bool` marks a code (I-TLB) protection.
    pub protects: Vec<(Asid, SecureRegion, bool)>,
    /// The recorded operation trace up to and including the violating op.
    pub ops: Vec<TraceOp>,
    /// The violation this capture reproduces.
    pub violation: OracleViolation,
}

/// A capture tagged with the campaign context ("driver|cell|…") that
/// produced it, as drained from the process-wide suspect sink.
#[derive(Debug, Clone)]
pub struct SuspectReport {
    /// The reporting context the driver installed via
    /// [`Machine::set_oracle_context`].
    pub context: String,
    /// The replayable capture.
    pub capture: TraceCapture,
}

/// The per-machine oracle state (the machine holds one when the oracle is
/// enabled). The checking logic lives in `machine.rs`, next to the state
/// it inspects.
#[derive(Debug, Clone)]
pub(crate) struct Oracle {
    pub(crate) setup: MachineSetup,
    pub(crate) context: Option<String>,
    pub(crate) ops: Vec<TraceOp>,
    pub(crate) exec_count: u64,
    pub(crate) planned: Option<PlannedCorruption>,
    pub(crate) protects: Vec<(Asid, SecureRegion, bool)>,
    pub(crate) violations: Vec<OracleViolation>,
    pub(crate) tainted: bool,
    pub(crate) recency: Recency,
}

impl Oracle {
    pub(crate) fn new(setup: MachineSetup) -> Oracle {
        Oracle {
            setup,
            context: None,
            ops: Vec::new(),
            exec_count: 0,
            planned: None,
            protects: Vec::new(),
            violations: Vec::new(),
            tainted: false,
            recency: Recency::default(),
        }
    }
}

/// Where a resident entry sits, in snapshot coordinates:
/// `(level, set, way)`. Snapshots are sorted by it.
type Slot = (usize, usize, usize);

fn slot(s: &SnapshotEntry) -> Slot {
    (s.level, s.set, s.way)
}

/// The oracle's recency model for the `replacement-order` invariant: a
/// last-touch stamp for every resident entry of the checked levels,
/// updated only from what the oracle observes anyway — the snapshots
/// around each instruction and whether an access hit.
///
/// The checked levels are the snapshot levels `0..levels`: the L1 of
/// every design, plus the 2 MiB and 1 GiB classes of an MS machine
/// without an L2 (behind an L2 those class levels collide with the
/// L2's). The I-TLB is not snapshotted, so it is not checked.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recency {
    /// `(slot, stamp)` for every resident entry of the checked levels,
    /// sorted by slot.
    stamps: Vec<(Slot, u64)>,
    clock: u64,
    /// Set when an access changed recency in a way the snapshots cannot
    /// show; cleared when the checked levels are next empty.
    lost: bool,
}

impl Recency {
    /// Whether the model still describes the TLB's replacement state.
    pub(crate) fn tracking(&self) -> bool {
        !self.lost
    }

    fn stamp(&self, at: Slot) -> Option<u64> {
        let i = self.stamps.binary_search_by_key(&at, |&(s, _)| s).ok()?;
        Some(self.stamps[i].1)
    }

    /// Updates the stamps for one instruction, given the snapshots taken
    /// before and after it, the request of an access that hit, and
    /// whether the instruction made an RF random fill.
    ///
    /// - A hit touches the entry a lookup finds first: the smallest page
    ///   size, then the lowest way (see [`lookup_slot`]).
    /// - A fill touches every entry of the checked levels that `post`
    ///   holds and `pre` did not.
    /// - A stamp is dropped when its entry leaves.
    /// - A random fill that added no entry refreshed one already
    ///   resident. The snapshot shows no change, so the model cannot
    ///   tell which entry became most recently used, and it stops
    ///   tracking until the checked levels are next empty.
    pub(crate) fn observe(
        &mut self,
        pre: &[SnapshotEntry],
        post: &[SnapshotEntry],
        hit: Option<(Asid, Vpn)>,
        random_fill: bool,
        levels: usize,
    ) {
        let touched = hit.and_then(|(asid, vpn)| lookup_slot(pre, asid, vpn, levels));
        let mut filled = added(pre, post, levels).map(slot).peekable();
        if random_fill && filled.peek().is_none() {
            self.lost = true;
        }
        let mut stamps = Vec::with_capacity(post.len());
        for at in post.iter().filter(|s| s.level < levels).map(slot) {
            let stamp = if filled.next_if_eq(&at).is_some() || touched == Some(at) {
                self.clock += 1;
                Some(self.clock)
            } else {
                self.stamp(at)
            };
            stamps.extend(stamp.map(|stamp| (at, stamp)));
        }
        if stamps.is_empty() {
            self.lost = false;
        }
        self.stamps = stamps;
    }
}

/// The entries `post` holds at levels below `levels` that `pre` does not
/// hold in the same slot: the fills between the two snapshots.
fn added<'a>(
    pre: &'a [SnapshotEntry],
    post: &'a [SnapshotEntry],
    levels: usize,
) -> impl Iterator<Item = &'a SnapshotEntry> {
    let mut i = 0;
    post.iter().filter(move |s| {
        while i < pre.len() && slot(&pre[i]) < slot(s) {
            i += 1;
        }
        s.level < levels && pre.get(i) != Some(*s)
    })
}

/// The slot a lookup of `(asid, vpn)` finds among the checked levels:
/// every design probes the smallest page size first, and within a size
/// its one candidate set from the lowest way up.
fn lookup_slot(snapshot: &[SnapshotEntry], asid: Asid, vpn: Vpn, levels: usize) -> Option<Slot> {
    snapshot
        .iter()
        .filter(|s| s.level < levels && s.entry.matches(asid, vpn))
        .min_by_key(|s| (s.entry.size.span_shift(), s.way))
        .map(slot)
}

/// The way true LRU replaces in `(level, set)` among `ways`, given the
/// resident entries `pre` and their `recency` stamps: the lowest way
/// `pre` shows invalid, else the way with the oldest stamp, with why.
/// `None` when a way of a full range has no stamp.
fn lru_victim(
    pre: &[SnapshotEntry],
    recency: &Recency,
    (level, set): (usize, usize),
    ways: Range<usize>,
) -> Option<(usize, &'static str)> {
    let start = pre.partition_point(|e| slot(e) < (level, set, ways.start));
    let mut invalid = ways.start;
    for e in &pre[start..] {
        if slot(e) != (level, set, invalid) || invalid == ways.end {
            break;
        }
        invalid += 1;
    }
    if invalid < ways.end {
        return Some((invalid, "lowest invalid"));
    }
    let stamps: Option<Vec<u64>> = ways
        .clone()
        .map(|w| recency.stamp((level, set, w)))
        .collect();
    let oldest = stamps?.iter().enumerate().min_by_key(|&(_, s)| *s)?.0;
    Some((ways.start + oldest, "least recently used"))
}

/// The `replacement-order` check of one access, as a pure function of
/// the snapshots before and after it, the recency stamps before it, and
/// the candidate way range of each checked level (`candidates[level]`;
/// levels past its end are not checked).
///
/// Every entry `post` holds at a checked level that `pre` did not was
/// filled into some way of its set. That way must be the lowest way of
/// the level's candidate range that `pre` shows invalid, or, when the
/// range is full, the way with the oldest stamp. A full range holding a
/// way without a stamp is not judged. Returns the expected and actual
/// evidence of the first wrong victim.
pub(crate) fn replacement_order(
    pre: &[SnapshotEntry],
    post: &[SnapshotEntry],
    recency: &Recency,
    candidates: &[Range<usize>],
) -> Option<(String, String)> {
    added(pre, post, candidates.len()).find_map(|fill| {
        let (level, set) = (fill.level, fill.set);
        let ways = candidates[level].clone();
        let (way, why) = lru_victim(pre, recency, (level, set), ways.clone())?;
        (way != fill.way).then(|| {
            (
                format!(
                    "the fill of ({}, {}) at level {level} set {set} to replace way {way}, \
                     the {why} of ways {}..{}",
                    fill.entry.asid, fill.entry.vpn, ways.start, ways.end
                ),
                format!("it replaced way {}", fill.way),
            )
        })
    })
}

/// Process-wide sink of suspect reports. Campaign trials run on worker
/// threads whose return types cannot carry captures without breaking the
/// bitwise-deterministic result contract; the sink lets any machine
/// submit and the driver drain afterwards, keyed by context prefix.
static SINK: Mutex<Vec<SuspectReport>> = Mutex::new(Vec::new());

/// Keeps the first report per context with its trailing `|seed` field
/// dropped — one per campaign cell and placement. A campaign that
/// corrupts thousands of trials keeps memory bounded by its cell count,
/// and no cell's report is ever crowded out by another's.
pub(crate) fn submit_suspect(report: SuspectReport) {
    fn cell(context: &str) -> &str {
        context.rsplit_once('|').map_or(context, |(cell, _)| cell)
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if !sink
        .iter()
        .any(|r| cell(&r.context) == cell(&report.context))
    {
        sink.push(report);
    }
}

/// Removes and returns every sunk report whose context starts with
/// `prefix` (drivers pass their own name so concurrent tests do not steal
/// each other's reports). Order of submission is preserved.
pub fn drain_suspects_with_prefix(prefix: &str) -> Vec<SuspectReport> {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    let mut i = 0;
    while i < sink.len() {
        if sink[i].context.starts_with(prefix) {
            out.push(sink.remove(i));
        } else {
            i += 1;
        }
    }
    out
}

fn build_from_setup(setup: &MachineSetup) -> Option<Machine> {
    let config = TlbConfig::sa(setup.entries, setup.ways).ok()?;
    let mut b = MachineBuilder::new()
        .design(setup.design)
        .tlb_config(config)
        .seed(setup.seed)
        .flush_policy(setup.flush_policy)
        .switch_cost(setup.switch_cost)
        .walker(WalkerConfig {
            cycles_per_level: setup.cycles_per_level,
        })
        .rf_eviction(setup.rf_eviction)
        .rf_invalidation(setup.rf_invalidation)
        .oracle(true);
    if let Some(w) = setup.sp_victim_ways {
        b = b.sp_victim_ways(w);
    }
    if let Some((design, entries, ways, latency)) = setup.l2 {
        b = b.l2(design, TlbConfig::sa(entries, ways).ok()?, latency);
    }
    if let Some((design, entries, ways)) = setup.itlb {
        b = b.itlb(design, TlbConfig::sa(entries, ways).ok()?);
    }
    Some(b.build())
}

/// Deterministically re-executes a capture with the oracle forced on and
/// returns the first violation it reproduces (`None` when the capture no
/// longer violates anything — e.g. after the shrinker dropped a
/// load-bearing op, or when the setup is not buildable).
pub fn replay(capture: &TraceCapture) -> Option<OracleViolation> {
    let mut m = build_from_setup(&capture.setup)?;
    for _ in 0..capture.processes {
        m.os_mut().create_process();
    }
    for &(asid, vpn, size) in &capture.maps {
        match size {
            PageSize::Base => m.os_mut().map_page(asid, vpn).ok()?,
            PageSize::Mega => m.os_mut().map_mega_page(asid, vpn).ok()?,
            PageSize::Giga => m.os_mut().map_giga_page(asid, vpn).ok()?,
        }
    }
    for &(asid, region, is_code) in &capture.protects {
        if is_code {
            m.protect_victim_code(asid, region).ok()?;
        } else {
            m.protect_victim(asid, region).ok()?;
        }
    }
    for op in &capture.ops {
        match *op {
            TraceOp::Exec(instr) => m.exec(instr),
            TraceOp::Corrupt { selector, kind } => {
                m.inject_corruption_now(selector, kind);
            }
        }
        if let Some(v) = m.oracle_violations().first() {
            return Some(v.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_tlb::types::Ppn;

    fn driven_machine(design: TlbDesign) -> Machine {
        let mut m = MachineBuilder::new().design(design).oracle(true).build();
        let v = m.os_mut().create_process();
        let a = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .expect("victim exists");
        m.os_mut().map_region(v, Vpn(0x10), 8).expect("mappable");
        m.os_mut().map_region(a, Vpn(0x10), 8).expect("mappable");
        m
    }

    fn mixed_program(v: Asid, a: Asid) -> Vec<Instr> {
        let mut p = vec![Instr::SetAsid(v)];
        for i in 0..8u64 {
            p.push(Instr::Load((0x10 + i) << 12));
            p.push(Instr::Load(0x100_000 + (i % 3) * 0x1000));
        }
        p.push(Instr::FlushPage(0x12_000));
        p.push(Instr::SetAsid(a));
        for i in 0..8u64 {
            p.push(Instr::Store((0x10 + i) << 12));
        }
        p.push(Instr::FlushAsid(a));
        p.push(Instr::SetAsid(v));
        p.push(Instr::ReadMissCounter);
        p.push(Instr::FlushAll);
        p
    }

    #[test]
    fn clean_runs_raise_no_violations_on_any_design() {
        for design in TlbDesign::EXTENDED {
            let mut m = driven_machine(design);
            let program = mixed_program(Asid(1), Asid(2));
            m.run(&program);
            assert_eq!(
                m.oracle_violations(),
                &[],
                "{design} flagged a legitimate run"
            );
        }
    }

    #[test]
    fn ms_corruption_replays_across_page_size_classes() {
        // Exercises the multi-size machine under the oracle with all
        // three page sizes mapped, and the capture/replay path's mega and
        // giga arms.
        let giga_base = sectlb_tlb::types::PageSize::Giga.span_pages();
        for selector in [0u64, 3, 11] {
            let mut m = MachineBuilder::new()
                .design(TlbDesign::Ms)
                .oracle(true)
                .build();
            let p = m.os_mut().create_process();
            m.os_mut().map_region(p, Vpn(0x10), 4).expect("mappable");
            m.os_mut().map_mega_page(p, Vpn(0x1000)).expect("mappable");
            m.os_mut()
                .map_giga_page(p, Vpn(giga_base))
                .expect("mappable");
            m.set_oracle_context(format!("shadow-ms-{selector}|cell"));
            m.run(&[
                Instr::SetAsid(p),
                Instr::Load(0x10_000),
                Instr::Load(0x1000 << 12),
                Instr::Load(giga_base << 12),
            ]);
            assert_eq!(m.oracle_violations(), &[], "clean multi-size run");
            assert!(m.inject_corruption_now(selector, CorruptionKind::Ppn));
            let reports = drain_suspects_with_prefix(&format!("shadow-ms-{selector}"));
            assert_eq!(reports.len(), 1, "selector {selector}");
            let capture = &reports[0].capture;
            assert_eq!(replay(capture), Some(capture.violation.clone()));
        }
    }

    #[test]
    fn temporal_designs_clear_on_switch_under_oracle() {
        // A real switch on FS/FT empties the TLB and satisfies the
        // ClearCompleteness check.
        for design in [TlbDesign::Fs, TlbDesign::Ft] {
            let mut m = driven_machine(design);
            m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x10_000)]);
            assert!(m.tlb().probe(Asid(1), Vpn(0x10)));
            m.exec(Instr::SetAsid(Asid(2)));
            assert_eq!(m.oracle_violations(), &[], "{design}: clean switch");
            assert!(
                !m.tlb().probe(Asid(1), Vpn(0x10)),
                "{design}: the switch cleared the entry"
            );
        }
    }

    #[test]
    fn corruption_is_detected_and_replayable() {
        for kind in CorruptionKind::ALL {
            let mut m = driven_machine(TlbDesign::Sa);
            m.set_oracle_context(format!("shadow-test-{kind}|cell"));
            m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x10_000)]);
            assert!(m.inject_corruption_now(7, kind), "entry was resident");
            let violations = m.oracle_violations();
            assert_eq!(violations.len(), 1, "kind {kind}: {violations:?}");
            let reports = drain_suspects_with_prefix(&format!("shadow-test-{kind}"));
            assert_eq!(reports.len(), 1);
            let capture = &reports[0].capture;
            assert!(matches!(capture.ops.last(), Some(TraceOp::Corrupt { .. })));
            let replayed = replay(capture).expect("replay reproduces");
            assert_eq!(replayed, capture.violation, "kind {kind}");
        }
    }

    #[test]
    fn corruption_on_empty_tlb_reports_nothing() {
        let mut m = driven_machine(TlbDesign::Sa);
        assert!(!m.inject_corruption_now(0, CorruptionKind::Ppn));
        assert_eq!(m.oracle_violations(), &[]);
    }

    #[test]
    fn scheduled_corruption_fires_at_the_requested_op() {
        let mut m = driven_machine(TlbDesign::Rf);
        m.set_oracle_context("shadow-sched|cell");
        assert!(m.schedule_corruption(3, 11, CorruptionKind::Ppn));
        let program = mixed_program(Asid(1), Asid(2));
        m.run(&program);
        assert_eq!(m.oracle_violations().len(), 1);
        let reports = drain_suspects_with_prefix("shadow-sched");
        assert_eq!(reports.len(), 1);
        let capture = &reports[0].capture;
        let corrupt_at = capture
            .ops
            .iter()
            .position(|op| matches!(op, TraceOp::Corrupt { .. }))
            .expect("trace records the injection");
        assert!(corrupt_at >= 3, "fires only once 3 instructions ran");
        assert_eq!(replay(capture), Some(capture.violation.clone()));
    }

    #[test]
    fn direct_register_fiddling_taints_the_oracle() {
        let mut m = driven_machine(TlbDesign::Rf);
        m.set_oracle_context("shadow-taint|cell");
        m.tlb_mut().set_victim_asid(Some(Asid(9)));
        m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x100_000)]);
        assert!(!m.inject_corruption_now(0, CorruptionKind::Ppn));
        assert_eq!(m.oracle_violations(), &[]);
        assert!(drain_suspects_with_prefix("shadow-taint").is_empty());
    }

    #[test]
    fn replay_is_deterministic_about_frame_assignment() {
        // The determinism contract the whole repro pipeline rests on: the
        // capture records no PPNs, yet replay must regenerate the same
        // address-space image. Compare a run's page tables against its
        // replayed capture via a corruption-triggered capture.
        let mut m = driven_machine(TlbDesign::Sa);
        m.set_oracle_context("shadow-frames|cell");
        let mut program = mixed_program(Asid(1), Asid(2));
        program.pop(); // keep the trailing FlushAll from emptying the TLB
        m.run(&program);
        assert!(m.inject_corruption_now(0, CorruptionKind::Ppn));
        let reports = drain_suspects_with_prefix("shadow-frames");
        let capture = &reports[0].capture;
        // Replaying twice yields the identical violation (including the
        // PPNs embedded in its expected/actual strings).
        assert_eq!(replay(capture), replay(capture));
        assert_eq!(replay(capture), Some(capture.violation.clone()));
    }

    #[test]
    fn hierarchy_and_itlb_machines_stay_clean_under_oracle() {
        let mut m = MachineBuilder::new()
            .design(TlbDesign::Rf)
            .l2(TlbDesign::Sa, TlbConfig::sa(64, 4).expect("valid"), 8)
            .itlb(TlbDesign::Sa, TlbConfig::sa(8, 4).expect("valid"))
            .oracle(true)
            .build();
        let v = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .expect("victim exists");
        m.os_mut().map_region(v, Vpn(0x10), 4).expect("mappable");
        m.os_mut().map_region(v, Vpn(0x500), 2).expect("mappable");
        m.run(&[Instr::SetAsid(v), Instr::JumpTo(0x500_000)]);
        for i in 0..6u64 {
            m.exec(Instr::Load((0x10 + (i % 4)) << 12));
            m.exec(Instr::Load(0x100_000 + (i % 3) * 0x1000));
        }
        m.run(&[Instr::FlushAll]);
        assert_eq!(m.oracle_violations(), &[]);
    }

    /// A valid base-page entry of ASID 1 at `(0, 0, way)`.
    fn at(way: usize, vpn: u64) -> SnapshotEntry {
        SnapshotEntry {
            level: 0,
            set: 0,
            way,
            entry: sectlb_tlb::types::TlbEntry {
                valid: true,
                vpn: Vpn(vpn),
                ppn: Ppn(vpn + 1),
                asid: Asid(1),
                sec: false,
                size: PageSize::Base,
            },
        }
    }

    /// [`replacement_order`] on level 0 alone, with candidate `ways`.
    fn order(
        pre: &[SnapshotEntry],
        post: &[SnapshotEntry],
        recency: &Recency,
        ways: Range<usize>,
    ) -> Option<(String, String)> {
        replacement_order(pre, post, recency, std::slice::from_ref(&ways))
    }

    /// Set 0 after filling `order`'s ways one by one, each fill observed
    /// by a fresh recency model.
    fn filled(order: &[usize]) -> (Recency, Vec<SnapshotEntry>) {
        let mut recency = Recency::default();
        let mut snapshot = Vec::new();
        for &way in order {
            let next = replaced(&snapshot, way, 0x100 + way as u64);
            recency.observe(&snapshot, &next, None, false, 1);
            snapshot = next;
        }
        (recency, snapshot)
    }

    /// `snapshot` with way `way` of set 0 now holding page `vpn`.
    fn replaced(snapshot: &[SnapshotEntry], way: usize, vpn: u64) -> Vec<SnapshotEntry> {
        let mut next: Vec<SnapshotEntry> =
            snapshot.iter().filter(|s| s.way != way).copied().collect();
        next.push(at(way, vpn));
        next.sort_by_key(|s| (s.level, s.set, s.way));
        next
    }

    #[test]
    fn replacement_order_accepts_the_lru_victim() {
        let (mut recency, full) = filled(&[0, 1, 2, 3]);
        // A hit on way 0 leaves way 1 least recently used.
        recency.observe(&full, &full, Some((Asid(1), Vpn(0x100))), false, 1);
        let post = replaced(&full, 1, 0x900);
        assert_eq!(order(&full, &post, &recency, 0..4), None);
        // Filling a free way is clean too.
        let (recency, partial) = filled(&[0, 1]);
        let post = replaced(&partial, 2, 0x900);
        assert_eq!(order(&partial, &post, &recency, 0..4), None);
    }

    #[test]
    fn replacement_order_flags_evicting_the_most_recently_used_way() {
        let (mut recency, full) = filled(&[0, 1, 2, 3]);
        recency.observe(&full, &full, Some((Asid(1), Vpn(0x100))), false, 1);
        let post = replaced(&full, 0, 0x900);
        let (expected, actual) = order(&full, &post, &recency, 0..4).expect("MRU evicted");
        assert!(expected.contains("replace way 1"), "{expected}");
        assert!(expected.contains("least recently used"), "{expected}");
        assert_eq!(actual, "it replaced way 0");
    }

    #[test]
    fn replacement_order_flags_evicting_a_valid_way_while_one_is_free() {
        let (recency, partial) = filled(&[0, 1, 2]);
        let post = replaced(&partial, 0, 0x900);
        let (expected, actual) = order(&partial, &post, &recency, 0..4).expect("valid way evicted");
        assert!(expected.contains("replace way 3"), "{expected}");
        assert!(expected.contains("lowest invalid"), "{expected}");
        assert_eq!(actual, "it replaced way 0");
    }

    #[test]
    fn replacement_order_flags_an_sp_fill_outside_its_partition_lru() {
        // Way 0 is the whole set's LRU way; within the attacker
        // partition (ways 4..8) way 4 is.
        let (recency, full) = filled(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let attacker = 4..8;
        let post = replaced(&full, 4, 0x900);
        assert_eq!(order(&full, &post, &recency, attacker.clone()), None);
        for wrong in [0, 5] {
            let post = replaced(&full, wrong, 0x900);
            let (expected, actual) = order(&full, &post, &recency, attacker.clone())
                .expect("not the partition's LRU way");
            assert!(expected.contains("replace way 4"), "{expected}");
            assert!(expected.contains("ways 4..8"), "{expected}");
            assert_eq!(actual, format!("it replaced way {wrong}"));
        }
        // The same fill is clean when the whole set is the range.
        let post = replaced(&full, 0, 0x900);
        assert_eq!(order(&full, &post, &recency, 0..8), None);
    }

    #[test]
    fn a_flood_of_suspects_from_one_cell_never_hides_another() {
        let mut m = driven_machine(TlbDesign::Sa);
        m.set_oracle_context("shadow-flood-capture".to_owned());
        m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x10_000)]);
        assert!(m.inject_corruption_now(0, CorruptionKind::Ppn));
        let capture = drain_suspects_with_prefix("shadow-flood-capture")
            .remove(0)
            .capture;
        // More reports from one cell than any fixed cap would hold, one
        // per trial seed, then a single report from a second cell.
        for seed in 0..300u64 {
            submit_suspect(SuspectReport {
                context: format!("shadow-flood|A|SA|Mapped|{seed:#x}"),
                capture: capture.clone(),
            });
        }
        submit_suspect(SuspectReport {
            context: "shadow-flood|B|SA|Mapped|0x7".to_owned(),
            capture,
        });
        let drained = drain_suspects_with_prefix("shadow-flood|");
        let contexts: Vec<&str> = drained.iter().map(|r| r.context.as_str()).collect();
        assert_eq!(
            contexts,
            [
                "shadow-flood|A|SA|Mapped|0x0",
                "shadow-flood|B|SA|Mapped|0x7"
            ],
            "the first report of each cell, in submission order"
        );
    }

    #[test]
    fn invariant_names_roundtrip() {
        for i in Invariant::ALL {
            assert_eq!(Invariant::from_name(i.name()), Some(i));
        }
        assert_eq!(
            Invariant::from_name("replacement-order"),
            Some(Invariant::ReplacementOrder)
        );
        assert_eq!(Invariant::from_name("nonsense"), None);
    }

    #[test]
    fn violation_display_is_structured() {
        let v = OracleViolation {
            design: "SA".into(),
            op_index: 4,
            invariant: Invariant::Translation,
            expected: "ppn:0x5".into(),
            actual: "ppn:0x6".into(),
        };
        let s = v.to_string();
        assert!(s.contains("[SA] op 4"), "{s}");
        assert!(s.contains("translation"), "{s}");
        let _ = Ppn(0); // keep the import exercised alongside Display
    }
}
