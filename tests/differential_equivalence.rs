//! Differential equivalence of the SoA fast path and the reference path.
//!
//! The hot-path overhaul (struct-of-arrays entry storage, packed LRU
//! rank words, enum dispatch) must be *behaviorally invisible*: for any
//! operation sequence, a machine built on the new fast path and a
//! machine built with `MachineBuilder::reference_path(true)` — the
//! original array-of-structs entries, timestamp LRU, and `Box<dyn
//! TlbCore>` dispatch — must produce bitwise-identical hit/miss
//! traces, final counters, and TLB contents, with the lockstep shadow
//! oracle clean on both.
//!
//! Proptest drives random sequences (loads, stores, whole-TLB flushes,
//! per-ASID flushes, targeted invalidations, context switches) through
//! both machines on all seven design points: SA, FA (set-associative
//! with one set), SP, RF, the temporal-partitioning FS and FT designs,
//! and the multi-page-size MS design. A dedicated MS sweep additionally
//! maps megapages and gigapages so every entry class fills, evicts, and
//! invalidates on both paths.
//!
//! A last section pins the campaign engine's restore path: a post-setup
//! machine cloned and reseeded with a trial's seed ends every generated
//! Table 4 program exactly as a fresh build with that seed does.

use proptest::prelude::*;
use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::tlb::types::{Asid, SecureRegion, Vpn};
use secure_tlbs::tlb::TlbConfig;

/// One randomized operation; mirrors `differential_invariants.rs` so the
/// two suites explore the same state space.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load { asid_ix: u8, page: u8 },
    Store { asid_ix: u8, page: u8 },
    FlushAll { asid_ix: u8 },
    FlushAsid { asid_ix: u8 },
    FlushPage { asid_ix: u8, page: u8 },
    Switch { asid_ix: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::Load { asid_ix, page }),
        2 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::Store { asid_ix, page }),
        1 => (0u8..2).prop_map(|asid_ix| Op::FlushAll { asid_ix }),
        1 => (0u8..2).prop_map(|asid_ix| Op::FlushAsid { asid_ix }),
        1 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::FlushPage { asid_ix, page }),
        2 => (0u8..2).prop_map(|asid_ix| Op::Switch { asid_ix }),
    ]
}

const BASE: u64 = 0x100;

/// The seven design points of the equivalence sweep: paper name, machine
/// design, and geometry.
fn variants() -> [(&'static str, TlbDesign, TlbConfig); 7] {
    [
        ("SA", TlbDesign::Sa, TlbConfig::sa(32, 8).expect("valid")),
        ("FA", TlbDesign::Sa, TlbConfig::fa(32).expect("valid")),
        ("SP", TlbDesign::Sp, TlbConfig::sa(32, 8).expect("valid")),
        ("RF", TlbDesign::Rf, TlbConfig::sa(32, 8).expect("valid")),
        ("FS", TlbDesign::Fs, TlbConfig::sa(32, 8).expect("valid")),
        ("FT", TlbDesign::Ft, TlbConfig::sa(32, 8).expect("valid")),
        ("MS", TlbDesign::Ms, TlbConfig::sa(32, 8).expect("valid")),
    ]
}

fn build(design: TlbDesign, config: TlbConfig, seed: u64, reference: bool) -> (Machine, [Asid; 2]) {
    let mut machine = MachineBuilder::new()
        .design(design)
        .tlb_config(config)
        .seed(seed)
        .oracle(true)
        .reference_path(reference)
        .build();
    let a = machine.os_mut().create_process();
    let b = machine.os_mut().create_process();
    for asid in [a, b] {
        machine
            .os_mut()
            .map_region(asid, Vpn(BASE), 24)
            .expect("fresh");
    }
    machine
        .protect_victim(a, SecureRegion::new(Vpn(BASE), 3))
        .expect("fresh");
    (machine, [a, b])
}

fn to_instrs(op: Op, asids: &[Asid; 2]) -> Vec<Instr> {
    let asid = asids[match op {
        Op::Load { asid_ix, .. }
        | Op::Store { asid_ix, .. }
        | Op::FlushAll { asid_ix }
        | Op::FlushAsid { asid_ix }
        | Op::FlushPage { asid_ix, .. }
        | Op::Switch { asid_ix } => asid_ix as usize,
    }];
    match op {
        Op::Load { page, .. } => vec![
            Instr::SetAsid(asid),
            Instr::Load(Vpn(BASE + u64::from(page)).base_addr()),
        ],
        Op::Store { page, .. } => vec![
            Instr::SetAsid(asid),
            Instr::Store(Vpn(BASE + u64::from(page)).base_addr()),
        ],
        Op::FlushAll { .. } => vec![Instr::SetAsid(asid), Instr::FlushAll],
        Op::FlushAsid { .. } => vec![Instr::FlushAsid(asid)],
        Op::FlushPage { page, .. } => vec![
            Instr::SetAsid(asid),
            Instr::FlushPage(Vpn(BASE + u64::from(page)).base_addr()),
        ],
        Op::Switch { .. } => vec![Instr::SetAsid(asid)],
    }
}

/// Drives both machines through `ops` in lockstep, comparing the TLB
/// counter trace after every operation (a bitwise hit/miss trace: any
/// divergent access flips `hits`/`misses` at the first divergent op)
/// and the full machine state at the end.
fn assert_equivalent(name: &str, design: TlbDesign, config: TlbConfig, seed: u64, ops: &[Op]) {
    let (mut fast, asids) = build(design, config, seed, false);
    let (mut reference, ref_asids) = build(design, config, seed, true);
    assert_eq!(asids, ref_asids, "process creation must be deterministic");

    for (i, &op) in ops.iter().enumerate() {
        for instr in to_instrs(op, &asids) {
            fast.exec(instr);
            reference.exec(instr);
        }
        assert_eq!(
            fast.tlb_stats(),
            reference.tlb_stats(),
            "[{name}] TLB counter trace diverged at op {i}: {op:?}"
        );
    }

    assert_eq!(
        fast.stats(),
        reference.stats(),
        "[{name}] executor counters diverged"
    );
    assert_eq!(
        fast.tlb().snapshot(),
        reference.tlb().snapshot(),
        "[{name}] final TLB contents diverged"
    );
    for (label, m) in [("fast", &fast), ("reference", &reference)] {
        assert!(
            m.oracle_violations().is_empty(),
            "[{name}] shadow oracle violated on the {label} path: {:?}",
            m.oracle_violations()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: on every design, for any op sequence, the
    /// fast path and the reference path are indistinguishable.
    #[test]
    fn fast_path_is_bitwise_equivalent_to_reference_path(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1000,
    ) {
        for (name, design, config) in variants() {
            assert_equivalent(name, design, config, seed, &ops);
        }
    }

    /// The batched API must match instruction-at-a-time execution on the
    /// reference path too: feed the whole flattened program through
    /// `run_batch` on the fast machine and `exec` on the reference one.
    #[test]
    fn batched_fast_path_matches_stepped_reference_path(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1000,
    ) {
        for (name, design, config) in variants() {
            let (mut fast, asids) = build(design, config, seed, false);
            let (mut reference, _) = build(design, config, seed, true);
            let program: Vec<Instr> =
                ops.iter().flat_map(|&op| to_instrs(op, &asids)).collect();
            fast.run_batch(&program);
            for &instr in &program {
                reference.exec(instr);
            }
            prop_assert_eq!(
                fast.tlb_stats(),
                reference.tlb_stats(),
                "[{}] batched TLB counters diverged", name
            );
            prop_assert_eq!(
                fast.stats(),
                reference.stats(),
                "[{}] batched executor counters diverged", name
            );
            prop_assert_eq!(
                fast.tlb().snapshot(),
                reference.tlb().snapshot(),
                "[{}] batched TLB contents diverged", name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Multi-page-size (MS) large-page equivalence.
//
// The main sweep above only touches 4 KiB pages, which exercises the MS
// base class alone. This section maps megapages and gigapages too, so
// the mega and giga entry classes fill past capacity (forcing per-class
// eviction), take targeted invalidations, and clear on FlushAll — on
// both the fast path and the reference path in lockstep.

use secure_tlbs::tlb::types::PageSize;

/// Megapage slots mapped per ASID (> 16 total entries across two ASIDs,
/// so the 16-entry mega class must evict).
const MEGA_SLOTS: u64 = 10;
/// Gigapage slots mapped per ASID (> 4 total entries, so the 4-entry
/// fully associative giga class must evict).
const GIGA_SLOTS: u64 = 3;

/// One randomized operation over the three page-size classes.
#[derive(Debug, Clone, Copy)]
enum MsOp {
    LoadBase { asid_ix: u8, page: u8 },
    LoadMega { asid_ix: u8, slot: u8, off: u8 },
    LoadGiga { asid_ix: u8, slot: u8, off: u16 },
    FlushAll { asid_ix: u8 },
    FlushMega { asid_ix: u8, slot: u8, off: u8 },
    Switch { asid_ix: u8 },
}

fn ms_op_strategy() -> impl Strategy<Value = MsOp> {
    prop_oneof![
        3 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| MsOp::LoadBase { asid_ix, page }),
        4 => (0u8..2, 0u8..MEGA_SLOTS as u8, any::<u8>())
            .prop_map(|(asid_ix, slot, off)| MsOp::LoadMega { asid_ix, slot, off }),
        3 => (0u8..2, 0u8..GIGA_SLOTS as u8, any::<u16>())
            .prop_map(|(asid_ix, slot, off)| MsOp::LoadGiga { asid_ix, slot, off }),
        1 => (0u8..2).prop_map(|asid_ix| MsOp::FlushAll { asid_ix }),
        1 => (0u8..2, 0u8..MEGA_SLOTS as u8, any::<u8>())
            .prop_map(|(asid_ix, slot, off)| MsOp::FlushMega { asid_ix, slot, off }),
        1 => (0u8..2).prop_map(|asid_ix| MsOp::Switch { asid_ix }),
    ]
}

/// Megapage slot `k` lives at megapage index `k + 2`, clear of the base
/// 4 KiB region at [`BASE`]; gigapage slot `k` lives at gigapage index
/// `k + 1`, clear of gigapage 0 which holds everything else.
fn ms_vpn(op: MsOp) -> Option<Vpn> {
    let mega = PageSize::Mega.span_pages();
    let giga = PageSize::Giga.span_pages();
    match op {
        MsOp::LoadBase { page, .. } => Some(Vpn(BASE + u64::from(page))),
        MsOp::LoadMega { slot, off, .. } | MsOp::FlushMega { slot, off, .. } => {
            Some(Vpn((u64::from(slot) + 2) * mega + u64::from(off) % mega))
        }
        MsOp::LoadGiga { slot, off, .. } => {
            Some(Vpn((u64::from(slot) + 1) * giga + u64::from(off) % giga))
        }
        MsOp::FlushAll { .. } | MsOp::Switch { .. } => None,
    }
}

fn ms_build(seed: u64, reference: bool) -> (Machine, [Asid; 2]) {
    let config = TlbConfig::sa(32, 8).expect("valid");
    let (mut machine, asids) = build(TlbDesign::Ms, config, seed, reference);
    let mega = PageSize::Mega.span_pages();
    let giga = PageSize::Giga.span_pages();
    for asid in asids {
        for slot in 0..MEGA_SLOTS {
            machine
                .os_mut()
                .map_mega_page(asid, Vpn((slot + 2) * mega))
                .expect("fresh megapage");
        }
        for slot in 0..GIGA_SLOTS {
            machine
                .os_mut()
                .map_giga_page(asid, Vpn((slot + 1) * giga))
                .expect("fresh gigapage");
        }
    }
    (machine, asids)
}

fn ms_to_instrs(op: MsOp, asids: &[Asid; 2]) -> Vec<Instr> {
    let asid = asids[match op {
        MsOp::LoadBase { asid_ix, .. }
        | MsOp::LoadMega { asid_ix, .. }
        | MsOp::LoadGiga { asid_ix, .. }
        | MsOp::FlushAll { asid_ix }
        | MsOp::FlushMega { asid_ix, .. }
        | MsOp::Switch { asid_ix } => asid_ix as usize,
    }];
    match (op, ms_vpn(op)) {
        (MsOp::FlushAll { .. }, _) => vec![Instr::SetAsid(asid), Instr::FlushAll],
        (MsOp::Switch { .. }, _) => vec![Instr::SetAsid(asid)],
        (MsOp::FlushMega { .. }, Some(vpn)) => {
            vec![Instr::SetAsid(asid), Instr::FlushPage(vpn.base_addr())]
        }
        (_, Some(vpn)) => vec![Instr::SetAsid(asid), Instr::Load(vpn.base_addr())],
        (_, None) => unreachable!("every remaining op addresses a page"),
    }
}

fn assert_ms_equivalent(seed: u64, ops: &[MsOp]) {
    let (mut fast, asids) = ms_build(seed, false);
    let (mut reference, ref_asids) = ms_build(seed, true);
    assert_eq!(asids, ref_asids, "process creation must be deterministic");
    for (i, &op) in ops.iter().enumerate() {
        for instr in ms_to_instrs(op, &asids) {
            fast.exec(instr);
            reference.exec(instr);
        }
        assert_eq!(
            fast.tlb_stats(),
            reference.tlb_stats(),
            "[MS] TLB counter trace diverged at op {i}: {op:?}"
        );
    }
    assert_eq!(fast.stats(), reference.stats(), "[MS] counters diverged");
    assert_eq!(
        fast.tlb().snapshot(),
        reference.tlb().snapshot(),
        "[MS] final TLB contents diverged"
    );
    for (label, m) in [("fast", &fast), ("reference", &reference)] {
        assert!(
            m.oracle_violations().is_empty(),
            "[MS] shadow oracle violated on the {label} path: {:?}",
            m.oracle_violations()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The MS fast path and reference path agree bitwise while all three
    /// page-size classes fill, evict, invalidate, and flush.
    #[test]
    fn multi_size_large_pages_match_reference_path(
        ops in proptest::collection::vec(ms_op_strategy(), 1..100),
        seed in 0u64..1000,
    ) {
        assert_ms_equivalent(seed, &ops);
    }
}

/// Deterministic MS spot check: hit each class, invalidate a megapage,
/// flush everything, and refill.
#[test]
fn spot_check_multi_size_classes() {
    let ops = [
        MsOp::LoadBase {
            asid_ix: 0,
            page: 3,
        },
        MsOp::LoadMega {
            asid_ix: 0,
            slot: 1,
            off: 7,
        },
        MsOp::LoadGiga {
            asid_ix: 0,
            slot: 0,
            off: 4096,
        },
        MsOp::Switch { asid_ix: 1 },
        MsOp::LoadMega {
            asid_ix: 1,
            slot: 1,
            off: 200,
        },
        MsOp::FlushMega {
            asid_ix: 0,
            slot: 1,
            off: 99,
        },
        MsOp::LoadMega {
            asid_ix: 0,
            slot: 1,
            off: 7,
        },
        MsOp::FlushAll { asid_ix: 0 },
        MsOp::LoadGiga {
            asid_ix: 1,
            slot: 2,
            off: 1,
        },
    ];
    assert_ms_equivalent(77, &ops);
}

/// A deterministic spot check that survives even with proptest filtered
/// out (e.g. `cargo test --test differential_equivalence spot`).
#[test]
fn spot_check_interleaved_asids_and_flushes() {
    let ops = [
        Op::Load {
            asid_ix: 0,
            page: 1,
        },
        Op::Load {
            asid_ix: 1,
            page: 1,
        },
        Op::Store {
            asid_ix: 0,
            page: 9,
        },
        Op::FlushAsid { asid_ix: 0 },
        Op::Load {
            asid_ix: 0,
            page: 1,
        },
        Op::FlushPage {
            asid_ix: 1,
            page: 1,
        },
        Op::FlushAll { asid_ix: 1 },
        Op::Load {
            asid_ix: 1,
            page: 23,
        },
    ];
    for (name, design, config) in variants() {
        assert_equivalent(name, design, config, 1234, &ops);
    }
}

// ---------------------------------------------------------------------
// Restore equivalence.
//
// The campaign engine sets each shard's machine up once and runs every
// unarmed trial on a clone of it, reseeded with the trial's seed
// (`secbench::run`). That is sound only if a restored machine is
// indistinguishable from a fresh build with the trial's seed and the
// same setup. This section pins it on generated Table 4 programs across
// every design, both RF knobs, the reference path, an RF L2 behind an SA
// L1, and an RF I-TLB — and pins that running clones never writes
// through to the template (the walker's auto-map must land in the
// clone's page tables only).

use secure_tlbs::model::{enumerate_vulnerabilities, Vulnerability};
use secure_tlbs::secbench::generate::generate_program;
use secure_tlbs::secbench::spec::{BenchmarkSpec, Placement};
use secure_tlbs::sim::page_table::Pte;
use secure_tlbs::sim::ExecStats;
use secure_tlbs::tlb::check::SnapshotEntry;
use secure_tlbs::tlb::stats::TlbStats;
use secure_tlbs::tlb::{InvalidationPolicy, RandomFillEviction};

/// The victim's secure code region for the I-TLB case; clear of every
/// page the Table 4 specs map.
const CODE_BASE: u64 = 0x4000;

/// One machine configuration under restore.
struct RestoreCase {
    name: String,
    design: TlbDesign,
    knobs: Box<dyn Fn(MachineBuilder) -> MachineBuilder>,
    /// Whether the programs fetch from a secure code region (the I-TLB
    /// case), so the I-TLB's engine draws.
    code_fetch: bool,
    /// Whether the machine owns a Random Fill Engine the programs draw
    /// from, so that skipping the reseed must be visible.
    draws: bool,
}

fn restore_cases() -> Vec<RestoreCase> {
    let mut cases = Vec::new();
    for design in TlbDesign::EXTENDED {
        for reference in [false, true] {
            cases.push(RestoreCase {
                name: format!("{design}{}", if reference { "/ref" } else { "" }),
                design,
                knobs: Box::new(move |b| b.reference_path(reference)),
                code_fetch: false,
                draws: design == TlbDesign::Rf,
            });
        }
    }
    for eviction in [RandomFillEviction::RandomWay, RandomFillEviction::LruWay] {
        for invalidation in [InvalidationPolicy::Precise, InvalidationPolicy::RegionFlush] {
            cases.push(RestoreCase {
                name: format!("RF/{eviction:?}/{invalidation:?}"),
                design: TlbDesign::Rf,
                knobs: Box::new(move |b| b.rf_eviction(eviction).rf_invalidation(invalidation)),
                code_fetch: false,
                draws: true,
            });
        }
    }
    cases.push(RestoreCase {
        name: "SA+RF-L2".to_string(),
        design: TlbDesign::Sa,
        knobs: Box::new(|b| b.l2(TlbDesign::Rf, TlbConfig::sa(64, 8).expect("valid"), 8)),
        code_fetch: false,
        draws: true,
    });
    cases.push(RestoreCase {
        name: "SA+RF-ITLB".to_string(),
        design: TlbDesign::Sa,
        knobs: Box::new(|b| b.itlb(TlbDesign::Rf, TlbConfig::sa(8, 4).expect("valid"))),
        code_fetch: true,
        draws: true,
    });
    cases
}

/// The campaign's per-cell setup (`secbench::run`): victim and attacker,
/// the programmed secure region, the conflict, region and filler pages —
/// plus, for the I-TLB case, the victim's secure code region.
fn set_up(m: &mut Machine, spec: &BenchmarkSpec, code_fetch: bool) {
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    m.protect_victim(victim, spec.region).expect("fresh");
    for asid in [victim, attacker] {
        m.os_mut().map_region(asid, spec.dbase, 64).expect("fresh");
        m.os_mut()
            .map_region(asid, spec.region.base, spec.region.pages)
            .ok();
        m.os_mut().map_page(asid, spec.filler).expect("fresh");
    }
    if code_fetch {
        m.protect_victim_code(victim, SecureRegion::new(Vpn(CODE_BASE), 3))
            .expect("fresh");
    }
}

/// Follows every context switch with a jump into a code page, cycling
/// over the secure code region and one page past it. The attacker's code
/// pages are unmapped, so the walker auto-maps them mid-run.
fn with_code_fetches(program: &[Instr]) -> Vec<Instr> {
    let mut out = Vec::with_capacity(program.len() * 2);
    for (k, &instr) in program.iter().enumerate() {
        out.push(instr);
        if matches!(instr, Instr::SetAsid(_)) {
            out.push(Instr::JumpTo(Vpn(CODE_BASE + k as u64 % 4).base_addr()));
        }
    }
    out
}

/// Everything a trial can observe or leave behind in a machine.
#[derive(Debug, PartialEq)]
struct Image {
    exec: ExecStats,
    tlb: TlbStats,
    snapshot: Vec<SnapshotEntry>,
    itlb: Option<(TlbStats, Vec<SnapshotEntry>)>,
    mappings: Vec<(Asid, Vec<(Vpn, Pte)>)>,
    frames: u64,
    verdicts: Vec<String>,
}

impl Image {
    fn of(m: &Machine) -> Image {
        Image {
            exec: m.stats().clone(),
            tlb: *m.tlb_stats(),
            snapshot: m.tlb().snapshot(),
            itlb: m.itlb().map(|t| (*t.stats(), t.snapshot())),
            mappings: m
                .os()
                .asids()
                .map(|a| (a, m.os().process(a).expect("live").page_table().mappings()))
                .collect(),
            frames: m.os().frames().allocated(),
            verdicts: m
                .oracle_violations()
                .iter()
                .map(|v| v.to_string())
                .collect(),
        }
    }
}

/// Runs `v`'s `placement` program on a fresh build with `seed` and on two
/// clones of a template (built with another seed) reseeded with `seed`,
/// one after the other: all three must end identically, and the template
/// must end as it started.
///
/// Returns whether a third clone that skips the reseed ends differently
/// from the fresh build — the negative control showing the comparison
/// sees the machine's engines.
fn assert_restore_equivalent(
    case: &RestoreCase,
    v: &Vulnerability,
    placement: Placement,
    seed: u64,
) -> bool {
    let name = &case.name;
    let spec = BenchmarkSpec::build_with_config(v, case.design, TlbConfig::security_eval());
    let mut program = generate_program(&spec, placement);
    if case.code_fetch {
        program = with_code_fetches(&program);
    }
    let builder = || {
        (case.knobs)(
            MachineBuilder::new()
                .design(case.design)
                .tlb_config(spec.config)
                .oracle(true),
        )
    };

    let mut fresh = builder().seed(seed).build();
    set_up(&mut fresh, &spec, case.code_fetch);
    fresh.run_batch(&program);
    let expected = Image::of(&fresh);
    assert!(
        expected.verdicts.is_empty(),
        "[{name}] {v} {placement:?}: the oracle flagged the fresh machine: {:?}",
        expected.verdicts
    );

    let mut template = builder().seed(!seed).build();
    set_up(&mut template, &spec, case.code_fetch);
    let pristine = Image::of(&template);
    for round in 0..2 {
        let mut restored = template.clone();
        restored.reseed(seed);
        restored.run_batch(&program);
        assert_eq!(
            Image::of(&restored),
            expected,
            "[{name}] {v} {placement:?} seed {seed:#x}: restored clone {round} diverged \
             from a fresh build"
        );
    }
    let mut unreseeded = template.clone();
    unreseeded.run_batch(&program);
    assert_eq!(
        Image::of(&template),
        pristine,
        "[{name}] {v} {placement:?}: running clones changed the template"
    );
    Image::of(&unreseeded) != expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cloned-and-reseeded template ends every generated Table 4
    /// program exactly as a fresh build with the trial's seed does.
    #[test]
    fn restored_template_matches_a_fresh_build(
        row in 0usize..24,
        mapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let v = enumerate_vulnerabilities()[row];
        let placement = if mapped { Placement::Mapped } else { Placement::NotMapped };
        for case in restore_cases() {
            assert_restore_equivalent(&case, &v, placement, seed);
        }
    }
}

/// Deterministic restore spot check over every row and both placements,
/// with its negative control: on every machine with a Random Fill Engine,
/// a clone that skips the reseed must diverge from the fresh build on
/// some row — and on every other machine it never may, since nothing
/// there consumes the seed.
#[test]
fn spot_check_restore_on_every_table4_row() {
    for case in restore_cases() {
        let mut unreseeded_diverged = 0;
        for (row, v) in enumerate_vulnerabilities().iter().enumerate() {
            for placement in [Placement::Mapped, Placement::NotMapped] {
                let seed = 0x7ab1e4 + row as u64;
                if assert_restore_equivalent(&case, v, placement, seed) {
                    unreseeded_diverged += 1;
                }
            }
        }
        if case.draws {
            assert!(
                unreseeded_diverged > 0,
                "[{}] a clone that skipped the reseed matched the fresh build on every row",
                case.name
            );
        } else {
            assert_eq!(
                unreseeded_diverged, 0,
                "[{}] a machine without a Random Fill Engine depended on the seed",
                case.name
            );
        }
    }
}
