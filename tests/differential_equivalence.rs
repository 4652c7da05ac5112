//! Restore equivalence: a restored machine is a fresh one.
//!
//! The campaign engine sets each shard's machine up once and runs every
//! unarmed trial on a clone of it, reseeded with the trial's seed
//! (`secbench::run`). That is sound only if a restored machine is
//! indistinguishable from a fresh build with the trial's seed and the
//! same setup. This suite pins it on generated Table 4 programs across
//! every design, both RF knobs, an RF L2 behind an SA L1, and an RF
//! I-TLB — and pins that running clones never writes through to the
//! template (the walker's auto-map must land in the clone's page tables
//! only).

use proptest::prelude::*;
use secure_tlbs::model::{enumerate_vulnerabilities, Vulnerability};
use secure_tlbs::secbench::generate::generate_program;
use secure_tlbs::secbench::spec::{BenchmarkSpec, Placement};
use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::sim::page_table::Pte;
use secure_tlbs::sim::ExecStats;
use secure_tlbs::tlb::check::SnapshotEntry;
use secure_tlbs::tlb::stats::TlbStats;
use secure_tlbs::tlb::types::{Asid, SecureRegion, Vpn};
use secure_tlbs::tlb::TlbConfig;
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
        cases.push(RestoreCase {
            name: design.to_string(),
            design,
            knobs: Box::new(|b| b),
            code_fetch: false,
            draws: design == TlbDesign::Rf,
        });
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
