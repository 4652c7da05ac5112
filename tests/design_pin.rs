//! Every TLB design, pinned through the builder.
//!
//! Each design point is built only through `MachineBuilder`, runs one
//! fixed program, and prints everything observable about the run: the
//! counter reads, `ExecStats`, every level's `TlbStats`, the structural
//! snapshot, the integrity and replacement-residue checks, and one
//! injected corruption with the integrity report that follows it. The
//! program maps base, mega and giga pages, protects a victim region,
//! faults once, switches address spaces, issues all three flushes, reads
//! both counters and jumps between code pages, so every design's fill,
//! victim choice, Random Fill Engine draw and clear is on the record.
//!
//! The output must match `tests/golden/design_pin.txt` byte for byte. On
//! a mismatch the test writes its output next to the test binary and
//! names the file; if a design's behaviour changed on purpose, copy that
//! file over the golden and say why in the change log.

use std::fmt::Write as _;

use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::tlb::check::CorruptionKind;
use secure_tlbs::tlb::types::{Asid, SecureRegion, Vpn};
use secure_tlbs::tlb::{InvalidationPolicy, RandomFillEviction, TlbConfig, TlbCore};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/design_pin.txt");

/// The victim's protected data pages.
const SECURE: Vpn = Vpn(0x100);
/// The victim's protected code pages (the I-TLB's secure region).
const CODE: Vpn = Vpn(0x4000);
/// A 2 MiB page and a 1 GiB page of the victim.
const MEGA: Vpn = Vpn(0x400);
const GIGA: Vpn = Vpn(0x4_0000);

fn sa(entries: usize, ways: usize) -> TlbConfig {
    TlbConfig::sa(entries, ways).expect("valid geometry")
}

/// Every design point: a name and its builder.
fn design_points() -> Vec<(String, MachineBuilder)> {
    let base = || MachineBuilder::new().seed(0x5eed_0019);
    let mut points = vec![
        ("SA 4W 32".to_string(), base().tlb_config(sa(32, 4))),
        (
            "SA FA 32".to_string(),
            base().tlb_config(TlbConfig::fa(32).expect("valid")),
        ),
        (
            "SA 1E".to_string(),
            base().tlb_config(TlbConfig::single_entry()),
        ),
        (
            "SP 4W 32 default split".to_string(),
            base().design(TlbDesign::Sp).tlb_config(sa(32, 4)),
        ),
        (
            "SP 8W 32 victim ways 2".to_string(),
            base()
                .design(TlbDesign::Sp)
                .tlb_config(sa(32, 8))
                .sp_victim_ways(2),
        ),
    ];
    for eviction in [RandomFillEviction::RandomWay, RandomFillEviction::LruWay] {
        for invalidation in [InvalidationPolicy::Precise, InvalidationPolicy::RegionFlush] {
            points.push((
                format!("RF 8W 32 {eviction:?} {invalidation:?}"),
                base()
                    .design(TlbDesign::Rf)
                    .tlb_config(sa(32, 8))
                    .rf_eviction(eviction)
                    .rf_invalidation(invalidation),
            ));
        }
    }
    for design in [TlbDesign::Fs, TlbDesign::Ft, TlbDesign::Ms] {
        points.push((
            format!("{design} 8W 32"),
            base().design(design).tlb_config(sa(32, 8)),
        ));
    }
    points.push((
        "SA 4W 8 + RF L2 8W 64".to_string(),
        base().tlb_config(sa(8, 4)).l2(TlbDesign::Rf, sa(64, 8), 8),
    ));
    points.push((
        "SA 4W 32 + RF I-TLB 4W 8".to_string(),
        base()
            .tlb_config(sa(32, 4))
            .itlb(TlbDesign::Rf, sa(8, 4))
            .switch_cost(35),
    ));
    points
}

fn load(vpn: Vpn) -> Instr {
    Instr::Load(vpn.0 << 12)
}

/// The fixed program: victim `v`, attacker `a`.
fn program(v: Asid, a: Asid) -> Vec<Instr> {
    let mut p = vec![
        Instr::ReadMissCounter,
        Instr::ReadCycleCounter,
        Instr::SetAsid(v),
        Instr::JumpTo(CODE.0 << 12),
    ];
    for round in 0..3u64 {
        // The victim: secure pages, neighbours sharing their sets, a
        // megapage and a gigapage, and a page past the walkable range.
        for i in 0..6u64 {
            p.push(load(SECURE.offset(i % 3)));
            p.push(Instr::Store((SECURE.0 + 4 * (i + round) + 8) << 12));
        }
        p.push(load(MEGA.offset(5 + round)));
        p.push(load(GIGA.offset(0x1234 * (round + 1))));
        p.push(Instr::JumpTo((CODE.0 + 1 + round % 2) << 12));
        p.push(Instr::Compute(3));
        if round == 1 {
            p.push(Instr::Load(1 << 39));
        }
        p.push(Instr::ReadMissCounter);
        // The attacker primes the secure pages' sets.
        p.push(Instr::SetAsid(a));
        p.push(Instr::JumpTo(0x6000 << 12));
        for i in 0..12u64 {
            p.push(load(Vpn(SECURE.0 + 4 * i + round)));
        }
        p.push(Instr::ReadMissCounter);
        p.push(Instr::SetAsid(v));
        p.push(Instr::JumpTo(CODE.0 << 12));
        for i in 0..4u64 {
            p.push(load(SECURE.offset(i % 3)));
        }
        p.push(Instr::ReadCycleCounter);
        p.push(Instr::FlushPage(SECURE.offset(round % 3).0 << 12));
        p.push(Instr::FlushPage((SECURE.0 + 8) << 12));
        p.push(Instr::FlushPage(0x9999 << 12));
        p.push(Instr::ReadCycleCounter);
        if round == 1 {
            p.push(Instr::FlushAll);
            p.push(load(SECURE));
            p.push(load(MEGA));
        }
        if round == 2 {
            p.push(Instr::FlushAsid(a));
        }
        p.push(Instr::ReadMissCounter);
    }
    // A tail that leaves both address spaces resident for the snapshot.
    for i in 0..8u64 {
        p.push(load(SECURE.offset(i % 3)));
        p.push(load(Vpn(SECURE.0 + 9 + i)));
    }
    p.push(Instr::SetAsid(a));
    for i in 0..6u64 {
        p.push(load(Vpn(SECURE.0 + 2 * i)));
    }
    p.push(Instr::ReadMissCounter);
    p
}

/// Builds one design point, sets up the two processes and runs the
/// program; returns the machine.
fn run(builder: MachineBuilder) -> Machine {
    let mut m = builder.build();
    let v = m.os_mut().create_process();
    let a = m.os_mut().create_process();
    let os = m.os_mut();
    os.map_region(v, SECURE, 0x40).expect("map");
    os.map_mega_page(v, MEGA).expect("map mega");
    os.map_giga_page(v, GIGA).expect("map giga");
    os.map_region(a, SECURE, 0x40).expect("map");
    m.protect_victim(v, SecureRegion::new(SECURE, 3))
        .expect("protect data");
    m.protect_victim_code(v, SecureRegion::new(CODE, 2))
        .expect("protect code");
    m.run(&program(v, a));
    m
}

/// Everything observable about one TLB, one line each.
fn render_tlb(out: &mut String, label: &str, tlb: &dyn TlbCore) {
    writeln!(out, "  {label}: {} {}", tlb.design_name(), tlb.config()).unwrap();
    for level in 0.. {
        let Some(stats) = tlb.level_stats(level) else {
            break;
        };
        writeln!(out, "    level {level}: {stats:?}").unwrap();
    }
    for s in tlb.snapshot() {
        let e = s.entry;
        writeln!(
            out,
            "    entry L{} s{} w{}: {} {} {} {} sec={}",
            s.level,
            s.set,
            s.way,
            e.asid,
            e.vpn,
            e.ppn,
            e.size.label(),
            e.sec
        )
        .unwrap();
    }
    writeln!(out, "    integrity: {:?}", tlb.integrity()).unwrap();
    writeln!(
        out,
        "    replacement pristine: {:?}",
        tlb.replacement_pristine()
    )
    .unwrap();
}

/// The rendered runs, and the design name of every data TLB.
fn render_all() -> (String, Vec<&'static str>) {
    let mut out = String::new();
    let mut designs = Vec::new();
    for (name, builder) in design_points() {
        let mut m = run(builder);
        writeln!(out, "== {name} ==").unwrap();
        let stats = m.stats();
        writeln!(out, "  counter reads: {:?}", stats.counter_reads).unwrap();
        writeln!(
            out,
            "  exec: cycles={} instret={} loads={} stores={} faults={} switches={}",
            stats.cycles,
            stats.instret,
            stats.loads,
            stats.stores,
            stats.faults,
            stats.context_switches
        )
        .unwrap();
        assert!(
            m.oracle_violations().is_empty(),
            "{name}: {:?}",
            m.oracle_violations()
        );
        designs.push(m.tlb().design_name());
        render_tlb(&mut out, "dtlb", m.tlb());
        if let Some(itlb) = m.itlb() {
            render_tlb(&mut out, "itlb", itlb);
        }
        let report = m.tlb_mut().corrupt_entry(7, CorruptionKind::Sec);
        writeln!(out, "  corrupt sec #7: {report:?}").unwrap();
        writeln!(out, "  integrity after: {:?}", m.tlb().integrity()).unwrap();
    }
    (out, designs)
}

#[test]
fn every_design_matches_its_golden_run() {
    let (actual, designs) = render_all();
    for design in TlbDesign::EXTENDED {
        assert!(designs.contains(&design.name()), "{design} is not pinned");
    }
    assert!(designs.contains(&"L1+L2"), "no hierarchy is pinned");
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file committed");
    if golden != actual {
        let dump = concat!(env!("CARGO_TARGET_TMPDIR"), "/design_pin.txt");
        std::fs::write(dump, &actual).expect("write the actual output");
        let first = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .unwrap_or(golden.lines().count().min(actual.lines().count()));
        panic!(
            "design pin drifted from tests/golden/design_pin.txt at line {}:\n  golden: {:?}\n  actual: {:?}\nthe full output is in {dump}",
            first + 1,
            golden.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}
