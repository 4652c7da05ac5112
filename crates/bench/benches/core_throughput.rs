//! Criterion benchmarks of the simulator's batched hot path, one group
//! per TLB design point: the security-evaluation geometry (SA / FA / SP /
//! RF at 32 entries) plus the two Figure 7 geometries whose probes scan
//! the most ways (`FA128`, an SA TLB with one 128-way set, and
//! `SP-FA32`, the SP TLB on a fully associative 32-entry array).
//!
//! Three shapes per design, named with [`BenchmarkId`]:
//!
//! - `trial`: build a fresh machine, map the working set, and run one
//!   batched program — the per-trial shape of oracle-armed campaign
//!   trials, which exercises the SlotMap page-table setup path too;
//! - `restore`: restore a post-setup template with two address spaces,
//!   as a Table 4 cell's has, into a scratch machine with `clone_from`,
//!   reseed it and run one trial-sized batch (the first [`TRIAL_LEN`]
//!   instructions of the program) — the per-trial shape of unarmed
//!   campaign trials (see `secbench::run`), short enough that the
//!   restore is a visible share of it;
//! - `steady`: re-run the batch on a warm machine — the pure
//!   translation/dispatch cost the SoA layout and packed LRU optimize.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{SecureRegion, Vpn};

const PAGES: u64 = 64;
/// Instructions in the `restore` shape's batch.
const TRIAL_LEN: usize = 32;

fn design_points() -> [(&'static str, TlbDesign, TlbConfig); 6] {
    [
        ("SA", TlbDesign::Sa, TlbConfig::sa(32, 8).expect("valid")),
        ("FA", TlbDesign::Sa, TlbConfig::fa(32).expect("valid")),
        ("SP", TlbDesign::Sp, TlbConfig::sa(32, 8).expect("valid")),
        ("RF", TlbDesign::Rf, TlbConfig::sa(32, 8).expect("valid")),
        ("FA128", TlbDesign::Sa, TlbConfig::fa(128).expect("valid")),
        ("SP-FA32", TlbDesign::Sp, TlbConfig::fa(32).expect("valid")),
    ]
}

fn build(design: TlbDesign, config: TlbConfig) -> Machine {
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(config)
        .seed(42)
        .build();
    let p = m.os_mut().create_process();
    m.os_mut().map_region(p, Vpn(0x100), PAGES).expect("fresh");
    m.protect_victim(p, SecureRegion::new(Vpn(0x100), 3))
        .expect("fresh");
    m.exec(Instr::SetAsid(p));
    m
}

/// [`build`]'s machine plus a second process with its own working set.
fn two_process_template(design: TlbDesign, config: TlbConfig) -> Machine {
    let mut m = build(design, config);
    let other = m.os_mut().create_process();
    m.os_mut()
        .map_region(other, Vpn(0x100), PAGES)
        .expect("fresh");
    m
}

/// A mixed load/store/compute batch over the working set: enough reuse
/// to hit, enough spread to fill and evict.
fn program() -> Vec<Instr> {
    let mut prog = Vec::with_capacity(512);
    for i in 0..256u64 {
        let page = (i * 17 + i / 5) % PAGES;
        let addr = Vpn(0x100 + page).base_addr();
        prog.push(if i % 7 == 3 {
            Instr::Store(addr)
        } else {
            Instr::Load(addr)
        });
        if i % 11 == 0 {
            prog.push(Instr::Compute(4));
        }
    }
    prog
}

fn bench_core(c: &mut Criterion) {
    let prog = program();
    for (label, design, config) in design_points() {
        let mut group = c.benchmark_group(&format!("core_{label}"));
        group.sample_size(12);
        group.bench_function(BenchmarkId::new("trial", label), |b| {
            b.iter(|| {
                let mut m = build(design, config);
                m.run_batch(black_box(&prog));
                m.tlb_stats().hits
            })
        });
        let template = two_process_template(design, config);
        let mut scratch = template.clone();
        let mut seed = 0;
        group.bench_function(BenchmarkId::new("restore", label), |b| {
            b.iter(|| {
                seed += 1;
                scratch.clone_from(&template);
                scratch.reseed(seed);
                scratch.run_batch(black_box(&prog[..TRIAL_LEN]));
                scratch.tlb_stats().hits
            })
        });
        let mut warm = build(design, config);
        warm.run_batch(&prog);
        group.bench_function(BenchmarkId::new("steady", label), |b| {
            b.iter(|| {
                warm.run_batch(black_box(&prog));
                warm.tlb_stats().hits
            })
        });
        group.finish();
    }
}

criterion_group!(core_throughput, bench_core);
criterion_main!(core_throughput);
