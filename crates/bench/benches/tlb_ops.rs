//! Criterion micro-benchmarks of the TLB designs' critical operations
//! and of the page walk behind every miss. These quantify the
//! *simulator's* cost per operation (the hardware costs are modeled in
//! cycles; see `fig7`).
//!
//! - `tlb_hit`, `tlb_miss_fill`, `secure_region_miss`, `flush_all`: the
//!   three designs through a whole machine at the security-evaluation
//!   geometry (4 sets of 8 ways);
//! - `fig7_access`: one access of an omnetpp-like stream (85% of accesses
//!   over 56 hot pages of 512) into the TLB alone, behind a walker that
//!   translates for free, on each of Figure 7's seven geometries (1E for
//!   SA only, as in the figure) with the victim and its secure region
//!   programmed as a Figure 7 co-run programs them;
//! - `page_walk`: one `OsWalker::translate` over the co-runner's dense
//!   512-page region and over the RSA victim's sparse layout.
//!
//! Run with `cargo bench -p sectlb-bench --bench tlb_ops`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};
use sectlb_sim::os::Os;
use sectlb_sim::walker::{OsWalker, WalkerConfig};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::tlb_trait::{TlbCore, Translator, WalkResult};
use sectlb_tlb::types::{Asid, Ppn, SecureRegion, Vpn};
use sectlb_tlb::{InvalidationPolicy, RandomFillEviction, Tlb};
use sectlb_workloads::rsa::RsaLayout;
use sectlb_workloads::spec_like::SpecBenchmark;

fn machine(design: TlbDesign) -> sectlb_sim::machine::Machine {
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(TlbConfig::sa(32, 8).expect("valid"))
        .build();
    let p = m.os_mut().create_process();
    m.os_mut().map_region(p, Vpn(0x100), 64).expect("fresh");
    m.protect_victim(p, SecureRegion::new(Vpn(0x100), 3))
        .expect("fresh");
    m.exec(Instr::SetAsid(p));
    m
}

fn bench_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_hit");
    for design in TlbDesign::ALL {
        let mut m = machine(design);
        m.exec(Instr::Load(0x110_000)); // warm one non-secure page
        group.bench_function(design.name(), |b| {
            b.iter(|| {
                m.exec(Instr::Load(black_box(0x110_000)));
            })
        });
    }
    group.finish();
}

fn bench_miss_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_miss_fill");
    for design in TlbDesign::ALL {
        let mut m = machine(design);
        // Alternate between many non-secure pages so most accesses miss.
        let mut i = 0u64;
        group.bench_function(design.name(), |b| {
            b.iter(|| {
                i = (i + 1) % 64;
                m.exec(Instr::Load(black_box((0x110 + i) << 12)));
            })
        });
    }
    group.finish();
}

fn bench_secure_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("secure_region_miss");
    for design in TlbDesign::ALL {
        let mut m = machine(design);
        let mut i = 0u64;
        group.bench_function(design.name(), |b| {
            b.iter(|| {
                // Cycle through the secure pages; on RF each miss takes
                // the probe + random fill + no-fill buffer path.
                i = (i + 1) % 3;
                m.exec(Instr::Load(black_box((0x100 + i) << 12)));
            })
        });
    }
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("flush_all");
    for design in TlbDesign::ALL {
        let mut m = machine(design);
        group.bench_function(design.name(), |b| b.iter(|| m.exec(Instr::FlushAll)));
    }
    group.finish();
}

/// Where a Figure 7 co-run maps the SPEC co-runner.
const SPEC_BASE: Vpn = Vpn(0x10_000);
/// The victim (RSA) and co-runner ASIDs of a Figure 7 co-run.
const VICTIM: Asid = Asid(1);
const CO_RUNNER: Asid = Asid(2);

/// The pages of the omnetpp-like co-runner's accesses, in stream order.
fn omnetpp_pages(accesses: usize) -> Vec<Vpn> {
    SpecBenchmark::Omnetpp
        .trace(SPEC_BASE, accesses, 7)
        .into_iter()
        .filter_map(|instr| match instr {
            Instr::Load(addr) => Some(Vpn::of_addr(addr)),
            _ => None,
        })
        .collect()
}

/// A walker that translates every page to itself at a full walk's cost,
/// so that `fig7_access` times the TLB alone.
struct Identity;

impl Translator for Identity {
    fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
        WalkResult::page(Ppn(vpn.0), 60)
    }
}

fn bench_fig7_access(c: &mut Criterion) {
    let pages = omnetpp_pages(4096);
    let mut group = c.benchmark_group("fig7_access");
    for config in TlbConfig::paper_performance_configs() {
        for design in TlbDesign::ALL {
            let mut tlb = match design {
                TlbDesign::Sa => Tlb::sa(config),
                _ if config.ways() == 1 => continue,
                TlbDesign::Sp => Tlb::sp(config, config.ways() / 2).expect("two ways or more"),
                _ => Tlb::rf(
                    config,
                    RandomFillEviction::default(),
                    InvalidationPolicy::default(),
                ),
            };
            tlb.set_victim_asid(Some(VICTIM));
            tlb.set_secure_region(Some(RsaLayout::new().secure_region()));
            let mut i = 0;
            let id = BenchmarkId::new(config.label().replace(' ', ""), design.name());
            group.bench_function(id, |b| {
                b.iter(|| {
                    i = (i + 1) % pages.len();
                    tlb.access(CO_RUNNER, black_box(pages[i]), &mut Identity)
                        .hit
                })
            });
        }
    }
    group.finish();
}

fn bench_page_walk(c: &mut Criterion) {
    let mut os = Os::default();
    let victim = os.create_process();
    let layout = RsaLayout::new();
    let mut rsa_pages = layout.all_pages();
    rsa_pages.extend(layout.all_code_pages());
    for &vpn in &rsa_pages {
        os.map_page(victim, vpn).expect("fresh");
    }
    let co_runner = os.create_process();
    let spec = SpecBenchmark::Omnetpp;
    os.map_region(co_runner, SPEC_BASE, spec.footprint_pages())
        .expect("fresh");
    let dense = omnetpp_pages(4096);
    let mut walker = OsWalker::new(&mut os, WalkerConfig::default());
    let mut group = c.benchmark_group("page_walk");
    for (name, asid, pages) in [
        ("dense_512", co_runner, &dense),
        ("rsa_layout", victim, &rsa_pages),
    ] {
        let mut i = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % pages.len();
                walker.translate(asid, black_box(pages[i])).cycles
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hits,
    bench_miss_fill,
    bench_secure_miss,
    bench_flush,
    bench_fig7_access,
    bench_page_walk
);
criterion_main!(benches);
