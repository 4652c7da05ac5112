//! In-process A/B of every Figure 7 cell shape: two versions of
//! `sectlb-tlb` and `sectlb-sim`, linked into this one binary under the
//! names `ab-parent-*` and `ab-change-*`, run the same cells in
//! alternating order, so host drift between runs cancels out of their
//! ratio. Built and run by `scripts/ab_cells.sh PARENT_REV [ROUNDS]`.
//!
//! A shape is design × geometry × workload (RSA or SecRSA, alone or with
//! one of the four SPEC-like co-runners): Figure 7's 19 TLB
//! configurations by its 10 workloads. Both versions replay the same
//! instructions, generated once by `sectlb-workloads` and converted to
//! each version's `Instr` once, and only the run is timed. Every round checks
//! that both versions retire the same instructions in the same cycles
//! with the same D-TLB misses.
//!
//! Output: per shape, each version's best run in milliseconds, the median
//! over rounds of change time / parent time (below 1: the change is
//! faster), the rounds the change won, and the ratio corrected by the
//! controls. The controls are the RSA-alone set-associative shapes: they
//! never miss after warm-up and probe at most four ways, so a change to
//! the miss path or to wide sets cannot touch them, and their ratio is
//! the code-placement bias of this build.

use std::time::Duration;

use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::Vpn;
use sectlb_workloads::rsa::{decrypt_traced, encrypt, RsaKey, RsaLayout};
use sectlb_workloads::spec_like::SpecBenchmark;

/// Decryptions per cell: a tenth of Figure 7's 50, as perfbench's timed
/// units.
const RUNS: usize = 5;

/// The co-runner's region, as in `perf::cell_machine`.
const SPEC_BASE: u64 = 0x10_000;

/// One cell shape, as indices into each version's own tables.
#[derive(Clone, Copy)]
struct Shape {
    design: usize,
    geometry: usize,
    secure: bool,
    co_runner: Option<SpecBenchmark>,
}

impl Shape {
    fn label(&self) -> String {
        let designs = ["SA", "SP", "RF"];
        let geometry = TlbConfig::paper_performance_configs()[self.geometry].label();
        let base = if self.secure { "SecRSA" } else { "RSA" };
        let workload = match self.co_runner {
            None => base.to_owned(),
            Some(b) => format!("{base}+{}", b.name().split('.').nth(1).unwrap_or("spec")),
        };
        format!("{} {geometry} {workload}", designs[self.design])
    }

    /// The RSA-alone set-associative shapes: no misses after warm-up, no
    /// set wider than four ways.
    fn control(&self) -> bool {
        let config = TlbConfig::paper_performance_configs()[self.geometry];
        self.co_runner.is_none() && config.ways() < config.entries()
    }
}

/// What both versions must agree on: instructions retired, cycles and
/// D-TLB misses.
type Counts = (u64, u64, u64);

/// The instructions every shape replays, in the workspace's own `Instr`:
/// one decryption, and each co-runner's stream.
struct Traces {
    rsa: Vec<sectlb_sim::cpu::Instr>,
    spec: Vec<Vec<sectlb_sim::cpu::Instr>>,
}

macro_rules! version {
    ($name:ident, $sim:ident, $tlb:ident) => {
        mod $name {
            use std::time::{Duration, Instant};

            use $sim::cpu::Instr;
            use $sim::machine::{Machine, MachineBuilder, TlbDesign};
            use $sim::sched::{run_sources, Cycled};
            use $tlb::config::TlbConfig;
            use $tlb::types::{Asid, SecureRegion, Vpn};

            /// The traces, converted to this version's `Instr` once.
            pub struct Traces {
                rsa: Vec<Instr>,
                spec: Vec<Vec<Instr>>,
            }

            impl Traces {
                pub fn new(traces: &crate::Traces) -> Traces {
                    Traces {
                        rsa: convert(&traces.rsa),
                        spec: traces.spec.iter().map(|t| convert(t)).collect(),
                    }
                }
            }

            /// A shape's machine, set up but not yet run.
            pub struct Cell {
                template: Machine,
                rsa_asid: Asid,
                /// The co-runner's ASID and its index in `Traces::spec`.
                spec: Option<(Asid, usize)>,
            }

            fn convert(instrs: &[sectlb_sim::cpu::Instr]) -> Vec<Instr> {
                use sectlb_sim::cpu::Instr as I;
                instrs
                    .iter()
                    .map(|i| match *i {
                        I::Load(a) => Instr::Load(a),
                        I::Store(a) => Instr::Store(a),
                        I::Compute(n) => Instr::Compute(n),
                        I::SetAsid(a) => Instr::SetAsid(Asid(a.0)),
                        I::FlushAll => Instr::FlushAll,
                        I::FlushAsid(a) => Instr::FlushAsid(Asid(a.0)),
                        I::FlushPage(a) => Instr::FlushPage(a),
                        I::ReadMissCounter => Instr::ReadMissCounter,
                        I::ReadCycleCounter => Instr::ReadCycleCounter,
                        I::JumpTo(a) => Instr::JumpTo(a),
                    })
                    .collect()
            }

            /// Sets the shape's machine up as `perf::cell_machine` does.
            pub fn prepare(shape: &crate::Shape, rsa_pages: &[u64], secure: (u64, u64)) -> Cell {
                let design = TlbDesign::ALL[shape.design];
                let config = TlbConfig::paper_performance_configs()[shape.geometry];
                let mut m = MachineBuilder::new()
                    .design(design)
                    .tlb_config(config)
                    .seed(0xf167 ^ crate::RUNS as u64)
                    .oracle(false)
                    .build();
                let rsa_asid = m.os_mut().create_process();
                for &page in rsa_pages {
                    m.os_mut().map_page(rsa_asid, Vpn(page)).expect("maps");
                }
                if shape.secure {
                    let region = SecureRegion::new(Vpn(secure.0), secure.1);
                    m.protect_victim(rsa_asid, region).expect("protects");
                }
                let spec = shape.co_runner.map(|bench| {
                    let asid = m.os_mut().create_process();
                    m.os_mut()
                        .map_region(asid, Vpn(crate::SPEC_BASE), bench.footprint_pages())
                        .expect("maps");
                    (asid, crate::spec_index(bench))
                });
                Cell {
                    template: m,
                    rsa_asid,
                    spec,
                }
            }

            /// Runs a fresh copy of the cell's machine; times the run
            /// alone.
            pub fn run(cell: &Cell, traces: &Traces) -> (Duration, crate::Counts) {
                let mut m = cell.template.clone();
                let start = Instant::now();
                match cell.spec {
                    None => {
                        m.exec(Instr::SetAsid(cell.rsa_asid));
                        for _ in 0..crate::RUNS {
                            m.run(&traces.rsa);
                        }
                    }
                    Some((spec_asid, bench)) => {
                        let mut rsa = Cycled::new(&traces.rsa, crate::RUNS);
                        let mut spec = Cycled::new(&traces.spec[bench], 1);
                        run_sources(
                            &mut m,
                            &mut [(cell.rsa_asid, &mut rsa), (spec_asid, &mut spec)],
                            200,
                        );
                    }
                }
                let elapsed = start.elapsed();
                let stats = m.stats();
                (
                    elapsed,
                    (stats.instret, stats.cycles, m.tlb().stats().misses),
                )
            }
        }
    };
}

version!(parent, ab_parent_sim, ab_parent_tlb);
version!(change, ab_change_sim, ab_change_tlb);

/// The index of `bench` in `SpecBenchmark::ALL`.
fn spec_index(bench: SpecBenchmark) -> usize {
    SpecBenchmark::ALL
        .iter()
        .position(|&b| b == bench)
        .expect("every benchmark is listed")
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|r| r.parse().expect("ROUNDS is a number"))
        .unwrap_or(10);
    let key = RsaKey::demo_128();
    let layout = RsaLayout::new();
    let ciphertext = encrypt(&key, &[0xfeedu64]);
    let rsa = decrypt_traced(&key, &ciphertext, layout).instrs;
    let rsa_pages: Vec<u64> = layout.all_pages().iter().map(|p| p.0).collect();
    let region = layout.secure_region();
    let secure = (region.base.0, region.pages);

    let mut shapes = Vec::new();
    for co_runner in [None].into_iter().chain(SpecBenchmark::ALL.map(Some)) {
        for secure in [false, true] {
            for design in 0..3 {
                // Figure 7 shows the 1E geometry for SA alone: SP cannot
                // partition one entry.
                for geometry in
                    usize::from(design > 0)..TlbConfig::paper_performance_configs().len()
                {
                    shapes.push(Shape {
                        design,
                        geometry,
                        secure,
                        co_runner,
                    });
                }
            }
        }
    }
    let spec = SpecBenchmark::ALL
        .iter()
        .map(|bench| bench.trace(Vpn(SPEC_BASE), rsa.len() * RUNS / 3, 0x5bec ^ RUNS as u64))
        .collect();
    let traces = Traces { rsa, spec };
    let (parent_traces, change_traces) =
        (parent::Traces::new(&traces), change::Traces::new(&traces));
    let cells: Vec<(parent::Cell, change::Cell)> = shapes
        .iter()
        .map(|shape| {
            (
                parent::prepare(shape, &rsa_pages, secure),
                change::prepare(shape, &rsa_pages, secure),
            )
        })
        .collect();

    // times[shape] = per round (parent, change).
    let mut times = vec![Vec::with_capacity(rounds); shapes.len()];
    for round in 0..rounds {
        for (i, (p, c)) in cells.iter().enumerate() {
            let (tp, tc, np, nc);
            if (round + i) % 2 == 0 {
                (tp, np) = parent::run(p, &parent_traces);
                (tc, nc) = change::run(c, &change_traces);
            } else {
                (tc, nc) = change::run(c, &change_traces);
                (tp, np) = parent::run(p, &parent_traces);
            }
            assert_eq!(
                np,
                nc,
                "{}: (instret, cycles, D-TLB misses) differ",
                shapes[i].label()
            );
            times[i].push((tp, tc));
        }
        eprintln!("round {} of {rounds} done", round + 1);
    }

    let ratios: Vec<f64> = times
        .iter()
        .map(|t| median(&mut t.iter().map(|(p, c)| ms(*c) / ms(*p)).collect::<Vec<_>>()))
        .collect();
    let mut control: Vec<f64> = shapes
        .iter()
        .zip(&ratios)
        .filter(|(s, _)| s.control())
        .map(|(_, &r)| r)
        .collect();
    let control = median(&mut control);
    println!(
        "{rounds} rounds, {RUNS} decryptions per cell; ratio = change time / parent time \
         (below 1: change faster); corrected = ratio / control median {control:.3}"
    );
    println!(
        "{:<28} {:>10} {:>10} {:>7} {:>6} {:>9}",
        "shape", "parent ms", "change ms", "ratio", "won", "corrected"
    );
    for ((shape, t), ratio) in shapes.iter().zip(&times).zip(&ratios) {
        let best =
            |f: fn(&(Duration, Duration)) -> Duration| t.iter().map(f).min().expect("rounds");
        let won = t.iter().filter(|(p, c)| c < p).count();
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>7.3} {:>3}/{:<2} {:>9.3}{}",
            shape.label(),
            ms(best(|x| x.0)),
            ms(best(|x| x.1)),
            ratio,
            won,
            t.len(),
            ratio / control,
            if shape.control() { "  control" } else { "" }
        );
    }
}
