//! Synthetic stand-ins for the paper's SPEC 2006 co-runners.
//!
//! The paper selects four TLB-intensive benchmarks — 453.povray,
//! 471.omnetpp, 483.xalancbmk, 436.cactusADM — to run alongside RSA
//! (Section 6.2). SPEC binaries cannot run on the simulator, so each
//! benchmark is modeled by its TLB-relevant signature (working-set size in
//! pages, reuse pattern, and compute intensity), chosen to reproduce the
//! *relative* behavior in Figure 7: omnetpp and xalancbmk are the most
//! TLB-hungry, povray is moderate, and cactusADM is nearly insensitive to
//! TLB size. See DESIGN.md, substitution 3.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sectlb_sim::cpu::Instr;
use sectlb_sim::sched::InstrSource;
use sectlb_tlb::types::Vpn;

/// The four modeled SPEC benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecBenchmark {
    /// 453.povray — ray tracing: moderate working set, good locality.
    Povray,
    /// 471.omnetpp — discrete event simulation: pointer-chasing over a
    /// large heap, poor locality.
    Omnetpp,
    /// 483.xalancbmk — XSLT processing: large working set, scattered
    /// accesses.
    Xalancbmk,
    /// 436.cactusADM — structured-grid stencil: dense loops over a small
    /// page set, compute-bound.
    CactusAdm,
}

impl SpecBenchmark {
    /// All four, in the paper's order.
    pub const ALL: [SpecBenchmark; 4] = [
        SpecBenchmark::Povray,
        SpecBenchmark::Omnetpp,
        SpecBenchmark::Xalancbmk,
        SpecBenchmark::CactusAdm,
    ];

    /// The SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            SpecBenchmark::Povray => "453.povray",
            SpecBenchmark::Omnetpp => "471.omnetpp",
            SpecBenchmark::Xalancbmk => "483.xalancbmk",
            SpecBenchmark::CactusAdm => "436.cactusADM",
        }
    }

    /// The TLB signature: `(working-set pages, hot fraction, hot-page
    /// probability, compute per access)`.
    ///
    /// A fraction of the working set is "hot" and absorbs most accesses;
    /// the rest is a cold tail. A small hot set relative to TLB reach
    /// means low MPKI; a cold-heavy profile keeps missing even in large
    /// TLBs.
    fn signature(self) -> Signature {
        match self {
            SpecBenchmark::Povray => Signature {
                pages: 96,
                hot_pages: 24,
                hot_prob: 0.95,
                compute: 6,
            },
            SpecBenchmark::Omnetpp => Signature {
                pages: 512,
                hot_pages: 56,
                hot_prob: 0.85,
                compute: 2,
            },
            SpecBenchmark::Xalancbmk => Signature {
                pages: 384,
                hot_pages: 40,
                hot_prob: 0.85,
                compute: 3,
            },
            SpecBenchmark::CactusAdm => Signature {
                pages: 24,
                hot_pages: 8,
                hot_prob: 0.9,
                compute: 12,
            },
        }
    }

    /// Generates `accesses` memory operations (plus compute interludes)
    /// over a region starting at `base`: [`SpecBenchmark::stream`],
    /// filled in one go.
    pub fn trace(self, base: Vpn, accesses: usize, seed: u64) -> Vec<Instr> {
        let mut stream = self.stream(base, accesses, seed);
        let mut trace = Vec::new();
        stream.fill(&mut trace, stream.remaining());
        trace
    }

    /// The instructions of [`SpecBenchmark::trace`], generated a slice at
    /// a time (see [`InstrSource::fill`]): each access is a `Load`
    /// followed by its compute interlude, and a slice can end between
    /// the two.
    pub fn stream(self, base: Vpn, accesses: usize, seed: u64) -> SpecStream {
        SpecStream {
            sig: self.signature(),
            base,
            rng: SmallRng::seed_from_u64(seed ^ self as u64),
            accesses,
            compute_due: false,
        }
    }

    /// The number of pages [`SpecBenchmark::trace`] may touch (for
    /// pre-mapping).
    pub fn footprint_pages(self) -> u64 {
        self.signature().pages
    }
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded SPEC-like instruction stream (see [`SpecBenchmark::stream`]).
#[derive(Debug, Clone)]
pub struct SpecStream {
    sig: Signature,
    base: Vpn,
    rng: SmallRng,
    /// Accesses not yet begun.
    accesses: usize,
    /// Whether the last access's compute interlude is still to come.
    compute_due: bool,
}

impl SpecStream {
    /// Instructions still to come.
    fn remaining(&self) -> usize {
        let per_access = if self.sig.compute > 0 { 2 } else { 1 };
        self.accesses * per_access + usize::from(self.compute_due)
    }
}

impl InstrSource for SpecStream {
    /// Appends the next `max` instructions to `buf`, reserved up front.
    /// An access draws a hot-or-cold choice, a page and an offset,
    /// through the shim's own `gen_bool` and `gen_range`, in that order;
    /// the draws inline into this loop, on a copy of the generator held
    /// in registers for the call.
    fn fill(&mut self, buf: &mut Vec<Instr>, max: usize) {
        let sig = self.sig;
        let compute = Instr::Compute(sig.compute);
        let mut left = max.min(self.remaining());
        buf.reserve(left);
        if left > 0 && std::mem::take(&mut self.compute_due) {
            buf.push(compute);
            left -= 1;
        }
        let mut rng = self.rng.clone();
        while left > 0 {
            let page = if rng.gen_bool(sig.hot_prob) {
                rng.gen_range(0..sig.hot_pages)
            } else {
                rng.gen_range(0..sig.pages)
            };
            let offset = rng.gen_range(0u64..512) * 8;
            buf.push(Instr::Load(self.base.offset(page).base_addr() + offset));
            self.accesses -= 1;
            left -= 1;
            if sig.compute > 0 {
                if left == 0 {
                    // The interlude starts the next slice.
                    self.compute_due = true;
                    break;
                }
                buf.push(compute);
                left -= 1;
            }
        }
        self.rng = rng;
    }
}

#[derive(Debug, Clone, Copy)]
struct Signature {
    pages: u64,
    hot_pages: u64,
    hot_prob: f64,
    compute: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_sim::machine::{MachineBuilder, TlbDesign};
    use sectlb_tlb::TlbConfig;

    fn mpki_on(bench: SpecBenchmark, config: TlbConfig) -> f64 {
        let mut m = MachineBuilder::new()
            .design(TlbDesign::Sa)
            .tlb_config(config)
            .build();
        let p = m.os_mut().create_process();
        m.os_mut()
            .map_region(p, Vpn(0x1000), bench.footprint_pages())
            .unwrap();
        m.run(&[Instr::SetAsid(p)]);
        let trace = bench.trace(Vpn(0x1000), 20_000, 7);
        m.run(&trace);
        m.mpki().expect("instructions retired")
    }

    #[test]
    fn traces_stay_in_the_declared_footprint() {
        for b in SpecBenchmark::ALL {
            let base = Vpn(0x1000);
            let limit = base.offset(b.footprint_pages()).base_addr();
            for i in b.trace(base, 5_000, 3) {
                if let Instr::Load(a) = i {
                    assert!(a >= base.base_addr() && a < limit, "{b}: {a:#x}");
                }
            }
        }
    }

    /// The stream as it was generated one access at a time, drawing
    /// through `rand::Rng` — the reference `fill` must reproduce.
    struct Reference {
        sig: Signature,
        base: Vpn,
        rng: SmallRng,
        accesses: usize,
        compute_due: bool,
    }

    impl Reference {
        fn new(bench: SpecBenchmark, base: Vpn, accesses: usize, seed: u64) -> Reference {
            Reference {
                sig: bench.signature(),
                base,
                rng: SmallRng::seed_from_u64(seed ^ bench as u64),
                accesses,
                compute_due: false,
            }
        }
    }

    impl Iterator for Reference {
        type Item = Instr;

        fn next(&mut self) -> Option<Instr> {
            if self.compute_due {
                self.compute_due = false;
                return Some(Instr::Compute(self.sig.compute));
            }
            self.accesses = self.accesses.checked_sub(1)?;
            let page = if self.rng.gen_bool(self.sig.hot_prob) {
                self.rng.gen_range(0..self.sig.hot_pages)
            } else {
                self.rng.gen_range(0..self.sig.pages)
            };
            let offset = self.rng.gen_range(0u64..512) * 8;
            self.compute_due = self.sig.compute > 0;
            Some(Instr::Load(self.base.offset(page).base_addr() + offset))
        }
    }

    #[test]
    fn fill_matches_the_one_access_reference_in_any_chunking() {
        let base = Vpn(0x1000);
        let mut split_accesses = 0;
        for b in SpecBenchmark::ALL {
            for seed in 0..12u64 {
                for accesses in [0, 1, 2, 3, 64, 333] {
                    let want: Vec<Instr> = Reference::new(b, base, accesses, seed).collect();
                    assert_eq!(
                        want.len(),
                        2 * accesses,
                        "{b}: a load and a compute per access"
                    );
                    assert_eq!(b.trace(base, accesses, seed), want, "{b} seed {seed}");
                    for chunk in [1, 2, 3, 7, 199, 200, 201] {
                        let mut stream = b.stream(base, accesses, seed);
                        // A non-empty buffer: `fill` appends.
                        let mut got = vec![Instr::FlushAll];
                        loop {
                            let before = got.len();
                            let left = want.len() + 1 - before;
                            assert_eq!(stream.remaining(), left, "{b}: remaining");
                            stream.fill(&mut got, chunk);
                            let added = got.len() - before;
                            assert_eq!(added, chunk.min(left), "{b}: chunk {chunk}");
                            if added == 0 {
                                break;
                            }
                            // This fill stopped between a load and its
                            // compute interlude.
                            if matches!(got.last(), Some(Instr::Load(_))) {
                                assert!(stream.compute_due, "{b}: chunk {chunk}");
                                split_accesses += 1;
                            }
                        }
                        assert_eq!(got[1..], want[..], "{b} seed {seed} chunk {chunk}");
                    }
                }
            }
        }
        assert!(split_accesses > 0, "no fill stopped inside an access");
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = SpecBenchmark::Omnetpp.trace(Vpn(0x1000), 1000, 9);
        let b = SpecBenchmark::Omnetpp.trace(Vpn(0x1000), 1000, 9);
        assert_eq!(a, b);
        let c = SpecBenchmark::Omnetpp.trace(Vpn(0x1000), 1000, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn omnetpp_is_more_tlb_hungry_than_povray_and_cactus() {
        let cfg = TlbConfig::sa(32, 4).unwrap();
        let omnetpp = mpki_on(SpecBenchmark::Omnetpp, cfg);
        let povray = mpki_on(SpecBenchmark::Povray, cfg);
        let cactus = mpki_on(SpecBenchmark::CactusAdm, cfg);
        assert!(omnetpp > povray, "omnetpp {omnetpp} vs povray {povray}");
        assert!(povray > cactus, "povray {povray} vs cactus {cactus}");
    }

    #[test]
    fn cactus_is_insensitive_to_tlb_size() {
        // Figure 7 observation: cactusADM "is not affected much by TLB
        // size".
        let small = mpki_on(SpecBenchmark::CactusAdm, TlbConfig::sa(32, 4).unwrap());
        let large = mpki_on(SpecBenchmark::CactusAdm, TlbConfig::sa(128, 4).unwrap());
        assert!(
            (small - large).abs() < 2.0,
            "cactusADM MPKI moved too much: {small} -> {large}"
        );
    }

    #[test]
    fn omnetpp_benefits_from_a_larger_tlb() {
        let small = mpki_on(SpecBenchmark::Omnetpp, TlbConfig::sa(32, 4).unwrap());
        let large = mpki_on(SpecBenchmark::Omnetpp, TlbConfig::sa(128, 4).unwrap());
        assert!(
            large < small * 0.8,
            "larger TLB should cut omnetpp MPKI: {small} -> {large}"
        );
    }
}
