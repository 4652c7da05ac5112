//! Security evaluation of the Appendix B (targeted invalidation) attacks.
//!
//! The paper enumerates the extra vulnerabilities that appear when an ISA
//! can invalidate a *specific* TLB entry (e.g. `mprotect()`-induced
//! shootdowns) but stops short of evaluating the secure designs against
//! them. This module does that evaluation — and it exposes a real gap:
//! the published RF TLB randomizes *fills* but not *invalidations*, so a
//! precise invalidation of a secure entry is deterministic and partially
//! observable. The [`InvalidationPolicy::RegionFlush`] extension (this
//! reproduction's addition) closes the gap by invalidating the whole
//! secure region in constant time whenever any secure page is invalidated.
//!
//! Each (family, design) pair is a [`TrialCell`] the campaign engine's
//! cells layer runs like any Table 4 cell. A family lowers to one
//! instruction stream per placement whose last step is timed by counter
//! reads in the program: the TLB-miss counter around an access, as in the
//! base benchmarks, and the *cycle* counter around an invalidation (an
//! invalidation of a present entry takes one extra cycle — the paper's
//! Flush + Flush discussion).
//!
//! [`InvalidationPolicy::RegionFlush`]: sectlb_tlb::InvalidationPolicy::RegionFlush

use sectlb_model::state::Actor;
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{SecureRegion, Vpn};
use sectlb_tlb::InvalidationPolicy;

use crate::generate::{ATTACKER_ASID, VICTIM_ASID};
use crate::run::{Hook, SeedRule, TrialCell};
use crate::spec::{Placement, SBASE};

/// One step of an extended benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtStep {
    /// Actor loads the known in-range address `a`.
    AccessA(Actor),
    /// The victim loads its secret address `u`.
    AccessU,
    /// The victim invalidates its secret page (`V_u^inv`).
    InvU,
    /// Actor invalidates the known address `a` in its own address space
    /// (`A_a^inv` / `V_a^inv`).
    InvA(Actor),
}

/// A representative extended vulnerability benchmark.
#[derive(Debug, Clone)]
pub struct ExtBenchmark {
    /// The Table 7 family this exercises.
    pub name: &'static str,
    /// The three-step pattern in the paper's notation.
    pub pattern: &'static str,
    /// Setup operations executed before the pattern (e.g. making the
    /// entry that step 1 invalidates resident in the first place).
    pub setup: Vec<ExtStep>,
    /// The three pattern steps; the last is the timed one.
    pub steps: [ExtStep; 3],
}

/// The evaluated design variants: the paper's three designs plus the RF
/// TLB with the region-flush invalidation extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtDesign {
    /// Standard set-associative TLB.
    Sa,
    /// Static-Partition TLB.
    Sp,
    /// Random-Fill TLB as published (precise invalidation).
    RfPrecise,
    /// Random-Fill TLB with the region-flush invalidation extension.
    RfRegionFlush,
}

impl ExtDesign {
    /// All evaluated variants.
    pub const ALL: [ExtDesign; 4] = [
        ExtDesign::Sa,
        ExtDesign::Sp,
        ExtDesign::RfPrecise,
        ExtDesign::RfRegionFlush,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ExtDesign::Sa => "SA",
            ExtDesign::Sp => "SP",
            ExtDesign::RfPrecise => "RF (precise inv)",
            ExtDesign::RfRegionFlush => "RF (region flush)",
        }
    }

    /// The variant's TLB design and builder hook (precise invalidation is
    /// every machine's default).
    fn machine(self) -> (TlbDesign, Hook<'static>) {
        match self {
            ExtDesign::Sa => (TlbDesign::Sa, &|b| b),
            ExtDesign::Sp => (TlbDesign::Sp, &|b| b),
            ExtDesign::RfPrecise => (TlbDesign::Rf, &|b| b),
            ExtDesign::RfRegionFlush => (TlbDesign::Rf, &|b| {
                b.rf_invalidation(InvalidationPolicy::RegionFlush)
            }),
        }
    }
}

/// The representative extended benchmarks, one per Table 7 family that
/// introduces new behavior (external variants that the ASID check already
/// kills are represented once).
pub fn extended_benchmarks() -> Vec<ExtBenchmark> {
    use Actor::{Attacker as A, Victim as V};
    use ExtStep::*;
    vec![
        ExtBenchmark {
            name: "TLB Flush + Probe (external)",
            pattern: "A_a ~> V_u^inv ~> A_a (slow)",
            setup: vec![AccessU],
            steps: [AccessA(A), InvU, AccessA(A)],
        },
        ExtBenchmark {
            name: "TLB Flush + Probe (internal)",
            pattern: "V_a ~> V_u^inv ~> V_a (slow)",
            setup: vec![AccessU],
            steps: [AccessA(V), InvU, AccessA(V)],
        },
        ExtBenchmark {
            name: "TLB Flush + Time (internal)",
            pattern: "V_u ~> V_a^inv ~> V_u (slow)",
            setup: vec![],
            steps: [AccessU, InvA(V), AccessU],
        },
        ExtBenchmark {
            name: "TLB Reload + Time (internal)",
            pattern: "V_u^inv ~> V_a ~> V_u (fast)",
            setup: vec![AccessU],
            steps: [InvU, AccessA(V), AccessU],
        },
        ExtBenchmark {
            name: "TLB Flush + Flush (internal)",
            pattern: "V_a ~> V_u^inv ~> V_a^inv (slow)",
            setup: vec![AccessU],
            steps: [AccessA(V), InvU, InvA(V)],
        },
        ExtBenchmark {
            name: "TLB Internal Collision (inv-primed)",
            pattern: "V_a^inv ~> V_u ~> V_a (fast)",
            setup: vec![AccessA(V)],
            steps: [InvA(V), AccessU, AccessA(V)],
        },
    ]
}

/// Secure region for the extended evaluation: 3 pages as in the base
/// non-contention benchmarks.
const SEC_PAGES: u64 = 3;

fn lower(out: &mut Vec<Instr>, step: ExtStep, u: Vpn, a: Vpn) {
    let asid = |actor| match actor {
        Actor::Victim => VICTIM_ASID,
        Actor::Attacker => ATTACKER_ASID,
    };
    out.extend(match step {
        ExtStep::AccessA(actor) => [Instr::SetAsid(asid(actor)), Instr::Load(a.base_addr())],
        ExtStep::AccessU => [Instr::SetAsid(VICTIM_ASID), Instr::Load(u.base_addr())],
        ExtStep::InvU => [Instr::SetAsid(VICTIM_ASID), Instr::FlushPage(u.base_addr())],
        ExtStep::InvA(actor) => [Instr::SetAsid(asid(actor)), Instr::FlushPage(a.base_addr())],
    });
}

impl ExtBenchmark {
    /// One trial's instruction stream: the setup operations, steps 1 and
    /// 2, then step 3 with its operation between two counter reads — the
    /// cycle counter around an invalidation, the miss counter around an
    /// access.
    pub(crate) fn program(&self, placement: Placement) -> Vec<Instr> {
        let a = SBASE;
        let u = match placement {
            Placement::Mapped => a,
            Placement::NotMapped => SBASE.offset(1),
        };
        let mut out = Vec::new();
        for &step in self.setup.iter().chain(&self.steps) {
            lower(&mut out, step, u, a);
        }
        let op = out.pop().expect("a step lowers to its operation");
        let read = match op {
            Instr::FlushPage(_) => Instr::ReadCycleCounter,
            _ => Instr::ReadMissCounter,
        };
        out.extend([read, op, read]);
        out
    }

    /// The family's cell on `variant`: its two programs on a Table 4
    /// machine with a 3-page secure region, seeded by
    /// [`SeedRule::AppendixB`], and named `family|design label` in oracle
    /// contexts.
    pub(crate) fn cell(&self, variant: ExtDesign) -> TrialCell<'static> {
        let (design, hook) = variant.machine();
        TrialCell {
            row: self.name.to_owned(),
            column: variant.label().to_owned(),
            design,
            config: TlbConfig::security_eval(),
            region: SecureRegion::new(SBASE, SEC_PAGES),
            programs: Placement::BOTH.map(|p| self.program(p)),
            hook,
            seeds: SeedRule::AppendixB,
        }
    }
}

/// Table 7's cells: every family of `benches` on every [`ExtDesign`],
/// row-major.
pub fn cells(benches: &[ExtBenchmark]) -> Vec<TrialCell<'static>> {
    benches
        .iter()
        .flat_map(|b| ExtDesign::ALL.map(|d| b.cell(d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::resilience::tests::measured;
    use crate::run::TrialSettings;

    const TRIALS: u32 = 120;

    fn settings(trials: u32) -> TrialSettings {
        TrialSettings {
            trials,
            ..TrialSettings::default()
        }
    }

    fn capacity(name: &str, design: ExtDesign) -> f64 {
        let bench = extended_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no benchmark {name}"));
        measured(&[bench.cell(design)], &settings(TRIALS))[0].capacity()
    }

    #[test]
    fn every_cell_keeps_its_measurement() {
        // `(mapped, not mapped)` slow trials of 40 per placement, row-major
        // over the families and SA, SP, RF (precise inv), RF (region
        // flush): the values a fresh machine per trial, timed around the
        // last step's operation, measured. Any drift in seeds, setup or
        // timing moves the RF columns.
        #[rustfmt::skip]
        let expected: [(u32, u32); 24] = [
            (0, 0), (0, 0), (0, 0), (0, 0),
            (40, 0), (40, 0), (40, 10), (40, 40),
            (40, 0), (40, 0), (40, 31), (40, 40),
            (0, 40), (0, 40), (28, 35), (28, 31),
            (0, 40), (0, 40), (0, 30), (40, 40),
            (0, 40), (0, 40), (28, 26), (28, 23),
        ];
        let measured = measured(&cells(&extended_benchmarks()), &settings(40));
        let got: Vec<(u32, u32)> = measured
            .iter()
            .map(|m| (m.n_mapped_miss, m.n_not_mapped_miss))
            .collect();
        assert_eq!(got, expected);
        assert!(measured.iter().all(|m| m.trials == 40));
    }

    #[test]
    fn timed_steps_sit_between_their_counter_reads() {
        for bench in extended_benchmarks() {
            for placement in Placement::BOTH {
                let p = bench.program(placement);
                let reads = p
                    .iter()
                    .filter(|i| matches!(i, Instr::ReadMissCounter | Instr::ReadCycleCounter))
                    .count();
                assert_eq!(reads, 2, "{}", bench.name);
                let [read, op, again] = p[p.len() - 3..] else {
                    unreachable!("three instructions")
                };
                assert_eq!(read, again);
                let cycles = matches!(op, Instr::FlushPage(_));
                assert_eq!(read == Instr::ReadCycleCounter, cycles, "{}", bench.name);
            }
        }
    }

    #[test]
    fn external_flush_probe_is_defended_by_asids_everywhere() {
        for d in ExtDesign::ALL {
            let c = capacity("TLB Flush + Probe (external)", d);
            assert!(c < 0.05, "{}: C* = {c}", d.label());
        }
    }

    #[test]
    fn internal_flush_probe_breaks_sa_and_sp() {
        for d in [ExtDesign::Sa, ExtDesign::Sp] {
            let c = capacity("TLB Flush + Probe (internal)", d);
            assert!(c > 0.9, "{}: C* = {c}", d.label());
        }
    }

    #[test]
    fn precise_invalidation_leaks_on_the_published_rf() {
        // The gap: deterministic invalidation of a secure entry partially
        // re-correlates the attacker's observation with the secret.
        let c = capacity("TLB Flush + Probe (internal)", ExtDesign::RfPrecise);
        assert!(
            c > 0.05,
            "expected a measurable channel on precise-inv RF, got C* = {c}"
        );
    }

    #[test]
    fn region_flush_closes_the_invalidation_channels() {
        for name in [
            "TLB Flush + Probe (internal)",
            "TLB Flush + Time (internal)",
            "TLB Flush + Flush (internal)",
        ] {
            let c = capacity(name, ExtDesign::RfRegionFlush);
            assert!(c < 0.05, "{name}: C* = {c}");
        }
    }

    #[test]
    fn flush_flush_breaks_sa() {
        let c = capacity("TLB Flush + Flush (internal)", ExtDesign::Sa);
        assert!(c > 0.9, "C* = {c}");
    }

    #[test]
    fn inv_primed_collision_is_defended_by_rf_fill_randomization() {
        // Fill-path attacks stay defended even with precise invalidation:
        // the randomization the paper designed is doing its job.
        for d in [ExtDesign::RfPrecise, ExtDesign::RfRegionFlush] {
            let c = capacity("TLB Internal Collision (inv-primed)", d);
            assert!(c < 0.05, "{}: C* = {c}", d.label());
        }
        let c = capacity("TLB Internal Collision (inv-primed)", ExtDesign::Sa);
        assert!(c > 0.9, "SA should leak, C* = {c}");
    }

    #[test]
    fn six_families_are_covered() {
        assert_eq!(extended_benchmarks().len(), 6);
    }
}
