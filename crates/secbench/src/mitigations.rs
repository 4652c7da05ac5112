//! Evaluation of the pre-existing mitigation approaches of Section 2.3.
//!
//! Before introducing its hardware designs, the paper surveys five
//! existing approaches and counts how many of the 24 vulnerability types
//! each defends:
//!
//! 1. ASID-tagged SA TLBs (today's Linux) — 10 of 24;
//! 2. Sanctum's security monitor flushing the TLB on every context
//!    switch — 14 of 24 (same for Intel SGX's hardware flush);
//! 3. fully-associative TLBs (one set: miss-based attacks carry no index
//!    information) — 18 of 24;
//! 4. the paper's SP TLB — 14 of 24;
//! 5. the paper's RF TLB — 24 of 24.
//!
//! This module turns each approach into the cells that measure it — the
//! same micro security benchmarks used for Table 4, on the approach's
//! design, geometry and flush policy — and the campaign engine's cells
//! layer runs them.

use sectlb_model::enumerate_vulnerabilities;
use sectlb_sim::machine::TlbDesign;
use sectlb_sim::os::FlushPolicy;
use sectlb_tlb::config::TlbConfig;

use crate::run::{Hook, TrialCell, TrialSettings};
use crate::spec::BenchmarkSpec;

/// A mitigation approach from Section 2.3 (or one of the paper's designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// ASID-tagged set-associative TLB, no flushing (today's Linux).
    AsidTags,
    /// Whole-TLB flush on every context switch (Sanctum's security
    /// monitor in software; Intel SGX in hardware).
    FlushOnSwitch,
    /// A fully-associative TLB (no sets, therefore no set-index channel).
    FullyAssociative,
    /// The paper's Static-Partition TLB.
    StaticPartition,
    /// The paper's Random-Fill TLB.
    RandomFill,
    /// A hardware TLB that clears its own entries on every context
    /// switch — the Sanctum/SGX policy moved into the fill path
    /// ([`TlbDesign::Fs`]).
    HardwareFlush,
    /// `fence.t`-style temporal partitioning: the hardware flush plus a
    /// wipe of all replacement state, so no microarchitectural residue
    /// survives the switch ([`TlbDesign::Ft`]).
    FenceT,
    /// A multi-page-size TLB (4KB/2MB/1GB entry classes over one lookup
    /// path, [`TlbDesign::Ms`]); the 4KB base class carries the
    /// security-evaluation geometry.
    MultiSize,
}

impl Mitigation {
    /// All five approaches, in the paper's presentation order.
    pub const ALL: [Mitigation; 5] = [
        Mitigation::AsidTags,
        Mitigation::FlushOnSwitch,
        Mitigation::FullyAssociative,
        Mitigation::StaticPartition,
        Mitigation::RandomFill,
    ];

    /// [`Mitigation::ALL`] plus the temporal-partitioning and
    /// multi-page-size designs (`--extended`). Append-only: the classic
    /// five keep their positions so default survey output never moves.
    pub const EXTENDED: [Mitigation; 8] = [
        Mitigation::AsidTags,
        Mitigation::FlushOnSwitch,
        Mitigation::FullyAssociative,
        Mitigation::StaticPartition,
        Mitigation::RandomFill,
        Mitigation::HardwareFlush,
        Mitigation::FenceT,
        Mitigation::MultiSize,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::AsidTags => "SA TLB + ASIDs (Linux)",
            Mitigation::FlushOnSwitch => "SA TLB + flush on switch (Sanctum/SGX)",
            Mitigation::FullyAssociative => "FA TLB",
            Mitigation::StaticPartition => "SP TLB",
            Mitigation::RandomFill => "RF TLB",
            Mitigation::HardwareFlush => "FS TLB (hw flush on switch)",
            Mitigation::FenceT => "FT TLB (fence.t full clear)",
            Mitigation::MultiSize => "MS TLB (multi page size)",
        }
    }

    /// The number of the 24 vulnerability types the paper says this
    /// approach defends (Section 2.3 / Section 5.3.2; the temporal
    /// designs follow Wistoff et al.'s flush coverage, the
    /// multi-page-size TLB inherits the SA baseline).
    pub fn paper_defended_count(self) -> usize {
        match self {
            Mitigation::AsidTags => 10,
            Mitigation::FlushOnSwitch => 14,
            Mitigation::FullyAssociative => 18,
            Mitigation::StaticPartition => 14,
            Mitigation::RandomFill => 24,
            Mitigation::HardwareFlush => 14,
            Mitigation::FenceT => 14,
            Mitigation::MultiSize => 10,
        }
    }

    fn design(self) -> TlbDesign {
        match self {
            Mitigation::StaticPartition => TlbDesign::Sp,
            Mitigation::RandomFill => TlbDesign::Rf,
            Mitigation::HardwareFlush => TlbDesign::Fs,
            Mitigation::FenceT => TlbDesign::Ft,
            Mitigation::MultiSize => TlbDesign::Ms,
            _ => TlbDesign::Sa,
        }
    }

    fn config(self) -> TlbConfig {
        match self {
            // One set, same capacity as the security-evaluation setup.
            Mitigation::FullyAssociative => TlbConfig::fa(32).expect("valid"),
            _ => TlbConfig::security_eval(),
        }
    }

    fn hook(self) -> Hook<'static> {
        match self {
            Mitigation::FlushOnSwitch => &|b| b.flush_policy(FlushPolicy::FlushOnSwitch),
            // The temporal designs clear themselves in hardware — the OS
            // policy stays off so the measurement exercises the design.
            _ => &|b| b,
        }
    }

    /// The approach's 24 cells, one per vulnerability type in Table 2
    /// order: its design, geometry and flush policy, seeded from
    /// `settings.base_seed` like the Table 4 cell of the same design.
    pub fn cells(self, settings: &TrialSettings) -> Vec<TrialCell<'static>> {
        let (design, config) = (self.design(), self.config());
        enumerate_vulnerabilities()
            .iter()
            .map(|v| {
                let spec = BenchmarkSpec::build_with_config(v, design, config);
                TrialCell::new(&spec, design, settings.base_seed, self.hook())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::tests::measured;
    use crate::run::Measurement;
    use sectlb_model::{Strategy, Vulnerability};

    fn settings() -> TrialSettings {
        TrialSettings {
            trials: 60,
            ..TrialSettings::default()
        }
    }

    /// The approach's measurement of every Table 2 row, on the engine.
    fn measure(m: Mitigation) -> Vec<Measurement> {
        measured(&m.cells(&settings()), &settings())
    }

    /// The approach's measurement of the first Table 2 row `pick` accepts.
    fn measure_row(m: Mitigation, pick: impl Fn(&Vulnerability) -> bool) -> Measurement {
        let row = enumerate_vulnerabilities()
            .iter()
            .position(pick)
            .expect("row exists");
        measured(&m.cells(&settings())[row..=row], &settings())[0]
    }

    fn defended_count(m: Mitigation) -> usize {
        measure(m).iter().filter(|x| x.defends(0.06)).count()
    }

    #[test]
    fn section_23_defense_counts_reproduce() {
        // The headline of Section 2.3: 10 / 14 / 18 / 14 / 24.
        for m in Mitigation::ALL {
            let measured = defended_count(m);
            assert_eq!(
                measured,
                m.paper_defended_count(),
                "{} defended {measured}, paper says {}",
                m.label(),
                m.paper_defended_count()
            );
        }
    }

    #[test]
    fn extended_designs_reproduce_their_paper_counts() {
        // FS and FT land exactly on the software flush's 14 (the clear
        // points coincide), and the multi-page-size TLB inherits the SA
        // baseline's 10 on the 4KB-only security workloads.
        for m in [
            Mitigation::HardwareFlush,
            Mitigation::FenceT,
            Mitigation::MultiSize,
        ] {
            let measured = defended_count(m);
            assert_eq!(
                measured,
                m.paper_defended_count(),
                "{} defended {measured}, expected {}",
                m.label(),
                m.paper_defended_count()
            );
        }
    }

    #[test]
    fn extended_list_keeps_the_classic_prefix() {
        assert_eq!(&Mitigation::EXTENDED[..5], &Mitigation::ALL);
    }

    #[test]
    fn hardware_flush_matches_the_software_policy_row_for_row() {
        // The FS design is the Sanctum/SGX policy moved into hardware:
        // every row's defended verdict must coincide.
        let sw = measure(Mitigation::FlushOnSwitch);
        let hw = measure(Mitigation::HardwareFlush);
        for ((v, sw), hw) in enumerate_vulnerabilities().iter().zip(sw).zip(hw) {
            assert_eq!(
                sw.defends(0.06),
                hw.defends(0.06),
                "{v}: software {} vs hardware {}",
                sw.capacity(),
                hw.capacity()
            );
        }
    }

    #[test]
    fn flush_on_switch_kills_external_eviction_but_not_collisions() {
        let et_m = measure_row(Mitigation::FlushOnSwitch, |v| {
            v.strategy == Strategy::EvictTime
        });
        assert!(et_m.defends(0.05), "Evict+Time survives flushing?");
        let ic_m = measure_row(Mitigation::FlushOnSwitch, |v| {
            v.strategy == Strategy::InternalCollision && v.pattern.s1.to_string() == "V_d"
        });
        assert!(
            ic_m.capacity() > 0.9,
            "all-victim Internal Collision never crosses a context switch"
        );
    }

    #[test]
    fn fa_tlb_removes_the_set_index_channel() {
        // Prime + Probe on an FA TLB: the victim's access evicts exactly
        // one entry regardless of its address — no index information.
        let m = measure_row(Mitigation::FullyAssociative, |v| {
            v.strategy == Strategy::PrimeProbe
        });
        assert!(m.defends(0.05), "C* = {}", m.capacity());
        // But hit-based internal collisions remain.
        let m = measure_row(Mitigation::FullyAssociative, |v| {
            v.strategy == Strategy::InternalCollision && v.pattern.s1.to_string() == "A_d"
        });
        assert!(m.capacity() > 0.9, "C* = {}", m.capacity());
    }
}
