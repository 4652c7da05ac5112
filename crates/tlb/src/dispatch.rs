//! Enum dispatch over the TLB designs — the simulator's fast path.
//!
//! The machine's per-access loop used to reach its TLB through
//! `Box<dyn TlbCore>`, paying an indirect call (and defeating inlining)
//! on every translation. [`TlbUnit`] closes that: the four concrete
//! designs are enum variants dispatched with a `match`, which the
//! compiler turns into direct, inlinable calls. The [`TlbCore`] trait
//! remains the compatibility surface — `TlbUnit` itself implements it,
//! and a [`TlbUnit::Dyn`] variant adapts any boxed `TlbCore` (custom
//! compositions, the differential suite's reference-path designs) into
//! the enum world at the old dyn-dispatch cost.

use crate::check::{CorruptionKind, CorruptionReport, IntegrityError, SnapshotEntry};
use crate::config::TlbConfig;
use crate::hierarchy::TlbHierarchy;
use crate::multi::MsTlb;
use crate::partition::SpTlb;
use crate::random_fill::RfTlb;
use crate::set_assoc::SaTlb;
use crate::stats::TlbStats;
use crate::temporal::TpTlb;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, SecureRegion, Vpn};

/// A TLB of any design, dispatched by `match` instead of vtable.
#[derive(Clone)]
pub enum TlbUnit {
    /// The set-associative baseline (also FA / 1E configurations).
    Sa(SaTlb),
    /// The Static-Partition design.
    Sp(SpTlb),
    /// The Random-Fill design.
    Rf(RfTlb),
    /// A temporal-partitioning design (`FS` or `FT`).
    Tp(TpTlb),
    /// The multi-size split design. Boxed: its three class arrays would
    /// otherwise quadruple the enum's inline size for every design.
    /// Dispatch stays a direct (inlinable) call; only the state is
    /// behind the pointer.
    Ms(Box<MsTlb>),
    /// A two-level hierarchy.
    Hier(TlbHierarchy),
    /// Escape hatch: any other [`TlbCore`] at dyn-dispatch cost.
    Dyn(Box<dyn TlbCore>),
}

impl std::fmt::Debug for TlbUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TlbUnit({})", self.design_name())
    }
}

impl From<SaTlb> for TlbUnit {
    fn from(t: SaTlb) -> TlbUnit {
        TlbUnit::Sa(t)
    }
}

impl From<SpTlb> for TlbUnit {
    fn from(t: SpTlb) -> TlbUnit {
        TlbUnit::Sp(t)
    }
}

impl From<RfTlb> for TlbUnit {
    fn from(t: RfTlb) -> TlbUnit {
        TlbUnit::Rf(t)
    }
}

impl From<TpTlb> for TlbUnit {
    fn from(t: TpTlb) -> TlbUnit {
        TlbUnit::Tp(t)
    }
}

impl From<MsTlb> for TlbUnit {
    fn from(t: MsTlb) -> TlbUnit {
        TlbUnit::Ms(Box::new(t))
    }
}

impl From<TlbHierarchy> for TlbUnit {
    fn from(t: TlbHierarchy) -> TlbUnit {
        TlbUnit::Hier(t)
    }
}

impl From<Box<dyn TlbCore>> for TlbUnit {
    fn from(t: Box<dyn TlbCore>) -> TlbUnit {
        TlbUnit::Dyn(t)
    }
}

/// Forwards one method call to the variant's concrete type. For the four
/// concrete variants this compiles to a direct call; only `Dyn` pays the
/// vtable.
macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            TlbUnit::Sa($t) => $body,
            TlbUnit::Sp($t) => $body,
            TlbUnit::Rf($t) => $body,
            TlbUnit::Tp($t) => $body,
            TlbUnit::Ms($t) => $body,
            TlbUnit::Hier($t) => $body,
            TlbUnit::Dyn($t) => $body,
        }
    };
}

impl TlbUnit {
    /// Handles one translation request (see [`TlbCore::access`]); the
    /// monomorphic fast path the machine's hot loop calls.
    #[inline]
    pub fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        dispatch!(self, t => t.access(asid, vpn, walker))
    }

    /// Residency probe without disturbing state (see [`TlbCore::probe`]).
    #[inline]
    pub fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        dispatch!(self, t => t.probe(asid, vpn))
    }

    /// Borrows the unit as the trait object the compatibility surface
    /// expects (read-only accessors, snapshots, diagnostics).
    pub fn as_core(&self) -> &dyn TlbCore {
        match self {
            TlbUnit::Sa(t) => t,
            TlbUnit::Sp(t) => t,
            TlbUnit::Rf(t) => t,
            TlbUnit::Tp(t) => t,
            TlbUnit::Ms(t) => &**t,
            TlbUnit::Hier(t) => t,
            TlbUnit::Dyn(t) => &**t,
        }
    }

    /// Mutable trait-object view (fault injection, manual programming).
    pub fn as_core_mut(&mut self) -> &mut dyn TlbCore {
        match self {
            TlbUnit::Sa(t) => t,
            TlbUnit::Sp(t) => t,
            TlbUnit::Rf(t) => t,
            TlbUnit::Tp(t) => t,
            TlbUnit::Ms(t) => &mut **t,
            TlbUnit::Hier(t) => t,
            TlbUnit::Dyn(t) => &mut **t,
        }
    }
}

impl sealed::Sealed for TlbUnit {}

impl TlbCore for TlbUnit {
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        TlbUnit::access(self, asid, vpn, walker)
    }

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        TlbUnit::probe(self, asid, vpn)
    }

    fn flush_all(&mut self) {
        dispatch!(self, t => t.flush_all())
    }

    fn flush_asid(&mut self, asid: Asid) {
        dispatch!(self, t => t.flush_asid(asid))
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        dispatch!(self, t => t.flush_page(asid, vpn))
    }

    fn stats(&self) -> &TlbStats {
        dispatch!(self, t => t.stats())
    }

    fn reset_stats(&mut self) {
        dispatch!(self, t => t.reset_stats())
    }

    fn config(&self) -> TlbConfig {
        dispatch!(self, t => t.config())
    }

    fn design_name(&self) -> &'static str {
        dispatch!(self, t => t.design_name())
    }

    fn level_stats(&self, level: usize) -> Option<&TlbStats> {
        dispatch!(self, t => t.level_stats(level))
    }

    fn probe_level(&self, level: usize, asid: Asid, vpn: Vpn) -> Option<bool> {
        dispatch!(self, t => t.probe_level(level, asid, vpn))
    }

    fn on_context_switch(&mut self) {
        dispatch!(self, t => t.on_context_switch())
    }

    fn replacement_pristine(&self) -> Option<bool> {
        dispatch!(self, t => t.replacement_pristine())
    }

    fn set_victim_asid(&mut self, victim: Option<Asid>) {
        dispatch!(self, t => t.set_victim_asid(victim))
    }

    fn set_secure_region(&mut self, region: Option<SecureRegion>) {
        dispatch!(self, t => t.set_secure_region(region))
    }

    fn reseed(&mut self, level: usize, seed: u64) {
        dispatch!(self, t => t.reseed(level, seed))
    }

    fn clone_box(&self) -> Box<dyn TlbCore> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        dispatch!(self, t => t.snapshot())
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        dispatch!(self, t => t.integrity())
    }

    fn corrupt_entry(&mut self, selector: u64, kind: CorruptionKind) -> Option<CorruptionReport> {
        dispatch!(self, t => t.corrupt_entry(selector, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb_trait::WalkResult;
    use crate::types::Ppn;

    struct Ident;
    impl Translator for Ident {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 + 7), 60)
        }
    }

    #[test]
    fn enum_and_dyn_paths_agree() {
        let config = TlbConfig::sa(16, 4).unwrap();
        let mut fast: TlbUnit = SaTlb::new(config).into();
        let mut slow: TlbUnit = (Box::new(SaTlb::new(config)) as Box<dyn TlbCore>).into();
        for v in [1u64, 2, 3, 1, 2, 17, 1] {
            let a = fast.access(Asid(1), Vpn(v), &mut Ident);
            let b = slow.access(Asid(1), Vpn(v), &mut Ident);
            assert_eq!(a, b, "vpn {v}");
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.snapshot(), slow.snapshot());
        assert_eq!(fast.design_name(), "SA");
        assert_eq!(slow.design_name(), "SA");
    }

    #[test]
    fn trait_surface_reaches_every_variant() {
        let config = TlbConfig::sa(32, 8).unwrap();
        let units: Vec<TlbUnit> = vec![
            SaTlb::new(config).into(),
            SpTlb::new(config).into(),
            RfTlb::new(config).into(),
            TlbHierarchy::new(
                Box::new(SaTlb::new(config)),
                Box::new(SaTlb::new(TlbConfig::sa(128, 4).unwrap())),
                8,
            )
            .into(),
        ];
        let names: Vec<_> = units.iter().map(|u| u.design_name()).collect();
        assert_eq!(names, ["SA", "SP", "RF", "L1+L2"]);
        for u in &units {
            assert_eq!(u.stats().accesses, 0);
            u.integrity().unwrap();
            assert!(u.snapshot().is_empty());
        }
    }
}
