//! Enum dispatch over the TLB organizations — the simulator's one TLB
//! path.
//!
//! The machine's per-access loop reaches its TLB through [`TlbUnit`]:
//! the single-level [`Tlb`] (SA, SP, RF, FS and FT), the multi-size
//! [`MsTlb`] and the two-level [`TlbHierarchy`] are enum variants
//! dispatched with a `match`, which the compiler turns into direct,
//! inlinable calls instead of a vtable call per translation. The
//! [`TlbCore`] trait remains the read-only and diagnostic surface:
//! `TlbUnit` implements it and hands out `&dyn TlbCore` views of its
//! variant.

use crate::check::{CorruptionKind, CorruptionReport, IntegrityError, SnapshotEntry};
use crate::config::TlbConfig;
use crate::hierarchy::TlbHierarchy;
use crate::multi::MsTlb;
use crate::set_assoc::Tlb;
use crate::stats::TlbStats;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, SecureRegion, Vpn};

/// A TLB of any design, dispatched by `match` instead of vtable.
///
/// The single-level variant is held inline while the others are a
/// pointer or two: every translation of a single-level machine reaches
/// it, and boxing it would put a pointer chase on the hit path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum TlbUnit {
    /// A single-level TLB: SA (also FA / 1E geometries), SP, RF, FS or
    /// FT.
    Single(Tlb),
    /// The multi-size split design. Boxed: its three class arrays would
    /// otherwise quadruple the enum's inline size for every design.
    /// Dispatch stays a direct (inlinable) call; only the state is
    /// behind the pointer.
    Ms(Box<MsTlb>),
    /// A two-level hierarchy.
    Hier(TlbHierarchy),
}

impl Clone for TlbUnit {
    fn clone(&self) -> TlbUnit {
        match self {
            TlbUnit::Single(t) => TlbUnit::Single(t.clone()),
            TlbUnit::Ms(t) => TlbUnit::Ms(t.clone()),
            TlbUnit::Hier(t) => TlbUnit::Hier(t.clone()),
        }
    }

    /// Restores a unit of the same organization in place, allocating
    /// nothing when the geometry matches too; a unit of another
    /// organization is cloned whole.
    fn clone_from(&mut self, source: &TlbUnit) {
        match (self, source) {
            (TlbUnit::Single(t), TlbUnit::Single(s)) => t.clone_from(s),
            (TlbUnit::Ms(t), TlbUnit::Ms(s)) => t.clone_from(s),
            (TlbUnit::Hier(t), TlbUnit::Hier(s)) => t.clone_from(s),
            (this, source) => *this = source.clone(),
        }
    }
}

impl From<Tlb> for TlbUnit {
    fn from(t: Tlb) -> TlbUnit {
        TlbUnit::Single(t)
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

/// Forwards one method call to the variant's concrete type; every arm
/// compiles to a direct call.
macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            TlbUnit::Single($t) => $body,
            TlbUnit::Ms($t) => $body,
            TlbUnit::Hier($t) => $body,
        }
    };
}

impl TlbUnit {
    /// Handles one translation request (see [`TlbCore::access`]); the
    /// monomorphic fast path the machine's hot loop calls. Inlined
    /// together with the single-level hit path, so a hit costs no call;
    /// misses and the other variants are out-of-line calls.
    #[inline(always)]
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
            TlbUnit::Single(t) => t,
            TlbUnit::Ms(t) => &**t,
            TlbUnit::Hier(t) => t,
        }
    }

    /// Mutable trait-object view (fault injection, manual programming).
    pub fn as_core_mut(&mut self) -> &mut dyn TlbCore {
        match self {
            TlbUnit::Single(t) => t,
            TlbUnit::Ms(t) => &mut **t,
            TlbUnit::Hier(t) => t,
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
    use crate::config::MultiConfig;
    use crate::temporal::ClearScope;

    #[test]
    fn trait_surface_reaches_every_variant() {
        let config = TlbConfig::sa(32, 8).unwrap();
        let units: Vec<TlbUnit> = vec![
            Tlb::sa(config).into(),
            Tlb::sp(config, 4).unwrap().into(),
            Tlb::rf(config, Default::default(), Default::default()).into(),
            Tlb::temporal(config, ClearScope::Entries).into(),
            Tlb::temporal(config, ClearScope::Full).into(),
            MsTlb::new(MultiConfig::from_base(config)).into(),
            TlbHierarchy::new(
                Tlb::sa(config).into(),
                Tlb::sa(TlbConfig::sa(128, 4).unwrap()).into(),
                8,
            )
            .into(),
        ];
        let names: Vec<_> = units.iter().map(|u| u.design_name()).collect();
        assert_eq!(names, ["SA", "SP", "RF", "FS", "FT", "MS", "L1+L2"]);
        for u in &units {
            assert_eq!(u.stats().accesses, 0);
            u.integrity().unwrap();
            assert!(u.snapshot().is_empty());
        }
    }
}
