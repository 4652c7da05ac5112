//! Temporal-partitioning TLB designs: flush-on-switch (`FS`) and
//! `fence.t`-style full state clearing (`FT`).
//!
//! Where the paper's SP and RF designs partition the TLB *spatially*
//! (Section 4), the strongest known mitigation family partitions it
//! *temporally*: clear all microarchitectural state at every security
//! domain switch, so nothing observable survives from one domain's
//! execution into the next (Wistoff et al., "Systematic Prevention of
//! On-Core Timing Channels by Full Temporal Partitioning").
//!
//! Both designs here are the standard SA TLB plus a hardware hook on
//! context switch:
//!
//! - **`FS` (flush-on-switch)** invalidates every entry but leaves the
//!   per-set replacement ranks behind — the cheap clear an OS gets from an
//!   architectural full flush. The stale ranks are *timing-unobservable*
//!   (an empty set refills every way with fresh ranks before LRU is ever
//!   consulted), so `FS` times exactly like an OS-driven flush policy.
//! - **`FT` (`fence.t`)** additionally resets the replacement state, the
//!   way a `fence.t` instruction clears *all* state a domain could have
//!   influenced. The two designs are timing-equivalent in this model;
//!   they differ only in the state residue the shadow oracle can see,
//!   which is exactly why `fence.t` exists — entry flushing alone leaves
//!   replacement residue that richer replacement policies could leak
//!   through.

use crate::array::EntryArray;
use crate::check::{CorruptionKind, CorruptionReport, IntegrityError, SnapshotEntry};
use crate::config::TlbConfig;
use crate::set_assoc::SaTlbGen;
use crate::stats::TlbStats;
use crate::store::{AosProfile, SoaProfile, StoreProfile};
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, Vpn};

/// How much state a temporal-partitioning design clears on context
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClearScope {
    /// Invalidate every entry; replacement ranks keep their values (`FS`).
    Entries,
    /// Invalidate every entry *and* reset replacement state (`FT`).
    Full,
}

/// A temporal-partitioning TLB: the SA design plus a state clear on every
/// context switch, generic over the entry-storage profile.
#[derive(Debug, Clone)]
pub struct TpTlbGen<P: StoreProfile = SoaProfile> {
    inner: SaTlbGen<P>,
    scope: ClearScope,
}

/// The temporal-partitioning TLB on the struct-of-arrays fast path.
pub type TpTlb = TpTlbGen<SoaProfile>;

/// The temporal-partitioning TLB on the reference storage (differential
/// tests).
pub type TpTlbRef = TpTlbGen<AosProfile>;

impl<P: StoreProfile> TpTlbGen<P> {
    /// Creates a temporal-partitioning TLB with the given geometry and
    /// clear scope.
    pub fn new(config: TlbConfig, scope: ClearScope) -> TpTlbGen<P> {
        TpTlbGen {
            inner: SaTlbGen::new(config),
            scope,
        }
    }

    /// The flush-on-switch design (`FS`).
    pub fn flush_on_switch(config: TlbConfig) -> TpTlbGen<P> {
        TpTlbGen::new(config, ClearScope::Entries)
    }

    /// The `fence.t` full-clear design (`FT`).
    pub fn fence_t(config: TlbConfig) -> TpTlbGen<P> {
        TpTlbGen::new(config, ClearScope::Full)
    }

    /// This design's clear scope.
    pub fn scope(&self) -> ClearScope {
        self.scope
    }

    /// Number of currently valid entries (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.inner.resident_count()
    }

    fn array(&self) -> &EntryArray<P> {
        self.inner.array()
    }
}

impl<P: StoreProfile> sealed::Sealed for TpTlbGen<P> {}

impl<P: StoreProfile> TlbCore for TpTlbGen<P> {
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        self.inner.access(asid, vpn, walker)
    }

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        self.inner.probe(asid, vpn)
    }

    fn flush_all(&mut self) {
        self.inner.flush_all();
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.inner.flush_asid(asid);
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        self.inner.flush_page(asid, vpn)
    }

    fn stats(&self) -> &TlbStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn config(&self) -> TlbConfig {
        self.inner.config()
    }

    fn design_name(&self) -> &'static str {
        match self.scope {
            ClearScope::Entries => "FS",
            ClearScope::Full => "FT",
        }
    }

    fn clone_box(&self) -> Box<dyn TlbCore> {
        Box::new(self.clone())
    }

    fn on_context_switch(&mut self) {
        match self.scope {
            ClearScope::Entries => self.inner.array_mut().clear_entries_keep_ranks(),
            ClearScope::Full => self.inner.array_mut().clear(),
        }
        self.inner.stats_mut().flushes += 1;
    }

    fn replacement_pristine(&self) -> Option<bool> {
        match self.scope {
            // `FS` makes no claim about replacement state; its ranks
            // legitimately carry residue across switches.
            ClearScope::Entries => None,
            ClearScope::Full => Some(self.array().replacement_pristine()),
        }
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.inner.snapshot()
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        self.inner.integrity()
    }

    fn corrupt_entry(&mut self, selector: u64, kind: CorruptionKind) -> Option<CorruptionReport> {
        self.inner.corrupt_entry(selector, kind)
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
            WalkResult::page(Ppn(vpn.0 + 50), 60)
        }
    }

    fn config() -> TlbConfig {
        TlbConfig::security_eval()
    }

    #[test]
    fn behaves_like_sa_between_switches() {
        let mut tp = TpTlb::flush_on_switch(config());
        let mut sa = crate::set_assoc::SaTlb::new(config());
        for v in [1u64, 2, 3, 1, 2, 17, 1, 40, 3] {
            let a = tp.access(Asid(1), Vpn(v), &mut Ident);
            let b = sa.access(Asid(1), Vpn(v), &mut Ident);
            assert_eq!(a, b, "vpn {v}");
        }
        assert_eq!(tp.stats(), sa.stats());
        assert_eq!(tp.snapshot(), sa.snapshot());
    }

    #[test]
    fn context_switch_empties_both_designs() {
        for mut t in [TpTlb::flush_on_switch(config()), TpTlb::fence_t(config())] {
            for v in 0..10u64 {
                t.access(Asid(1), Vpn(v), &mut Ident);
            }
            assert_eq!(t.resident_count(), 10);
            t.on_context_switch();
            assert_eq!(t.resident_count(), 0, "{}", t.design_name());
            assert_eq!(t.stats().flushes, 1);
            for v in 0..10u64 {
                assert!(!t.probe(Asid(1), Vpn(v)));
            }
        }
    }

    #[test]
    fn fence_t_clears_replacement_residue_but_fs_does_not_claim_to() {
        let mut fs = TpTlb::flush_on_switch(config());
        let mut ft = TpTlb::fence_t(config());
        for t in [&mut fs, &mut ft] {
            // Touch enough pages to skew the ranks.
            for v in 0..16u64 {
                t.access(Asid(1), Vpn(v), &mut Ident);
            }
            t.on_context_switch();
        }
        assert_eq!(fs.replacement_pristine(), None, "FS makes no claim");
        assert_eq!(ft.replacement_pristine(), Some(true));
        // FS really does leave residue behind — the very reason fence.t
        // clears replacement state too.
        assert!(!fs.array().replacement_pristine());
    }

    #[test]
    fn design_names_distinguish_the_scopes() {
        assert_eq!(TpTlb::flush_on_switch(config()).design_name(), "FS");
        assert_eq!(TpTlb::fence_t(config()).design_name(), "FT");
        assert_eq!(
            TpTlb::flush_on_switch(config()).scope(),
            ClearScope::Entries
        );
    }

    #[test]
    fn sa_replacement_claim_stays_none() {
        // The default hook: non-temporal designs never claim pristineness.
        let sa = crate::set_assoc::SaTlb::new(config());
        assert_eq!(sa.replacement_pristine(), None);
    }
}
