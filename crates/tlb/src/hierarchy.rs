//! A two-level TLB hierarchy.
//!
//! Section 4 of the paper scopes its designs to the L1 D-TLB but notes
//! they apply to "other levels of TLB as well". This module composes two
//! designs into an L1 + L2 hierarchy: an L1 miss is serviced by the L2
//! (at [`TlbHierarchy::l2_latency`] cycles), and only an L2 miss walks the
//! page table. Any design can sit at either level — which lets the
//! reproduction demonstrate that protecting *only* the L1 leaks through
//! the L2 (see `sectlb-workloads::l2_attack`).
//!
//! The composition reuses the [`Translator`] interface: from the L1's
//! perspective, the L2 simply *is* its page-table walker. Both levels are
//! [`TlbUnit`]s, so each level's hit path is the same enum-dispatched
//! code a single-level machine runs.

use crate::check::{CorruptionKind, CorruptionReport, IntegrityError, SnapshotEntry};
use crate::config::TlbConfig;
use crate::dispatch::TlbUnit;
use crate::stats::TlbStats;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator, WalkResult};
use crate::types::{Asid, SecureRegion, Vpn};

/// A two-level TLB: an L1 design backed by an L2 design.
///
/// The levels are boxed: a hierarchy is itself a [`TlbUnit`] variant, so
/// holding the units inline would make the type infinitely large.
/// `clone_from` restores both levels in their boxes.
#[derive(Debug)]
pub struct TlbHierarchy {
    l1: Box<TlbUnit>,
    l2: Box<TlbUnit>,
    l2_latency: u64,
}

clone_in_place!(TlbHierarchy { l1, l2, l2_latency });

/// Adapter presenting the L2 (plus the real walker behind it) as the L1's
/// page-table walker.
struct L2AsWalker<'a> {
    l2: &'a mut TlbUnit,
    walker: &'a mut dyn Translator,
    l2_latency: u64,
}

impl Translator for L2AsWalker<'_> {
    fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
        let r = self.l2.access(asid, vpn, self.walker);
        WalkResult {
            ppn: r.ppn,
            cycles: self.l2_latency + r.walk_cycles,
            size: r.size,
        }
    }
}

impl TlbHierarchy {
    /// Composes `l1` backed by `l2`, with an L2 hit costing `l2_latency`
    /// cycles.
    pub fn new(l1: TlbUnit, l2: TlbUnit, l2_latency: u64) -> TlbHierarchy {
        TlbHierarchy {
            l1: Box::new(l1),
            l2: Box::new(l2),
            l2_latency,
        }
    }

    /// The L2 hit latency in cycles.
    pub fn l2_latency(&self) -> u64 {
        self.l2_latency
    }

    /// The L1 level.
    pub fn l1(&self) -> &dyn TlbCore {
        self.l1.as_core()
    }

    /// The L2 level.
    pub fn l2(&self) -> &dyn TlbCore {
        self.l2.as_core()
    }
}

impl sealed::Sealed for TlbHierarchy {}

impl TlbCore for TlbHierarchy {
    /// Out of line: [`TlbUnit::access`] is `#[inline(always)]` and
    /// dispatches here, and this calls it again for each level.
    #[inline(never)]
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        let mut backed = L2AsWalker {
            l2: &mut self.l2,
            walker,
            l2_latency: self.l2_latency,
        };
        self.l1.access(asid, vpn, &mut backed)
    }

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        self.l1.probe(asid, vpn) || self.l2.probe(asid, vpn)
    }

    fn flush_all(&mut self) {
        self.l1.flush_all();
        self.l2.flush_all();
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.l1.flush_asid(asid);
        self.l2.flush_asid(asid);
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        // Shootdowns must clear every level; timing reflects either level
        // having held the entry.
        let in_l1 = self.l1.flush_page(asid, vpn);
        let in_l2 = self.l2.flush_page(asid, vpn);
        in_l1 || in_l2
    }

    fn stats(&self) -> &TlbStats {
        self.l1.stats()
    }

    fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    fn config(&self) -> TlbConfig {
        self.l1.config()
    }

    fn design_name(&self) -> &'static str {
        "L1+L2"
    }

    fn level_stats(&self, level: usize) -> Option<&TlbStats> {
        match level {
            0 => Some(self.l1.stats()),
            1 => Some(self.l2.stats()),
            _ => None,
        }
    }

    fn probe_level(&self, level: usize, asid: Asid, vpn: Vpn) -> Option<bool> {
        match level {
            0 => Some(self.l1.probe(asid, vpn)),
            1 => Some(self.l2.probe(asid, vpn)),
            _ => None,
        }
    }

    fn on_context_switch(&mut self) {
        self.l1.on_context_switch();
        self.l2.on_context_switch();
    }

    fn replacement_pristine(&self) -> Option<bool> {
        // The hierarchy claims pristineness only where a level claims it;
        // a claiming level must hold (non-temporal levels stay `None`).
        match (
            self.l1.replacement_pristine(),
            self.l2.replacement_pristine(),
        ) {
            (None, None) => None,
            (a, b) => Some(a != Some(false) && b != Some(false)),
        }
    }

    fn set_victim_asid(&mut self, victim: Option<Asid>) {
        self.l1.set_victim_asid(victim);
        self.l2.set_victim_asid(victim);
    }

    fn set_secure_region(&mut self, region: Option<SecureRegion>) {
        self.l1.set_secure_region(region);
        self.l2.set_secure_region(region);
    }

    fn reseed(&mut self, level: usize, seed: u64) {
        match level {
            0 => self.l1.reseed(0, seed),
            l => self.l2.reseed(l - 1, seed),
        }
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        let mut out = self.l1.snapshot();
        out.extend(self.l2.snapshot().into_iter().map(|mut s| {
            s.level += 1;
            s
        }));
        out
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        self.l1.integrity().map_err(|mut e| {
            e.detail = format!("L1: {}", e.detail);
            e
        })?;
        self.l2.integrity().map_err(|mut e| {
            e.detail = format!("L2: {}", e.detail);
            e
        })
    }

    fn corrupt_entry(&mut self, selector: u64, kind: CorruptionKind) -> Option<CorruptionReport> {
        self.l1.corrupt_entry(selector, kind).or_else(|| {
            self.l2.corrupt_entry(selector, kind).map(|mut r| {
                r.level += 1;
                r
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::Tlb;
    use crate::types::Ppn;

    struct Ident;
    impl Translator for Ident {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 + 7), 60)
        }
    }

    fn hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(
            Tlb::sa(TlbConfig::sa(8, 4).expect("valid")).into(),
            Tlb::sa(TlbConfig::sa(64, 4).expect("valid")).into(),
            8,
        )
    }

    #[test]
    fn reseed_reaches_each_level_and_clones_run_alike() {
        let rf_pair = |l1, l2| TlbHierarchy::new(mk_rf(l1).into(), mk_rf(l2).into(), 8);
        let mut reseeded = rf_pair(3, 5);
        reseeded.reseed(0, 11);
        reseeded.reseed(1, 13);
        let mut copy = reseeded.clone();
        let mut built = rf_pair(11, 13);
        for i in 0..60u64 {
            let (asid, vpn) = (Asid(1 + (i % 2) as u16), Vpn(0x100 + i % 5));
            let r = built.access(asid, vpn, &mut Ident);
            assert_eq!(reseeded.access(asid, vpn, &mut Ident), r, "access {i}");
            assert_eq!(copy.access(asid, vpn, &mut Ident), r, "clone, access {i}");
        }
        for t in [&reseeded, &copy] {
            assert_eq!(t.snapshot(), built.snapshot());
            assert_eq!(t.level_stats(1), built.level_stats(1));
        }
    }

    #[test]
    fn three_latency_classes() {
        let mut h = hierarchy();
        let (asid, vpn) = (Asid(1), Vpn(0x40));
        // Cold: L1 miss + L2 miss + walk.
        let cold = h.access(asid, vpn, &mut Ident);
        assert!(!cold.hit);
        assert_eq!(cold.walk_cycles, 8 + 60);
        // Warm: L1 hit, free.
        let warm = h.access(asid, vpn, &mut Ident);
        assert!(warm.hit);
        assert_eq!(warm.walk_cycles, 0);
        // Evict from L1 only (small L1, big L2): L2 hit.
        for i in 1..=8u64 {
            h.access(asid, Vpn(0x40 + i * 2), &mut Ident); // same L1 set
        }
        assert!(!h.l1().probe(asid, vpn));
        assert!(h.l2().probe(asid, vpn));
        let l2_hit = h.access(asid, vpn, &mut Ident);
        assert!(!l2_hit.hit, "an L1 miss, even if L2 hits");
        assert_eq!(l2_hit.walk_cycles, 8, "L2 hit pays only the L2 latency");
    }

    #[test]
    fn level_stats_distinguish_levels() {
        let mut h = hierarchy();
        h.access(Asid(1), Vpn(1), &mut Ident);
        h.access(Asid(1), Vpn(1), &mut Ident);
        assert_eq!(h.level_stats(0).expect("L1").accesses, 2);
        assert_eq!(h.level_stats(1).expect("L2").accesses, 1, "only the miss");
        assert!(h.level_stats(2).is_none());
    }

    #[test]
    fn flushes_cascade_to_both_levels() {
        let mut h = hierarchy();
        h.access(Asid(1), Vpn(5), &mut Ident);
        assert!(h.probe(Asid(1), Vpn(5)));
        h.flush_all();
        assert!(!h.l1().probe(Asid(1), Vpn(5)));
        assert!(!h.l2().probe(Asid(1), Vpn(5)));
        // Targeted shootdown clears both levels too.
        h.access(Asid(1), Vpn(5), &mut Ident);
        assert!(h.flush_page(Asid(1), Vpn(5)));
        assert!(!h.probe(Asid(1), Vpn(5)));
    }

    #[test]
    fn rf_l1_leaks_secure_translations_into_an_sa_l2() {
        // The hierarchy-security hazard: the RF L1 never caches a secure
        // translation, but its no-fill lookups flow through the L2, which
        // caches them deterministically.
        // Seed chosen so the RFE's random fill picks a page other than the
        // requested one (the fill may coincidentally pick 0x100 itself
        // under other seeds, which would make the L1 check vacuous).
        let l1 = mk_rf(1);
        let l2 = Tlb::sa(TlbConfig::sa(64, 4).expect("valid"));
        let mut h = TlbHierarchy::new(l1.into(), l2.into(), 8);
        h.access(Asid(1), Vpn(0x100), &mut Ident);
        assert!(
            !h.l1().probe(Asid(1), Vpn(0x100)),
            "RF L1 does not fill the requested page under this seed"
        );
        assert!(
            h.l2().probe(Asid(1), Vpn(0x100)),
            "...but the SA L2 now holds the secret translation"
        );
    }

    /// An 8-entry RF TLB protecting a 3-page region of ASID 1.
    fn mk_rf(seed: u64) -> Tlb {
        let config = TlbConfig::sa(8, 4).expect("valid");
        let mut t = Tlb::rf(config, Default::default(), Default::default());
        t.reseed(0, seed);
        t.set_victim_asid(Some(Asid(1)));
        t.set_secure_region(Some(SecureRegion::new(Vpn(0x100), 3)));
        t
    }

    #[test]
    fn rf_at_both_levels_closes_the_leak() {
        let mut h = TlbHierarchy::new(mk_rf(3).into(), mk_rf(5).into(), 8);
        // The request itself is served through no-fill buffers at both
        // levels; only *random* secure pages may become resident.
        let r = h.access(Asid(1), Vpn(0x100), &mut Ident);
        assert!(!r.hit && !r.fault);
        // Whether 0x102 became resident is up to the fill RNG; probing
        // must simply not fault either way.
        let _ = h.l1().probe(Asid(1), Vpn(0x102));
        // Deterministic statement: the L2's fill for the *requested* page
        // never happened directly — its no-fill counter advanced.
        assert!(h.level_stats(1).expect("L2").no_fill_responses >= 1);
    }
}
