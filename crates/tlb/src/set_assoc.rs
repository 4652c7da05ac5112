//! The standard set-associative (SA) TLB — the paper's baseline design.
//!
//! Hits require both the page address and the process ID (ASID) to match;
//! misses walk the page table and fill the LRU way of the indexed set.
//! Fully-associative (`FA`) and single-entry (`1E`) TLBs are degenerate
//! configurations of the same design.

use crate::array::EntryArray;
use crate::check::{
    CorruptionKind, CorruptionReport, IntegrityError, IntegrityKind, SnapshotEntry,
};
use crate::config::TlbConfig;
use crate::stats::TlbStats;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, TlbEntry, Vpn};

/// A standard set-associative TLB with ASID tags and true-LRU replacement.
#[derive(Debug, Clone)]
pub struct SaTlb {
    array: EntryArray,
    stats: TlbStats,
}

impl SaTlb {
    /// Creates an SA TLB with the given geometry.
    pub fn new(config: TlbConfig) -> SaTlb {
        SaTlb {
            array: EntryArray::new(config),
            stats: TlbStats::new(),
        }
    }

    /// Number of currently valid entries (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.array.valid_entries().count()
    }

    /// The underlying entry array (for designs composed on top of SA).
    pub(crate) fn array(&self) -> &EntryArray {
        &self.array
    }

    /// Mutable entry-array view (for designs composed on top of SA).
    pub(crate) fn array_mut(&mut self) -> &mut EntryArray {
        &mut self.array
    }

    /// Mutable counter view (for designs composed on top of SA).
    pub(crate) fn stats_mut(&mut self) -> &mut TlbStats {
        &mut self.stats
    }

    /// The miss half of [`TlbCore::access`]: walk, then fill the set's
    /// replacement choice. Out of line, so the hit path stays small
    /// enough to inline into the machine's batch loop.
    #[inline(never)]
    fn miss(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        self.stats.misses += 1;
        let walk = walker.translate(asid, vpn);
        let Some(ppn) = walk.ppn else {
            self.stats.faults += 1;
            return AccessResult {
                hit: false,
                fault: true,
                ppn: None,
                walk_cycles: walk.cycles,
                size: walk.size,
            };
        };
        let vpn_aligned = walk.size.align(vpn);
        let set = self.array.set_of_sized(vpn, walk.size);
        let way = self.array.choose_victim(set);
        let evicted = self.array.fill_at(
            set,
            way,
            TlbEntry {
                valid: true,
                vpn: vpn_aligned,
                ppn,
                asid,
                sec: false,
                size: walk.size,
            },
        );
        self.stats.fills += 1;
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        AccessResult {
            hit: false,
            fault: false,
            ppn: Some(ppn),
            walk_cycles: walk.cycles,
            size: walk.size,
        }
    }
}

impl sealed::Sealed for SaTlb {}

impl TlbCore for SaTlb {
    #[inline(always)]
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        self.stats.accesses += 1;
        if let Some((ppn, size)) = self.array.hit(asid, vpn) {
            self.stats.hits += 1;
            return AccessResult::hit_sized(ppn, size);
        }
        self.miss(asid, vpn, walker)
    }

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        self.array.lookup(asid, vpn).is_some()
    }

    fn flush_all(&mut self) {
        self.array.clear();
        self.stats.flushes += 1;
    }

    fn flush_asid(&mut self, asid: Asid) {
        let removed = self.array.invalidate_matching(|e| e.asid == asid);
        self.stats.invalidations += removed;
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        if let Some((set, way)) = self.array.lookup(asid, vpn) {
            self.array.invalidate_at(set, way);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    fn stats(&self) -> &TlbStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn config(&self) -> TlbConfig {
        self.array.config()
    }

    fn design_name(&self) -> &'static str {
        "SA"
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.array.snapshot_level(0)
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        self.array.check_geometry()?;
        // The SA design never sets the Sec bit.
        for e in self.array.valid_entries() {
            if e.sec {
                return Err(IntegrityError {
                    kind: IntegrityKind::SecBit,
                    detail: format!(
                        "SA entry ({}, {}) has its Sec bit set; the SA design never sets it",
                        e.asid, e.vpn
                    ),
                });
            }
        }
        Ok(())
    }

    fn corrupt_entry(&mut self, selector: u64, kind: CorruptionKind) -> Option<CorruptionReport> {
        self.array
            .corrupt_nth(selector, kind)
            .map(|(set, way, before, after)| CorruptionReport {
                level: 0,
                set,
                way,
                kind,
                before,
                after,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb_trait::WalkResult;
    use crate::types::Ppn;

    /// Identity translator charging a fixed walk cost.
    pub(crate) struct Ident(pub u64);
    impl Translator for Ident {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 ^ 0xabc00), self.0)
        }
    }

    /// Translator that always faults.
    struct Faulting;
    impl Translator for Faulting {
        fn translate(&mut self, _asid: Asid, _vpn: Vpn) -> WalkResult {
            WalkResult::fault(30)
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        let r1 = t.access(Asid(1), Vpn(0x10), &mut Ident(60));
        assert!(!r1.hit);
        assert_eq!(r1.walk_cycles, 60);
        let r2 = t.access(Asid(1), Vpn(0x10), &mut Ident(60));
        assert!(r2.hit);
        assert_eq!(r2.walk_cycles, 0);
        assert_eq!(r1.ppn, r2.ppn);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn hits_require_matching_asid() {
        // The ASID check is what defends the 10 external vulnerabilities in
        // Table 4 (Flush + Reload, Evict + Probe, Prime + Time).
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(0x10), &mut Ident(60));
        let r = t.access(Asid(2), Vpn(0x10), &mut Ident(60));
        assert!(!r.hit, "cross-ASID access must miss");
    }

    #[test]
    fn set_conflicts_evict_lru() {
        // 2 sets x 2 ways: three pages in the same set overflow it.
        let mut t = SaTlb::new(TlbConfig::sa(4, 2).unwrap());
        let (a, b, c) = (Vpn(0), Vpn(2), Vpn(4)); // all map to set 0
        t.access(Asid(1), a, &mut Ident(1));
        t.access(Asid(1), b, &mut Ident(1));
        t.access(Asid(1), c, &mut Ident(1)); // evicts a (LRU)
        assert!(!t.probe(Asid(1), a));
        assert!(t.probe(Asid(1), b));
        assert!(t.probe(Asid(1), c));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn fully_associative_has_no_set_conflicts() {
        let mut t = SaTlb::new(TlbConfig::fa(4).unwrap());
        for v in [0u64, 4, 8, 12] {
            t.access(Asid(1), Vpn(v), &mut Ident(1));
        }
        for v in [0u64, 4, 8, 12] {
            assert!(t.probe(Asid(1), Vpn(v)), "vpn {v} evicted in FA TLB");
        }
    }

    #[test]
    fn single_entry_thrashes() {
        let mut t = SaTlb::new(TlbConfig::single_entry());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        t.access(Asid(1), Vpn(2), &mut Ident(1));
        assert!(!t.probe(Asid(1), Vpn(1)));
        assert!(t.probe(Asid(1), Vpn(2)));
    }

    #[test]
    fn faults_do_not_fill() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        let r = t.access(Asid(1), Vpn(0x99), &mut Faulting);
        assert!(r.fault && r.ppn.is_none());
        assert_eq!(t.stats().faults, 1);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn flush_all_empties_the_tlb() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        for v in 0..10u64 {
            t.access(Asid(1), Vpn(v), &mut Ident(1));
        }
        t.flush_all();
        assert_eq!(t.resident_count(), 0);
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        t.access(Asid(2), Vpn(2), &mut Ident(1));
        t.flush_asid(Asid(1));
        assert!(!t.probe(Asid(1), Vpn(1)));
        assert!(t.probe(Asid(2), Vpn(2)));
    }

    #[test]
    fn flush_page_reports_presence() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        assert!(t.flush_page(Asid(1), Vpn(1)), "entry was present");
        assert!(!t.flush_page(Asid(1), Vpn(1)), "entry already gone");
    }

    #[test]
    fn one_megapage_entry_covers_all_its_base_pages() {
        use crate::types::PageSize;
        /// A walker that maps everything under one 2 MiB page at 0x200.
        struct MegaWalker;
        impl Translator for MegaWalker {
            fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
                WalkResult::mega(Ppn(0x999), PageSize::Mega.align(vpn).0)
            }
        }
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        let r = t.access(Asid(1), Vpn(0x205), &mut MegaWalker);
        assert!(!r.hit);
        // Different 4 KiB pages (even in different would-be sets) hit the
        // same megapage entry: the per-page signal disappears.
        for vpn in [0x200u64, 0x207, 0x2ff, 0x3ff] {
            let r = t.access(Asid(1), Vpn(vpn), &mut MegaWalker);
            assert!(r.hit, "vpn {vpn:#x} should hit the mega entry");
        }
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn probe_does_not_perturb_state_or_stats() {
        let mut t = SaTlb::new(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        let before = *t.stats();
        for _ in 0..5 {
            t.probe(Asid(1), Vpn(1));
            t.probe(Asid(1), Vpn(999));
        }
        assert_eq!(*t.stats(), before);
    }
}
