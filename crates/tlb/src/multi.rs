//! The multi-size split TLB (`MS`): one entry class per page size.
//!
//! Commercial L1 D-TLBs are not the single-geometry arrays of the paper's
//! evaluation: they hold separate 4 KiB / 2 MiB / 1 GiB structures with
//! distinct entries and ways per class (e.g. Skylake's 64-entry 4K,
//! 32-entry 2M, 4-entry 1G split). This design models that organization:
//! three independent [`EntryArray`]s — one per [`PageSize`] class, each
//! with its own [`TlbConfig`] geometry from a [`MultiConfig`] — probed
//! smallest-class-first on every access, with fills steered to the class
//! matching the walked translation's size.
//!
//! The class arrays are fully isolated: a fill in one class can never
//! evict or perturb another class's entries or replacement state. That
//! isolation is a checkable invariant ([`IntegrityKind::ClassIsolation`]):
//! every resident entry's page size must equal its class array's
//! granularity.
//!
//! Snapshot coordinates reuse the `level` field for the class index
//! (0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB), the same way the two-level
//! hierarchy numbers its levels.

use crate::array::EntryArray;
use crate::check::{
    CorruptionKind, CorruptionReport, IntegrityError, IntegrityKind, SnapshotEntry,
};
use crate::config::{MultiConfig, TlbConfig};
use crate::stats::TlbStats;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, PageSize, TlbEntry, Vpn};

/// The multi-size split TLB.
#[derive(Debug, Clone)]
pub struct MsTlb {
    /// One array per page-size class, indexed by [`PageSize::ALL`] order.
    classes: [EntryArray; 3],
    multi: MultiConfig,
    stats: TlbStats,
}

/// The class index a page size maps to (its position in
/// [`PageSize::ALL`]).
fn class_index(size: PageSize) -> usize {
    match size {
        PageSize::Base => 0,
        PageSize::Mega => 1,
        PageSize::Giga => 2,
    }
}

impl MsTlb {
    /// Creates a multi-size TLB with the given per-class geometry.
    pub fn new(multi: MultiConfig) -> MsTlb {
        MsTlb {
            classes: [
                EntryArray::new(multi.base),
                EntryArray::new(multi.mega),
                EntryArray::new(multi.giga),
            ],
            multi,
            stats: TlbStats::new(),
        }
    }

    /// The per-class geometry.
    pub fn multi_config(&self) -> MultiConfig {
        self.multi
    }

    /// Number of currently valid entries across all classes.
    pub fn resident_count(&self) -> usize {
        self.classes.iter().map(|c| c.valid_entries().count()).sum()
    }

    /// Finds `(class, set, way)` of a resident translation, probing the
    /// classes smallest first.
    fn find(&self, asid: Asid, vpn: Vpn) -> Option<(usize, usize, usize)> {
        self.classes
            .iter()
            .enumerate()
            .find_map(|(class, array)| array.lookup(asid, vpn).map(|(set, way)| (class, set, way)))
    }
}

impl sealed::Sealed for MsTlb {}

impl TlbCore for MsTlb {
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        self.stats.accesses += 1;
        if let Some((ppn, size)) = self.classes.iter_mut().find_map(|c| c.hit(asid, vpn)) {
            self.stats.hits += 1;
            return AccessResult::hit_sized(ppn, size);
        }
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
        // Steer the fill to the class matching the translation's size;
        // the other classes are untouched (class isolation).
        let array = &mut self.classes[class_index(walk.size)];
        let set = array.set_of_sized(vpn, walk.size);
        let way = array.choose_victim(set);
        let evicted = array.fill_at(
            set,
            way,
            TlbEntry {
                valid: true,
                vpn: walk.size.align(vpn),
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

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        self.find(asid, vpn).is_some()
    }

    fn flush_all(&mut self) {
        for array in &mut self.classes {
            array.clear();
        }
        self.stats.flushes += 1;
    }

    fn flush_asid(&mut self, asid: Asid) {
        for array in &mut self.classes {
            self.stats.invalidations += array.invalidate_matching(|e| e.asid == asid);
        }
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        if let Some((class, set, way)) = self.find(asid, vpn) {
            self.classes[class].invalidate_at(set, way);
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

    /// The 4 KiB class's geometry — the class every single-size workload
    /// exercises. Use [`MsTlb::multi_config`] for the full split.
    fn config(&self) -> TlbConfig {
        self.multi.base
    }

    fn design_name(&self) -> &'static str {
        "MS"
    }

    fn probe_level(&self, level: usize, asid: Asid, vpn: Vpn) -> Option<bool> {
        self.classes
            .get(level)
            .map(|array| array.lookup(asid, vpn).is_some())
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.classes
            .iter()
            .enumerate()
            .flat_map(|(class, array)| array.snapshot_level(class))
            .collect()
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        for (class, array) in self.classes.iter().enumerate() {
            array.check_geometry()?;
            let class_size = PageSize::ALL[class];
            for e in array.valid_entries() {
                if e.size != class_size {
                    return Err(IntegrityError {
                        kind: IntegrityKind::ClassIsolation,
                        detail: format!(
                            "{} entry ({}, {}) resides in the {} class array",
                            e.size.label(),
                            e.asid,
                            e.vpn,
                            class_size.label()
                        ),
                    });
                }
                if e.sec {
                    return Err(IntegrityError {
                        kind: IntegrityKind::SecBit,
                        detail: format!(
                            "MS entry ({}, {}) has its Sec bit set; the MS design never sets it",
                            e.asid, e.vpn
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn corrupt_entry(&mut self, selector: u64, kind: CorruptionKind) -> Option<CorruptionReport> {
        // Spread the selector across the classes' eligible entries so
        // fault injection reaches every class; Sec corruption is only
        // defined on base pages, matching the per-array rule.
        let counts: Vec<u64> = self
            .classes
            .iter()
            .map(|array| {
                array
                    .valid_entries()
                    .filter(|e| kind != CorruptionKind::Sec || e.size == PageSize::Base)
                    .count() as u64
            })
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mut target = selector % total;
        for (class, count) in counts.iter().enumerate() {
            if target < *count {
                return self.classes[class].corrupt_nth(target, kind).map(
                    |(set, way, before, after)| CorruptionReport {
                        level: class,
                        set,
                        way,
                        kind,
                        before,
                        after,
                    },
                );
            }
            target -= count;
        }
        unreachable!("target < total implies a class is found")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::SaTlb;
    use crate::tlb_trait::WalkResult;
    use crate::types::Ppn;

    /// Walker mapping three address ranges at three granularities:
    /// gigapages above 0x4_0000, megapages above 0x1000, base below.
    struct SizedWalker;
    impl Translator for SizedWalker {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            if vpn.0 >= 0x4_0000 {
                WalkResult::giga(Ppn(PageSize::Giga.align(vpn).0 + 1), 90)
            } else if vpn.0 >= 0x1000 {
                WalkResult::mega(Ppn(PageSize::Mega.align(vpn).0 + 2), 75)
            } else {
                WalkResult::page(Ppn(vpn.0 + 3), 60)
            }
        }
    }

    #[test]
    fn base_only_workloads_match_sa_exactly() {
        // With a from_base split the 4 KiB class *is* the SA TLB: same
        // hits, misses, victims, and final contents. The security
        // campaign's closed-form theory relies on this equivalence.
        let base = TlbConfig::security_eval();
        let mut ms = MsTlb::new(MultiConfig::from_base(base));
        let mut sa = SaTlb::new(base);
        for v in [1u64, 2, 3, 1, 9, 2, 17, 1, 40, 3, 9, 77, 1] {
            for asid in [1u16, 2] {
                let a = ms.access(Asid(asid), Vpn(v), &mut SizedWalker);
                let b = sa.access(Asid(asid), Vpn(v), &mut SizedWalker);
                assert_eq!(a, b, "asid {asid} vpn {v}");
            }
        }
        assert_eq!(ms.stats(), sa.stats());
        assert_eq!(ms.snapshot(), sa.snapshot());
        ms.integrity().unwrap();
    }

    #[test]
    fn fills_land_in_their_size_class() {
        let mut ms = MsTlb::new(MultiConfig::realistic());
        ms.access(Asid(1), Vpn(5), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x1234), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x5_4321), &mut SizedWalker);
        let snap = ms.snapshot();
        let levels: Vec<usize> = snap.iter().map(|s| s.level).collect();
        assert_eq!(levels, [0, 1, 2]);
        assert_eq!(snap[0].entry.size, PageSize::Base);
        assert_eq!(snap[1].entry.size, PageSize::Mega);
        assert_eq!(snap[2].entry.size, PageSize::Giga);
        ms.integrity().unwrap();
        // All three hit on re-access, through any page inside the spans.
        assert!(ms.access(Asid(1), Vpn(5), &mut SizedWalker).hit);
        assert!(ms.access(Asid(1), Vpn(0x13ff), &mut SizedWalker).hit);
        assert!(ms.access(Asid(1), Vpn(0x7_ffff), &mut SizedWalker).hit);
    }

    #[test]
    fn classes_are_isolated_under_pressure() {
        // Thrash the 4 KiB class far past its capacity; the large-page
        // entries must survive untouched.
        let mut ms = MsTlb::new(MultiConfig::from_base(TlbConfig::security_eval()));
        ms.access(Asid(1), Vpn(0x1234), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x5_4321), &mut SizedWalker);
        for v in 0..256u64 {
            ms.access(Asid(1), Vpn(v), &mut SizedWalker);
        }
        assert!(ms.probe(Asid(1), Vpn(0x1234)), "mega entry evicted");
        assert!(ms.probe(Asid(1), Vpn(0x5_4321)), "giga entry evicted");
        ms.integrity().unwrap();
    }

    #[test]
    fn probe_level_addresses_each_class() {
        let mut ms = MsTlb::new(MultiConfig::realistic());
        ms.access(Asid(1), Vpn(0x1234), &mut SizedWalker);
        assert_eq!(ms.probe_level(0, Asid(1), Vpn(0x1234)), Some(false));
        assert_eq!(ms.probe_level(1, Asid(1), Vpn(0x1234)), Some(true));
        assert_eq!(ms.probe_level(2, Asid(1), Vpn(0x1234)), Some(false));
        assert_eq!(ms.probe_level(3, Asid(1), Vpn(0x1234)), None);
    }

    #[test]
    fn flushes_cover_every_class() {
        let mut ms = MsTlb::new(MultiConfig::realistic());
        ms.access(Asid(1), Vpn(5), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x1234), &mut SizedWalker);
        ms.access(Asid(2), Vpn(0x5_4321), &mut SizedWalker);
        ms.flush_asid(Asid(1));
        assert_eq!(ms.resident_count(), 1);
        assert!(ms.probe(Asid(2), Vpn(0x5_4321)));
        assert!(ms.flush_page(Asid(2), Vpn(0x5_0000)), "giga page present");
        assert_eq!(ms.resident_count(), 0);
        ms.access(Asid(1), Vpn(5), &mut SizedWalker);
        ms.flush_all();
        assert_eq!(ms.resident_count(), 0);
        assert_eq!(ms.stats().flushes, 1);
    }

    #[test]
    fn corruption_reaches_every_class_and_reports_it() {
        let mut ms = MsTlb::new(MultiConfig::realistic());
        ms.access(Asid(1), Vpn(5), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x1234), &mut SizedWalker);
        ms.access(Asid(1), Vpn(0x5_4321), &mut SizedWalker);
        let mut hit_classes = std::collections::HashSet::new();
        for selector in 0..3u64 {
            let mut probe = ms.clone();
            let r = probe
                .corrupt_entry(selector, CorruptionKind::Tag)
                .expect("eligible");
            assert_eq!(
                r.after.vpn.0,
                r.before.vpn.0 ^ (1 << r.before.size.span_shift())
            );
            hit_classes.insert(r.level);
            // Set-indexed classes catch the moved tag structurally; the
            // FA giga class has no set index to violate, so its
            // corruption is only caught by the oracle's page-table
            // cross-check.
            if probe.multi_config().class(r.before.size).sets() > 1 {
                assert!(probe.integrity().is_err(), "corruption must be caught");
            }
        }
        assert_eq!(hit_classes.len(), 3, "selector must reach all classes");
        // Sec corruption stays confined to the base class.
        let r = ms
            .clone()
            .corrupt_entry(7, CorruptionKind::Sec)
            .expect("base entry eligible");
        assert_eq!(r.level, 0);
    }

    #[test]
    fn class_isolation_violations_are_named() {
        let mut ms = MsTlb::new(MultiConfig::realistic());
        // Plant a megapage entry directly in the base class array.
        let rogue = TlbEntry {
            valid: true,
            vpn: Vpn(0x1200),
            ppn: Ppn(9),
            asid: Asid(1),
            sec: false,
            size: PageSize::Mega,
        };
        let set = ms.classes[0].set_of_sized(rogue.vpn, PageSize::Mega);
        ms.classes[0].fill_at(set, 0, rogue);
        let err = ms.integrity().expect_err("rogue entry must be caught");
        assert_eq!(err.kind, IntegrityKind::ClassIsolation);
        assert!(err.to_string().contains("class-isolation"));
        assert!(err.detail.contains("2m entry"));
    }
}
