//! The single-level TLB: the set-associative (SA) core every design of
//! the paper builds on, and what each design changes about it.
//!
//! Hits require both the page address and the process ID (ASID) to match;
//! misses walk the page table and fill the LRU way of the indexed set.
//! Fully-associative (`FA`) and single-entry (`1E`) TLBs are degenerate
//! geometries of the same design. The paper builds SP and RF as changes
//! to this TLB (Sections 4.1 and 4.2), and temporal partitioning is this
//! TLB plus a clear on each domain switch, so [`Tlb`] keeps one array,
//! one hit path and one fill, and holds the design's difference as data:
//!
//! - **SA** (`Tlb::sa`): nothing changes;
//! - **SP** ([`Tlb::sp`], `partition`): fills stay in the requester's
//!   partition of the ways;
//! - **RF** ([`Tlb::rf`], `random_fill`): misses run Figure 3's
//!   random-fill procedure, and a secure-region register pair and
//!   optionally region-wide invalidation are added;
//! - **FS** and **FT** ([`Tlb::temporal`], `temporal`): the array is
//!   cleared on every context switch, FT resetting replacement state too.

use crate::array::EntryArray;
use crate::check::{
    CorruptionKind, CorruptionReport, IntegrityError, IntegrityKind, SnapshotEntry,
};
use crate::config::TlbConfig;
use crate::random_fill::{InvalidationPolicy, RandomFill};
use crate::rfe::RandomFillEngine;
use crate::stats::TlbStats;
use crate::temporal::ClearScope;
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, PageSize, Ppn, SecureRegion, TlbEntry, Vpn};

/// A single-level TLB of any of the SA, SP, RF, FS and FT designs.
///
/// `clone_from` restores the array in place, so restoring a TLB from one
/// of the same geometry allocates nothing.
#[derive(Debug)]
pub struct Tlb {
    array: EntryArray,
    stats: TlbStats,
    defense: Defense,
}

clone_in_place!(Tlb {
    array,
    stats,
    defense,
});

/// What a design changes about the SA TLB.
#[derive(Debug, Clone)]
pub(crate) enum Defense {
    /// SA: nothing.
    Baseline,
    /// SP: the first `victim_ways` ways of every set hold the victim's
    /// translations, the rest everyone else's.
    Partition {
        victim_asid: Option<Asid>,
        victim_ways: usize,
    },
    /// RF: the Random Fill Engine and the secure-region registers, held
    /// inline so that cloning a TLB allocates nothing.
    RandomFill(RandomFill),
    /// FS or FT: what a context switch clears.
    Temporal(ClearScope),
}

impl Tlb {
    pub(crate) fn with_defense(config: TlbConfig, defense: Defense) -> Tlb {
        Tlb {
            array: EntryArray::new(config),
            stats: TlbStats::new(),
            defense,
        }
    }

    /// The standard SA TLB with the given geometry.
    pub fn sa(config: TlbConfig) -> Tlb {
        Tlb::with_defense(config, Defense::Baseline)
    }

    /// Number of currently valid entries (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.array.valid_entries().count()
    }

    /// The entry array, for the design modules' unit tests.
    #[cfg(test)]
    pub(crate) fn array(&self) -> &EntryArray {
        &self.array
    }

    /// The hit half of [`TlbCore::access`]: on a hit, marks the way most
    /// recently used and returns the translation. Counts nothing: the
    /// caller counts a hit ([`Tlb::add_hits`]), and [`Tlb::miss`]
    /// counts a miss. Every design hits exactly as SA does: search every
    /// way.
    #[inline(always)]
    pub(crate) fn try_hit(&mut self, asid: Asid, vpn: Vpn) -> Option<(Ppn, PageSize)> {
        self.array.hit(asid, vpn)
    }

    /// Counts `hits` accesses served by [`Tlb::try_hit`].
    #[inline(always)]
    pub(crate) fn add_hits(&mut self, hits: u64) {
        self.stats.accesses += hits;
        self.stats.hits += hits;
    }

    /// The miss half of [`TlbCore::access`], out of line so the hit path
    /// stays small enough to inline into the machine's batch loop. SA, FS
    /// and FT fill the set's replacement choice and SP the choice within
    /// the requester's partition; RF first runs Figure 3's *Sec* checks.
    #[inline(never)]
    pub(crate) fn miss(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        walker: &mut dyn Translator,
    ) -> AccessResult {
        self.stats.accesses += 1;
        self.stats.misses += 1;
        let config = self.array.config();
        let mut ways = 0..config.ways();
        let mut probed = None;
        match &mut self.defense {
            Defense::Baseline | Defense::Temporal(_) => {}
            Defense::Partition {
                victim_asid,
                victim_ways,
            } => {
                ways = if *victim_asid == Some(asid) {
                    0..*victim_ways
                } else {
                    *victim_ways..ways.end
                };
            }
            Defense::RandomFill(rf) => {
                // Probe (no fill) the replacement choice R of D's set for
                // its Sec bit — steps (1)-(3) of Figure 4b. (The array's
                // cached mask, not `config.set_of`, which divides.)
                let set = self.array.set_of_sized(vpn, PageSize::Base);
                let r_way = self.array.choose_victim(set);
                let r = self.array.entry(set, r_way);
                if let Some(d_prime) = rf.random_target(asid, vpn, r.valid && r.sec, config) {
                    return rf.fill_randomly(
                        &mut self.array,
                        &mut self.stats,
                        asid,
                        vpn,
                        d_prime,
                        walker,
                    );
                }
                probed = Some((set, r_way));
            }
        }
        let array = &mut self.array;
        walk_and_fill(
            &mut self.stats,
            asid,
            vpn,
            walker,
            |_| array,
            |array, set| match probed {
                // R was probed in the base-page set; a megapage translation
                // indexes another set, so its victim is chosen there.
                Some((r_set, r_way)) if r_set == set => r_way,
                _ => array
                    .choose_victim_among(set, ways)
                    .expect("partitions are nonempty by construction"),
            },
        )
    }

    /// The integrity rule the design adds for one valid entry at
    /// `(set, way)`: RF's *Sec* bits follow the programmed region, the
    /// other designs never set one, and SP keeps each entry on its
    /// owner's side of the split.
    fn check_entry(&self, set: usize, way: usize, e: TlbEntry) -> Result<(), IntegrityError> {
        let name = match &self.defense {
            Defense::RandomFill(rf) => return rf.check_sec_bit(e),
            Defense::Partition { .. } => "SP",
            // FS and FT are the SA design plus a clear, and report as SA.
            Defense::Baseline | Defense::Temporal(_) => "SA",
        };
        if e.sec {
            return Err(IntegrityError {
                kind: IntegrityKind::SecBit,
                detail: format!(
                    "{name} entry ({}, {}) has its Sec bit set; the {name} design never sets it",
                    e.asid, e.vpn
                ),
            });
        }
        match self.defense {
            Defense::Partition {
                victim_asid,
                victim_ways,
            } if (way < victim_ways) != (victim_asid == Some(e.asid)) => Err(IntegrityError {
                kind: IntegrityKind::Partition,
                detail: format!(
                    "entry ({}, {}) at set {set} way {way} is on the wrong side of the \
                     {victim_ways}-way victim split (victim asid: {victim_asid:?})",
                    e.asid, e.vpn
                ),
            }),
            _ => Ok(()),
        }
    }
}

/// The walk → fault → fill → count block of every demand miss: walks
/// `(asid, vpn)`; a fault is counted and fills nothing. Otherwise the
/// translation fills the array `array_for` picks for its page size, at
/// the way `victim` picks in the translation's set, and the fill and
/// any eviction are counted.
pub(crate) fn walk_and_fill<'a>(
    stats: &mut TlbStats,
    asid: Asid,
    vpn: Vpn,
    walker: &mut dyn Translator,
    array_for: impl FnOnce(PageSize) -> &'a mut EntryArray,
    victim: impl FnOnce(&EntryArray, usize) -> usize,
) -> AccessResult {
    let walk = walker.translate(asid, vpn);
    let Some(ppn) = walk.ppn else {
        stats.faults += 1;
        return AccessResult {
            hit: false,
            fault: true,
            ppn: None,
            walk_cycles: walk.cycles,
            size: walk.size,
        };
    };
    let array = array_for(walk.size);
    let set = array.set_of_sized(vpn, walk.size);
    let way = victim(array, set);
    let entry = TlbEntry {
        valid: true,
        vpn: walk.size.align(vpn),
        ppn,
        asid,
        sec: false,
        size: walk.size,
    };
    if array.fill_at(set, way, entry).is_some() {
        stats.evictions += 1;
    }
    stats.fills += 1;
    // Built after the fill: a result assembled before it stays live across
    // the call, which cost a 1E TLB about 4 ns per miss.
    AccessResult {
        hit: false,
        fault: false,
        ppn: Some(ppn),
        walk_cycles: walk.cycles,
        size: walk.size,
    }
}

impl sealed::Sealed for Tlb {}

impl TlbCore for Tlb {
    #[inline(always)]
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        match self.try_hit(asid, vpn) {
            Some((ppn, size)) => {
                self.add_hits(1);
                AccessResult::hit_sized(ppn, size)
            }
            None => self.miss(asid, vpn, walker),
        }
    }

    fn probe(&self, asid: Asid, vpn: Vpn) -> bool {
        self.array.lookup(asid, vpn).is_some()
    }

    fn flush_all(&mut self) {
        self.array.clear();
        self.stats.flushes += 1;
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.stats.invalidations += self.array.invalidate_matching(|e| e.asid == asid);
    }

    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        if let Defense::RandomFill(rf) = &self.defense {
            if rf.invalidation == InvalidationPolicy::RegionFlush && rf.is_secure(asid, vpn) {
                // De-correlate: drop every secure entry, constant (slow) time.
                self.stats.invalidations += self.array.invalidate_matching(|e| e.sec);
                return true;
            }
        }
        let Some((set, way)) = self.array.lookup(asid, vpn) else {
            return false;
        };
        self.array.invalidate_at(set, way);
        self.stats.invalidations += 1;
        true
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
        match self.defense {
            Defense::Baseline => "SA",
            Defense::Partition { .. } => "SP",
            Defense::RandomFill(_) => "RF",
            Defense::Temporal(ClearScope::Entries) => "FS",
            Defense::Temporal(ClearScope::Full) => "FT",
        }
    }

    fn on_context_switch(&mut self) {
        let Defense::Temporal(scope) = self.defense else {
            return;
        };
        match scope {
            ClearScope::Entries => self.array.clear_entries_keep_ranks(),
            ClearScope::Full => self.array.clear(),
        }
        self.stats.flushes += 1;
    }

    fn replacement_pristine(&self) -> Option<bool> {
        // Only FT claims a reset replacement state; FS's ranks carry
        // residue across switches by design.
        matches!(self.defense, Defense::Temporal(ClearScope::Full))
            .then(|| self.array.replacement_pristine())
    }

    fn set_victim_asid(&mut self, victim: Option<Asid>) {
        let register = match &mut self.defense {
            Defense::Partition { victim_asid, .. } => victim_asid,
            Defense::RandomFill(rf) => &mut rf.victim_asid,
            Defense::Baseline | Defense::Temporal(_) => return,
        };
        let changed = *register != victim;
        *register = victim;
        // A new victim must not inherit entries on the wrong side of the
        // split, or Sec bits computed for the old one.
        if changed {
            self.flush_all();
        }
    }

    fn set_secure_region(&mut self, region: Option<SecureRegion>) {
        let Defense::RandomFill(rf) = &mut self.defense else {
            return;
        };
        let changed = rf.region != region;
        rf.region = region;
        // Stale Sec bits from a previous region must not linger.
        if changed {
            self.flush_all();
        }
    }

    fn reseed(&mut self, level: usize, seed: u64) {
        if let (0, Defense::RandomFill(rf)) = (level, &mut self.defense) {
            rf.rfe = RandomFillEngine::from_seed(seed);
        }
    }

    fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.array.snapshot_level(0)
    }

    fn integrity(&self) -> Result<(), IntegrityError> {
        self.array.check_geometry()?;
        let config = self.array.config();
        for set in 0..config.sets() {
            for way in 0..config.ways() {
                let e = self.array.entry(set, way);
                if e.valid {
                    self.check_entry(set, way, e)?;
                }
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
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
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
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(0x10), &mut Ident(60));
        let r = t.access(Asid(2), Vpn(0x10), &mut Ident(60));
        assert!(!r.hit, "cross-ASID access must miss");
    }

    #[test]
    fn set_conflicts_evict_lru() {
        // 2 sets x 2 ways: three pages in the same set overflow it.
        let mut t = Tlb::sa(TlbConfig::sa(4, 2).unwrap());
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
        let mut t = Tlb::sa(TlbConfig::fa(4).unwrap());
        for v in [0u64, 4, 8, 12] {
            t.access(Asid(1), Vpn(v), &mut Ident(1));
        }
        for v in [0u64, 4, 8, 12] {
            assert!(t.probe(Asid(1), Vpn(v)), "vpn {v} evicted in FA TLB");
        }
    }

    #[test]
    fn single_entry_thrashes() {
        let mut t = Tlb::sa(TlbConfig::single_entry());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        t.access(Asid(1), Vpn(2), &mut Ident(1));
        assert!(!t.probe(Asid(1), Vpn(1)));
        assert!(t.probe(Asid(1), Vpn(2)));
    }

    #[test]
    fn faults_do_not_fill() {
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
        let r = t.access(Asid(1), Vpn(0x99), &mut Faulting);
        assert!(r.fault && r.ppn.is_none());
        assert_eq!(t.stats().faults, 1);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn flush_all_empties_the_tlb() {
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
        for v in 0..10u64 {
            t.access(Asid(1), Vpn(v), &mut Ident(1));
        }
        t.flush_all();
        assert_eq!(t.resident_count(), 0);
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        t.access(Asid(2), Vpn(2), &mut Ident(1));
        t.flush_asid(Asid(1));
        assert!(!t.probe(Asid(1), Vpn(1)));
        assert!(t.probe(Asid(2), Vpn(2)));
    }

    #[test]
    fn flush_page_reports_presence() {
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
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
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
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
        let mut t = Tlb::sa(TlbConfig::sa(32, 4).unwrap());
        t.access(Asid(1), Vpn(1), &mut Ident(1));
        let before = *t.stats();
        for _ in 0..5 {
            t.probe(Asid(1), Vpn(1));
            t.probe(Asid(1), Vpn(999));
        }
        assert_eq!(*t.stats(), before);
    }

    #[test]
    fn an_entry_on_the_wrong_side_of_the_split_is_named() {
        let mut t = Tlb::sp(TlbConfig::sa(32, 8).unwrap(), 4).unwrap();
        t.access(Asid(2), Vpn(0), &mut Ident(1));
        t.integrity().unwrap();
        // Reprogram the victim register without the flush its setter does.
        if let Defense::Partition { victim_asid, .. } = &mut t.defense {
            *victim_asid = Some(Asid(2));
        }
        let err = t.integrity().unwrap_err();
        assert_eq!(err.kind, IntegrityKind::Partition);
        assert!(
            err.detail.contains("wrong side of the 4-way victim split"),
            "{err}"
        );
    }
}
