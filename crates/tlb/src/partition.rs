//! The Static-Partition (SP) TLB (Section 4.1 of the paper).
//!
//! The SP TLB is a set-associative TLB whose ways are statically split
//! between a *victim* process and all remaining processes (assumed to be
//! potential attackers). Hits are identical to the SA TLB — both address
//! and process ID must match across *all* ways — but fills are confined to
//! the requester's own partition, each with its own LRU policy (Figure 1).
//! The victim's translations therefore can never be evicted by attacker
//! activity and vice versa, which defends the external miss-based
//! vulnerabilities (Evict + Time, Prime + Probe) on top of what the ASID
//! check already prevents — 14 of the 24 vulnerability types in total.

use crate::array::EntryArray;
use crate::check::{
    CorruptionKind, CorruptionReport, IntegrityError, IntegrityKind, SnapshotEntry,
};
use crate::config::TlbConfig;
use crate::stats::TlbStats;
use crate::store::{AosProfile, SoaProfile, StoreProfile};
use crate::tlb_trait::{sealed, AccessResult, TlbCore, Translator};
use crate::types::{Asid, TlbEntry, Vpn};

/// An invalid SP partition split: the victim partition must leave at least
/// one way on each side (`0 < victim_ways < ways`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionError {
    /// The rejected victim way count.
    pub victim_ways: usize,
    /// The configuration's total ways per set.
    pub ways: usize,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "victim partition must take between 1 and ways-1 ways, got {} of {}",
            self.victim_ways, self.ways
        )
    }
}

impl std::error::Error for PartitionError {}

/// The Static-Partition TLB, generic over the entry-storage profile.
#[derive(Debug, Clone)]
pub struct SpTlbGen<P: StoreProfile = SoaProfile> {
    array: EntryArray<P>,
    stats: TlbStats,
    victim_asid: Option<Asid>,
    victim_ways: usize,
}

/// The SP TLB on the struct-of-arrays fast path (the default).
pub type SpTlb = SpTlbGen<SoaProfile>;

/// The SP TLB on the pre-overhaul reference storage (differential tests).
pub type SpTlbRef = SpTlbGen<AosProfile>;

impl<P: StoreProfile> SpTlbGen<P> {
    /// Creates an SP TLB with the paper's default allocation: the victim
    /// partition takes 50% of the ways.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two ways per set (there
    /// must be at least one way on each side of the split).
    pub fn new(config: TlbConfig) -> SpTlbGen<P> {
        SpTlbGen::with_victim_ways(config, config.ways() / 2)
    }

    /// Creates an SP TLB assigning `victim_ways` ways per set to the
    /// victim partition (`0 < victim_ways < ways`), the design-time
    /// parameter `N` of Section 4.1.2.
    ///
    /// # Panics
    ///
    /// Panics if `victim_ways` is zero or not strictly less than the way
    /// count; see [`SpTlbGen::try_with_victim_ways`] for the fallible form.
    pub fn with_victim_ways(config: TlbConfig, victim_ways: usize) -> SpTlbGen<P> {
        match SpTlbGen::try_with_victim_ways(config, victim_ways) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SpTlbGen::with_victim_ways`]: an out-of-range split is
    /// reported as a typed [`PartitionError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Fails unless `0 < victim_ways < ways`.
    pub fn try_with_victim_ways(
        config: TlbConfig,
        victim_ways: usize,
    ) -> Result<SpTlbGen<P>, PartitionError> {
        if victim_ways == 0 || victim_ways >= config.ways() {
            return Err(PartitionError {
                victim_ways,
                ways: config.ways(),
            });
        }
        Ok(SpTlbGen {
            array: EntryArray::new(config),
            stats: TlbStats::new(),
            victim_asid: None,
            victim_ways,
        })
    }

    /// Ways per set reserved for the victim partition.
    pub fn victim_ways(&self) -> usize {
        self.victim_ways
    }

    /// Reconfigures the partition split at run time — the dynamic
    /// extension Section 4.1.1 sketches ("could be further extended to be
    /// dynamic at run time"). The TLB is flushed so no entry is left on
    /// the wrong side of the new split.
    ///
    /// # Panics
    ///
    /// Panics if `victim_ways` is zero or not strictly less than the way
    /// count; see [`SpTlbGen::try_set_victim_ways`] for the fallible form.
    pub fn set_victim_ways(&mut self, victim_ways: usize) {
        if let Err(e) = self.try_set_victim_ways(victim_ways) {
            panic!("{e}");
        }
    }

    /// Fallible [`SpTlbGen::set_victim_ways`]: an out-of-range split is
    /// reported as a typed [`PartitionError`] and leaves the TLB untouched.
    ///
    /// # Errors
    ///
    /// Fails unless `0 < victim_ways < ways`.
    pub fn try_set_victim_ways(&mut self, victim_ways: usize) -> Result<(), PartitionError> {
        let ways = self.array.config().ways();
        if victim_ways == 0 || victim_ways >= ways {
            return Err(PartitionError { victim_ways, ways });
        }
        if victim_ways != self.victim_ways {
            self.flush_all();
            self.victim_ways = victim_ways;
        }
        Ok(())
    }

    /// The currently programmed victim process, if any.
    pub fn victim_asid(&self) -> Option<Asid> {
        self.victim_asid
    }

    /// Whether a request from `asid` belongs to the victim partition.
    fn is_victim(&self, asid: Asid) -> bool {
        self.victim_asid == Some(asid)
    }

    /// The way range of the partition owning `asid`'s fills.
    fn partition_ways(&self, asid: Asid) -> std::ops::Range<usize> {
        if self.is_victim(asid) {
            0..self.victim_ways
        } else {
            self.victim_ways..self.array.config().ways()
        }
    }

    /// Number of currently valid entries (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.array.valid_entries().count()
    }

    /// Checks the partition invariant: victim entries only in victim ways,
    /// attacker entries only in attacker ways (testing/diagnostics).
    pub fn partition_invariant_holds(&self) -> bool {
        let config = self.array.config();
        for set in 0..config.sets() {
            for way in 0..config.ways() {
                let e = self.array.entry(set, way);
                if !e.valid {
                    continue;
                }
                let in_victim_ways = way < self.victim_ways;
                let owner_is_victim = self.is_victim(e.asid);
                if in_victim_ways != owner_is_victim {
                    return false;
                }
            }
        }
        true
    }
}

impl<P: StoreProfile> sealed::Sealed for SpTlbGen<P> {}

impl<P: StoreProfile> TlbCore for SpTlbGen<P> {
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult {
        self.stats.accesses += 1;
        // Hit path identical to the SA TLB (Figure 1): search every way.
        if let Some((set, way)) = self.array.lookup(asid, vpn) {
            self.stats.hits += 1;
            self.array.touch(set, way);
            let e = self.array.entry(set, way);
            return AccessResult::hit_sized(e.ppn, e.size);
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
        // Miss path: replacement confined to the requester's partition,
        // under that partition's own LRU.
        let set = self.array.set_of_sized(vpn, walk.size);
        let way = self
            .array
            .choose_victim_among(set, self.partition_ways(asid))
            .expect("partitions are nonempty by construction");
        let evicted = self.array.fill_at(
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
        "SP"
    }

    fn clone_box(&self) -> Box<dyn TlbCore> {
        Box::new(self.clone())
    }

    fn set_victim_asid(&mut self, victim: Option<Asid>) {
        // Repurposing the partition for a different victim must not leave
        // stale entries on the wrong side of the split.
        if self.victim_asid != victim {
            self.flush_all();
        }
        self.victim_asid = victim;
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
                if !e.valid {
                    continue;
                }
                if e.sec {
                    return Err(IntegrityError {
                        kind: IntegrityKind::SecBit,
                        detail: format!(
                            "SP entry ({}, {}) has its Sec bit set; the SP design never \
                             sets it",
                            e.asid, e.vpn
                        ),
                    });
                }
                let in_victim_ways = way < self.victim_ways;
                let owner_is_victim = self.is_victim(e.asid);
                if in_victim_ways != owner_is_victim {
                    return Err(IntegrityError {
                        kind: IntegrityKind::Partition,
                        detail: format!(
                            "entry ({}, {}) at set {set} way {way} is on the wrong side \
                             of the {}-way victim split (victim asid: {:?})",
                            e.asid, e.vpn, self.victim_ways, self.victim_asid
                        ),
                    });
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
    use crate::types::Ppn;

    struct Ident;
    impl Translator for Ident {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 + 1000), 60)
        }
    }

    fn sp_with_victim() -> SpTlb {
        let mut t = SpTlb::new(TlbConfig::sa(32, 8).unwrap());
        t.set_victim_asid(Some(Asid(1)));
        t
    }

    #[test]
    fn default_split_is_half_the_ways() {
        let t = SpTlb::new(TlbConfig::sa(32, 8).unwrap());
        assert_eq!(t.victim_ways(), 4);
    }

    #[test]
    fn attacker_cannot_evict_victim_entries() {
        // The defining property (defeats Prime + Probe / Evict + Time):
        // attacker fills never replace victim entries.
        let mut t = sp_with_victim();
        let victim_page = Vpn(0x40); // set 0
        t.access(Asid(1), victim_page, &mut Ident);
        // Attacker floods set 0 with far more pages than the set holds.
        for i in 0..64u64 {
            t.access(Asid(2), Vpn(i * 4), &mut Ident);
        }
        assert!(
            t.probe(Asid(1), victim_page),
            "victim entry must survive attacker flooding"
        );
        assert!(t.partition_invariant_holds());
    }

    #[test]
    fn victim_cannot_evict_attacker_entries() {
        let mut t = sp_with_victim();
        let attacker_page = Vpn(0x80); // set 0
        t.access(Asid(2), attacker_page, &mut Ident);
        for i in 0..64u64 {
            t.access(Asid(1), Vpn(i * 4), &mut Ident);
        }
        assert!(
            t.probe(Asid(2), attacker_page),
            "attacker entry must survive victim flooding"
        );
        assert!(t.partition_invariant_holds());
    }

    #[test]
    fn victim_contends_within_its_own_ways() {
        // With 4 victim ways per set, a 5th same-set victim page evicts the
        // victim's own LRU entry (internal interference remains — the SP
        // TLB does not defend Bernstein-type attacks).
        let mut t = sp_with_victim();
        let pages: Vec<Vpn> = (0..5u64).map(|i| Vpn(i * 4)).collect(); // all set 0
        for &p in &pages {
            t.access(Asid(1), p, &mut Ident);
        }
        assert!(!t.probe(Asid(1), pages[0]), "victim LRU entry evicted");
        assert!(t.probe(Asid(1), pages[4]));
    }

    #[test]
    fn non_victim_processes_share_the_attacker_partition() {
        let mut t = sp_with_victim();
        t.access(Asid(2), Vpn(0), &mut Ident);
        t.access(Asid(3), Vpn(4), &mut Ident);
        assert!(t.probe(Asid(2), Vpn(0)));
        assert!(t.probe(Asid(3), Vpn(4)));
        assert!(t.partition_invariant_holds());
    }

    #[test]
    fn hits_still_require_matching_asid() {
        let mut t = sp_with_victim();
        t.access(Asid(1), Vpn(7), &mut Ident);
        let r = t.access(Asid(2), Vpn(7), &mut Ident);
        assert!(!r.hit);
    }

    #[test]
    fn without_a_victim_everything_lands_in_the_attacker_partition() {
        // The partition is fixed at design time; with no process designated
        // as the victim, the victim ways simply sit idle.
        let mut t = SpTlb::new(TlbConfig::sa(8, 4).unwrap());
        for i in 0..8u64 {
            t.access(Asid(5), Vpn(i * 2), &mut Ident); // all set 0
        }
        // Only the 2 attacker ways of set 0 are usable.
        assert_eq!(t.resident_count(), 2);
    }

    #[test]
    fn changing_the_victim_flushes_stale_entries() {
        let mut t = sp_with_victim();
        t.access(Asid(1), Vpn(3), &mut Ident);
        t.set_victim_asid(Some(Asid(9)));
        assert_eq!(t.resident_count(), 0);
        assert!(t.partition_invariant_holds());
    }

    #[test]
    fn runtime_resplit_flushes_and_rebalances() {
        let mut t = sp_with_victim();
        t.access(Asid(1), Vpn(3), &mut Ident);
        t.access(Asid(2), Vpn(7), &mut Ident);
        t.set_victim_ways(6);
        assert_eq!(t.victim_ways(), 6);
        assert_eq!(t.resident_count(), 0, "resplit must flush");
        // The victim can now keep 6 same-set pages resident.
        for i in 0..6u64 {
            t.access(Asid(1), Vpn(i * 4), &mut Ident);
        }
        for i in 0..6u64 {
            assert!(t.probe(Asid(1), Vpn(i * 4)), "page {i}");
        }
        assert!(t.partition_invariant_holds());
    }

    #[test]
    fn resplit_to_same_size_keeps_contents() {
        let mut t = sp_with_victim();
        t.access(Asid(1), Vpn(3), &mut Ident);
        t.set_victim_ways(t.victim_ways());
        assert!(t.probe(Asid(1), Vpn(3)), "no-op resplit must not flush");
    }

    #[test]
    #[should_panic(expected = "victim partition")]
    fn zero_victim_ways_is_rejected() {
        SpTlb::with_victim_ways(TlbConfig::sa(32, 4).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "victim partition")]
    fn all_ways_to_victim_is_rejected() {
        SpTlb::with_victim_ways(TlbConfig::sa(32, 4).unwrap(), 4);
    }
}
