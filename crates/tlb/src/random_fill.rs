//! The Random-Fill (RF) TLB (Section 4.2 of the paper).
//!
//! The RF TLB de-correlates requested memory accesses from the entries
//! actually brought into the TLB, making the attacker's observations
//! non-deterministic. Hits behave exactly as in the SA TLB. Misses follow
//! the access-handling procedure of Figure 3, with `D` the requested
//! translation, `R` the entry the replacement policy would evict, and the
//! *Sec* bits `Sec_D`/`Sec_R` marking membership in the configured secure
//! region:
//!
//! - `Sec_R = 0, Sec_D = 0`: a normal TLB miss (walk and fill).
//! - `Sec_R = 1, Sec_D = 0`: the secure entry `R` is *not* evicted.
//!   Instead a random non-secure address `D'` — the request with its TLB
//!   set-index bits randomized within the secure region's set window — is
//!   filled, and the result of the `D` request is returned to the CPU
//!   directly through a one-entry buffer without filling ("no fill").
//! - `Sec_D = 1`: a random page `D'` within the secure region is filled
//!   (evicting that set's replacement choice `R'`), and `D` itself is
//!   again returned through the no-fill buffer.
//!
//! The random fill happens synchronously on the miss path: Section 4.2.3
//! explains why an asynchronous, idle-cycle filler (as in the Random Fill
//! *cache*) would starve under TLB-intensive secure workloads.

use crate::array::EntryArray;
use crate::check::{IntegrityError, IntegrityKind};
use crate::config::TlbConfig;
use crate::rfe::RandomFillEngine;
use crate::set_assoc::{Defense, Tlb};
use crate::stats::TlbStats;
use crate::tlb_trait::{AccessResult, Translator};
use crate::types::{Asid, PageSize, SecureRegion, TlbEntry, Vpn};

/// Which way a random fill replaces in its target set.
///
/// The paper's Section 5.3.1 probabilities imply a uniformly random way
/// ([`RandomFillEviction::RandomWay`], the default). Replacing the LRU way
/// instead re-correlates the eviction with the victim's access recency and
/// measurably leaks (see the `ablation_rf` study in EXPERIMENTS.md); the
/// variant is kept for that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RandomFillEviction {
    /// Evict a uniformly random way (secure; the paper's design).
    #[default]
    RandomWay,
    /// Evict the set's replacement-policy choice (insecure ablation).
    LruWay,
}

/// How the RF TLB handles *targeted* invalidation of a secure page.
///
/// Appendix B of the paper shows that if an ISA lets software invalidate
/// a specific TLB entry, a new family of attacks appears (Flush + Probe,
/// Flush + Time, Flush + Flush). The RF TLB as published randomizes
/// *fills* but not *invalidations*, so a precise invalidation of a secure
/// entry is deterministic and observable. The `RegionFlush` policy closes
/// that channel: invalidating any page of the secure region invalidates
/// the whole region's entries in constant time, de-correlating the
/// invalidation from the specific secret address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidationPolicy {
    /// Invalidate exactly the requested entry (the published design).
    #[default]
    Precise,
    /// Invalidate every resident secure entry whenever any secure page is
    /// invalidated, and always take the slow (entry-present) path so the
    /// invalidation itself is constant-time.
    RegionFlush,
}

/// What RF adds to the SA TLB: the Random Fill Engine, the victim-ASID
/// and secure-region registers, and the two policies.
#[derive(Debug, Clone)]
pub(crate) struct RandomFill {
    pub(crate) rfe: RandomFillEngine,
    pub(crate) victim_asid: Option<Asid>,
    pub(crate) region: Option<SecureRegion>,
    eviction: RandomFillEviction,
    pub(crate) invalidation: InvalidationPolicy,
}

impl Tlb {
    /// Creates an RF TLB with the given random-fill eviction and
    /// secure-page invalidation policies (the published design is the
    /// default of both) and a default RFE seed, which
    /// [`TlbCore::reseed`](crate::TlbCore::reseed) replaces. No secure
    /// region is configured initially, so the design behaves exactly like
    /// an SA TLB until the (trusted) OS programs
    /// [`TlbCore::set_secure_region`](crate::TlbCore::set_secure_region)
    /// and [`TlbCore::set_victim_asid`](crate::TlbCore::set_victim_asid).
    pub fn rf(
        config: TlbConfig,
        eviction: RandomFillEviction,
        invalidation: InvalidationPolicy,
    ) -> Tlb {
        Tlb::with_defense(
            config,
            Defense::RandomFill(RandomFill {
                rfe: RandomFillEngine::from_seed(0x5ec7_1b5e),
                victim_asid: None,
                region: None,
                eviction,
                invalidation,
            }),
        )
    }
}

impl RandomFill {
    /// Whether `(asid, vpn)` falls within the protected secure region —
    /// the `Sec` classification of a request.
    pub(crate) fn is_secure(&self, asid: Asid, vpn: Vpn) -> bool {
        match (self.victim_asid, self.region) {
            (Some(victim), Some(region)) => asid == victim && region.contains(vpn),
            _ => false,
        }
    }

    /// Figure 3's decision for a miss on `D = (asid, vpn)` whose set's
    /// replacement choice `R` has *Sec* bit `sec_r`: `None` for a normal
    /// miss, otherwise the random page `D'` filled in `D`'s stead.
    pub(crate) fn random_target(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        sec_r: bool,
        config: TlbConfig,
    ) -> Option<Vpn> {
        match (sec_r, self.is_secure(asid, vpn)) {
            (false, false) => None,
            // R is secure: do not evict it. Fill a non-secure D' with a
            // randomized set index instead.
            (true, false) => {
                let region = self.region.expect("sec_r implies a programmed region");
                Some(self.rfe.randomize_set_index(vpn, region, config))
            }
            // Secure request: fill a random page of the secure region.
            (_, true) => {
                let region = self.region.expect("sec_d implies a programmed region");
                Some(self.rfe.random_secure_page(region))
            }
        }
    }

    /// Fills `d_prime` on behalf of `asid`, then walks the requested
    /// `vpn` and returns it through the one-entry no-fill buffer. The
    /// random fill evicts its set's `R'`; a faulting walk skips it (the
    /// paper assumes the OS pre-generates PTEs for RFE-visible addresses,
    /// footnote 5).
    pub(crate) fn fill_randomly(
        &mut self,
        array: &mut EntryArray,
        stats: &mut TlbStats,
        asid: Asid,
        vpn: Vpn,
        d_prime: Vpn,
        walker: &mut dyn Translator,
    ) -> AccessResult {
        let fill = walker.translate(asid, d_prime);
        if let Some(ppn) = fill.ppn {
            // If D' is already resident we must not create a duplicate;
            // refresh its recency instead.
            if let Some((s, w)) = array.lookup(asid, d_prime) {
                array.touch(s, w);
            } else {
                // A large-page translation indexes the set of its own
                // size class, exactly as a normal fill does.
                let set = array.set_of_sized(d_prime, fill.size);
                // Random fills evict a uniformly random way (R' in the
                // paper): the eviction must be indeterministic, and the
                // Section 5.3.1 probabilities are uniform over the
                // window's entries. (The LruWay variant exists only for
                // the ablation showing that choice is load-bearing.)
                let way = match self.eviction {
                    RandomFillEviction::RandomWay => self.rfe.random_way(array.config().ways()),
                    RandomFillEviction::LruWay => array.choose_victim(set),
                };
                let entry = TlbEntry {
                    valid: true,
                    vpn: fill.size.align(d_prime),
                    ppn,
                    asid,
                    sec: self.is_secure(asid, d_prime),
                    size: fill.size,
                };
                if array.fill_at(set, way, entry).is_some() {
                    stats.evictions += 1;
                }
            }
            stats.random_fills += 1;
        }
        let walk = walker.translate(asid, vpn);
        stats.no_fill_responses += 1;
        if walk.ppn.is_none() {
            stats.faults += 1;
        }
        AccessResult {
            hit: false,
            fault: walk.ppn.is_none(),
            ppn: walk.ppn,
            walk_cycles: fill.cycles + walk.cycles,
            size: walk.size,
        }
    }

    /// RF's integrity rule: a base entry's *Sec* bit is the exact
    /// classification of its own tag. Megapage entries are skipped: their
    /// Sec bit is derived from the unaligned fill address, not the
    /// aligned tag.
    pub(crate) fn check_sec_bit(&self, e: TlbEntry) -> Result<(), IntegrityError> {
        let expected = self.is_secure(e.asid, e.vpn);
        if e.size != PageSize::Base || e.sec == expected {
            return Ok(());
        }
        Err(IntegrityError {
            kind: IntegrityKind::SecBit,
            detail: format!(
                "RF entry ({}, {}) has Sec = {} but the programmed secure region \
                 (victim {:?}, region {:?}) implies Sec = {}",
                e.asid, e.vpn, e.sec, self.victim_asid, self.region, expected
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb_trait::{TlbCore, WalkResult};
    use crate::types::Ppn;

    struct Ident;
    impl Translator for Ident {
        fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 + u64::from(asid.0) * 1_000_000), 60)
        }
    }

    const VICTIM: Asid = Asid(1);
    const ATTACKER: Asid = Asid(2);

    /// An RF TLB of the published design whose engine is seeded with
    /// `seed`.
    fn rf_seeded(config: TlbConfig, seed: u64) -> Tlb {
        let mut t = Tlb::rf(
            config,
            RandomFillEviction::RandomWay,
            InvalidationPolicy::Precise,
        );
        t.reseed(0, seed);
        t
    }

    /// [`rf_seeded`] protecting a 3-page region of the victim.
    fn rf_protected(config: TlbConfig, seed: u64) -> Tlb {
        let mut t = rf_seeded(config, seed);
        t.set_victim_asid(Some(VICTIM));
        t.set_secure_region(Some(SecureRegion::new(Vpn(0x100), 3)));
        t
    }

    /// 32-entry, 8-way RF TLB with a 3-page secure region (the paper's
    /// security-evaluation setup).
    fn rf() -> Tlb {
        rf_protected(TlbConfig::security_eval(), 1234)
    }

    /// Number of resident entries with the *Sec* bit set.
    fn secure_count(t: &Tlb) -> usize {
        t.snapshot().iter().filter(|s| s.entry.sec).count()
    }

    #[test]
    fn behaves_like_sa_without_a_region() {
        let mut t = rf_seeded(TlbConfig::sa(32, 4).unwrap(), 1);
        let r1 = t.access(Asid(3), Vpn(9), &mut Ident);
        assert!(!r1.hit);
        let r2 = t.access(Asid(3), Vpn(9), &mut Ident);
        assert!(r2.hit);
        assert_eq!(t.stats().random_fills, 0);
        assert_eq!(t.stats().no_fill_responses, 0);
    }

    #[test]
    fn secure_miss_never_fills_the_requested_page_directly() {
        // The no-fill invariant: a secure request is answered through the
        // buffer; only a *random* secure page enters the TLB. (The random
        // page may coincide with the request, so we check the fill is
        // drawn from the region, not that the request is absent.)
        let mut t = rf();
        let r = t.access(VICTIM, Vpn(0x100), &mut Ident);
        assert!(!r.hit && !r.fault);
        assert_eq!(t.stats().no_fill_responses, 1);
        assert_eq!(t.stats().random_fills, 1);
        assert_eq!(secure_count(&t), 1);
    }

    #[test]
    fn secure_hits_behave_normally() {
        let mut t = rf();
        // Access until the random fill happens to bring in page 0x101.
        let mut resident = false;
        for _ in 0..200 {
            if t.probe(VICTIM, Vpn(0x101)) {
                resident = true;
                break;
            }
            t.access(VICTIM, Vpn(0x101), &mut Ident);
        }
        assert!(resident, "random fills should eventually cover the page");
        let r = t.access(VICTIM, Vpn(0x101), &mut Ident);
        assert!(r.hit, "hit path is unchanged");
    }

    #[test]
    fn random_fill_stays_in_region_for_secure_requests() {
        let mut t = rf();
        for _ in 0..100 {
            t.access(VICTIM, Vpn(0x102), &mut Ident);
        }
        // Every resident victim entry must be one of the 3 secure pages.
        // (The victim only ever requested secure pages.)
        assert!(secure_count(&t) <= 3);
        for p in [0x100u64, 0x101, 0x102] {
            // Not asserting presence of each — only that nothing outside
            // the region was filled for the victim.
            let _ = p;
        }
        assert!(t.resident_count() <= 3);
    }

    #[test]
    fn attacker_cannot_deterministically_evict_secure_entries() {
        // Sec_R = 1, Sec_D = 0: the attacker's conflicting fill is
        // redirected to a random set, so across many trials the secure
        // entry sometimes survives — unlike an SA TLB where eviction is
        // certain.
        let mut survived = 0;
        let trials = 100;
        for seed in 0..trials {
            let mut t = rf_protected(TlbConfig::security_eval(), seed);
            // Bring one secure page in deterministically: region of 3 with
            // repeated accesses until page 0x100 resident.
            for _ in 0..100 {
                if t.probe(VICTIM, Vpn(0x100)) {
                    break;
                }
                t.access(VICTIM, Vpn(0x100), &mut Ident);
            }
            assert!(t.probe(VICTIM, Vpn(0x100)));
            // Attacker floods the same set (set 0) with 8 ways' worth of
            // conflicting pages — would certainly evict on an SA TLB.
            for i in 0..8u64 {
                t.access(ATTACKER, Vpn(0x100 + i * 4), &mut Ident);
            }
            if t.probe(VICTIM, Vpn(0x100)) {
                survived += 1;
            }
        }
        assert!(
            survived > 0,
            "secure entry must sometimes survive attacker flooding"
        );
    }

    #[test]
    fn non_secure_misses_by_the_victim_outside_region_are_normal() {
        let mut t = rf();
        let r = t.access(VICTIM, Vpn(0x900), &mut Ident);
        assert!(!r.hit);
        assert!(t.probe(VICTIM, Vpn(0x900)), "normal fill happened");
        assert_eq!(t.stats().no_fill_responses, 0);
    }

    #[test]
    fn attacker_addresses_numerically_in_region_are_not_secure() {
        // The region belongs to the victim's address space: the Sec check
        // requires the victim ASID, so the attacker's miss fills normally.
        let mut t = rf();
        t.access(ATTACKER, Vpn(0x100), &mut Ident);
        assert_eq!(t.stats().no_fill_responses, 0);
        assert!(t.probe(ATTACKER, Vpn(0x100)));
        t.access(VICTIM, Vpn(0x100), &mut Ident);
        assert_eq!(t.stats().no_fill_responses, 1);
    }

    #[test]
    fn reprogramming_region_flushes_stale_sec_bits() {
        let mut t = rf();
        t.access(VICTIM, Vpn(0x100), &mut Ident);
        assert!(secure_count(&t) > 0);
        t.set_secure_region(Some(SecureRegion::new(Vpn(0x500), 4)));
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn no_duplicate_entry_when_random_fill_hits_resident_page() {
        let mut t = rf();
        // Exercise many secure accesses; duplicates would show up as more
        // than 3 resident secure entries.
        for i in 0..300u64 {
            t.access(VICTIM, Vpn(0x100 + (i % 3)), &mut Ident);
        }
        assert!(secure_count(&t) <= 3);
    }

    /// Flattened `(entry, rank)` pairs for every lane — entries from the
    /// store, ranks from the packed-LRU words.
    fn lanes(t: &Tlb) -> Vec<(TlbEntry, u16)> {
        let cfg = t.config();
        let mut out = Vec::with_capacity(cfg.entries());
        for s in 0..cfg.sets() {
            for w in 0..cfg.ways() {
                out.push((t.array().entry(s, w), t.array().lru().rank(s, w)));
            }
        }
        out
    }

    /// The packed-LRU regression the overhaul must not break: a no-fill
    /// (Sec-bit miss) access answers the request through the buffer
    /// without inserting it, so it must leave the rank state of every
    /// lane untouched *except* the single lane the accompanying random
    /// fill wrote or refreshed. A fast path that marked the probed
    /// victim R (or the requested set) "recently used" on these misses
    /// would skew every subsequent eviction — and the paper's Table 2 /
    /// Figure 7 RF results with it.
    #[test]
    fn no_fill_misses_leave_rank_state_untouched() {
        let mut t = rf_protected(TlbConfig::sa(16, 4).unwrap(), 7);
        let mut no_fill_misses = 0;
        for step in 0..400u64 {
            // Interleave secure misses (the Sec_D = 1 branch), attacker
            // pressure on the region's sets (driving the probed victim R
            // secure, the Sec_R = 1 branch), and attacker reuse.
            if step % 16 == 15 {
                // An ASID rollover evicts the victim's secure entries so
                // the Sec_D = 1 miss path keeps firing all run long.
                t.flush_asid(VICTIM);
            }
            let (asid, vpn) = match step % 4 {
                0 | 1 => (VICTIM, Vpn(0x100 + step % 3)),
                2 => (ATTACKER, Vpn(0x100 + 4 * (step % 5))),
                _ => (ATTACKER, Vpn(0x101 + 4 * (step % 5))),
            };
            let before = lanes(&t);
            let nf = t.stats().no_fill_responses;
            t.access(asid, vpn, &mut Ident);
            if t.stats().no_fill_responses == nf {
                continue; // hit or normal fill: recency updates expected
            }
            no_fill_misses += 1;
            let after = lanes(&t);
            let mut refreshed = 0;
            for ((e0, r0), (e1, r1)) in before.iter().zip(&after) {
                if e0 == e1 && r0 != r1 {
                    // Only the random fill's target D' may be refreshed
                    // in place — one lane, never the requested page.
                    refreshed += 1;
                    assert!(e1.valid, "rank of an empty lane moved");
                    assert_ne!(
                        (e1.asid, e1.vpn),
                        (asid, vpn),
                        "no-fill access touched the requested page's rank"
                    );
                }
            }
            assert!(
                refreshed <= 1,
                "no-fill miss refreshed {refreshed} lanes it did not fill"
            );
        }
        assert!(
            no_fill_misses > 20,
            "the interleaving must actually exercise the no-fill paths \
             (got {no_fill_misses})"
        );
    }

    #[test]
    fn reseeding_equals_building_with_the_seed() {
        // Only the engine changes: a programmed TLB reseeded with 99 draws
        // exactly what a TLB built with 99 and programmed alike draws.
        let mut reseeded = rf();
        reseeded.reseed(0, 99);
        reseeded.reseed(1, 7); // no level 1: ignored
        let mut built = rf_protected(TlbConfig::security_eval(), 99);
        for i in 0..60u64 {
            let (asid, vpn) = if i % 2 == 0 {
                (VICTIM, Vpn(0x100 + i % 3))
            } else {
                (ATTACKER, Vpn(0x100 + 4 * (i % 9)))
            };
            let a = reseeded.access(asid, vpn, &mut Ident);
            assert_eq!(a, built.access(asid, vpn, &mut Ident), "access {i}");
        }
        assert_eq!(reseeded.snapshot(), built.snapshot());
        assert_eq!(reseeded.stats(), built.stats());
    }

    #[test]
    fn clones_share_no_state() {
        let original = rf();
        let mut copy = original.clone();
        copy.access(VICTIM, Vpn(0x100), &mut Ident);
        assert_eq!(copy.stats().accesses, 1);
        assert_eq!(original.stats().accesses, 0);
        assert!(original.snapshot().is_empty());
    }

    #[test]
    fn miss_counter_reflects_slow_accesses() {
        // The security benchmarks read the miss counter as the timing
        // proxy; no-fill responses are misses (slow) too.
        let mut t = rf();
        t.access(VICTIM, Vpn(0x100), &mut Ident);
        assert_eq!(t.stats().misses, 1);
        assert!(t.stats().misses >= t.stats().no_fill_responses);
    }

    #[test]
    fn megapage_fills_choose_a_victim_in_their_own_set() {
        use crate::tlb_trait::WalkResult;
        // A walker that answers megapage translations for high addresses.
        struct MegaWalker;
        impl Translator for MegaWalker {
            fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
                if vpn.0 >= 0x1000 {
                    WalkResult::mega(Ppn(7), 60)
                } else {
                    WalkResult::page(Ppn(vpn.0), 60)
                }
            }
        }
        let mut t = rf();
        // Fill the base sets with valid entries first, then a mega fill:
        // its victim way must come from the *mega* set's choice, never
        // displace an entry the base-set probe selected.
        for i in 0..8u64 {
            t.access(VICTIM, Vpn(0x900 + i), &mut MegaWalker);
        }
        let before = t.resident_count();
        let r = t.access(VICTIM, Vpn(0x1234), &mut MegaWalker);
        assert!(!r.hit && !r.fault);
        assert!(t.probe(VICTIM, Vpn(0x1200)), "mega entry resident");
        assert!(t.resident_count() >= before, "no spurious double-eviction");
        // A second access within the superpage hits it.
        assert!(t.access(VICTIM, Vpn(0x13ff), &mut MegaWalker).hit);
    }

    /// A random fill whose `D'` is backed by a megapage must land in the
    /// megapage's own set: in `D'`'s base-page set no lookup would ever
    /// probe it, and the geometry check flags it as an entry outside its
    /// home set.
    #[test]
    fn megapage_random_fills_land_in_their_own_set() {
        use crate::tlb_trait::WalkResult;
        use crate::types::PageSize;
        /// Base pages below 0x400; 2 MiB pages from there up.
        struct HighMega;
        impl Translator for HighMega {
            fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
                if vpn.0 >= 0x400 {
                    WalkResult::mega(Ppn(0x9000 + PageSize::Mega.align(vpn).0), 60)
                } else {
                    WalkResult::page(Ppn(vpn.0), 60)
                }
            }
        }
        for eviction in [RandomFillEviction::RandomWay, RandomFillEviction::LruWay] {
            for seed in 0..64 {
                let mut t = Tlb::rf(TlbConfig::security_eval(), eviction, Default::default());
                t.reseed(0, seed);
                t.set_victim_asid(Some(VICTIM));
                t.set_secure_region(Some(SecureRegion::new(Vpn(0x100), 3)));
                // A secure entry in set 0, then seven base pages behind
                // it: set 0 is full and its LRU choice R is secure.
                while !t.probe(VICTIM, Vpn(0x100)) {
                    t.access(VICTIM, Vpn(0x100), &mut HighMega);
                }
                for i in 1..8u64 {
                    t.access(VICTIM, Vpn(0x200 + 4 * i), &mut HighMega);
                }
                // Page 0x404 indexes set 0 as a base page: Sec_R = 1, so
                // the TLB random-fills a set-randomized D' near it, which
                // the walker backs with the 2 MiB page at 0x400.
                let random_fills = t.stats().random_fills;
                t.access(VICTIM, Vpn(0x404), &mut HighMega);
                assert_eq!(t.stats().random_fills, random_fills + 1, "seed {seed}");
                t.integrity()
                    .unwrap_or_else(|e| panic!("{eviction:?}, seed {seed}: {}", e.detail));
                assert!(t.probe(VICTIM, Vpn(0x400)), "seed {seed}: megapage filled");
            }
        }
    }

    #[test]
    fn walk_cycles_cover_fill_and_response() {
        // A secure miss performs two walks (random fill + no-fill
        // response): its latency must exceed a normal miss's single walk.
        let mut t = rf();
        let secure_miss = t.access(VICTIM, Vpn(0x100), &mut Ident);
        let mut t2 = rf();
        let normal_miss = t2.access(VICTIM, Vpn(0x900), &mut Ident);
        assert!(secure_miss.walk_cycles > normal_miss.walk_cycles);
    }
}
