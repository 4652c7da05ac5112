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

use crate::config::TlbConfig;
use crate::set_assoc::{Defense, Tlb};

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

impl Tlb {
    /// Creates an SP TLB assigning `victim_ways` ways per set to the
    /// victim partition, the design-time parameter `N` of Section 4.1.2
    /// (the paper's default is half the ways). No victim is programmed
    /// initially, so every fill lands in the other partition until the OS
    /// programs [`TlbCore::set_victim_asid`](crate::TlbCore::set_victim_asid).
    ///
    /// # Errors
    ///
    /// Fails unless `0 < victim_ways < ways`: there must be at least one
    /// way on each side of the split.
    pub fn sp(config: TlbConfig, victim_ways: usize) -> Result<Tlb, PartitionError> {
        if victim_ways == 0 || victim_ways >= config.ways() {
            return Err(PartitionError {
                victim_ways,
                ways: config.ways(),
            });
        }
        Ok(Tlb::with_defense(
            config,
            Defense::Partition {
                victim_asid: None,
                victim_ways,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb_trait::{TlbCore, Translator, WalkResult};
    use crate::types::Ppn;
    use crate::types::{Asid, Vpn};

    struct Ident;
    impl Translator for Ident {
        fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
            WalkResult::page(Ppn(vpn.0 + 1000), 60)
        }
    }

    /// 32 entries, 8 ways, half of them the victim's (ASID 1).
    fn sp_with_victim() -> Tlb {
        let mut t = Tlb::sp(TlbConfig::sa(32, 8).unwrap(), 4).unwrap();
        t.set_victim_asid(Some(Asid(1)));
        t
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
        t.integrity().unwrap();
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
        t.integrity().unwrap();
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
        t.integrity().unwrap();
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
        let mut t = Tlb::sp(TlbConfig::sa(8, 4).unwrap(), 2).unwrap();
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
        t.integrity().unwrap();
    }

    #[test]
    fn a_split_must_leave_a_way_on_each_side() {
        let config = TlbConfig::sa(32, 4).unwrap();
        for victim_ways in [0, 4] {
            let err = Tlb::sp(config, victim_ways).unwrap_err();
            assert_eq!(
                err,
                PartitionError {
                    victim_ways,
                    ways: 4
                }
            );
            assert!(err.to_string().contains("victim partition"), "{err}");
        }
        assert!(Tlb::sp(config, 3).is_ok());
    }
}
