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

use crate::config::TlbConfig;
use crate::set_assoc::{Defense, Tlb};

/// How much state a temporal-partitioning design clears on context
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClearScope {
    /// Invalidate every entry; replacement ranks keep their values (`FS`).
    Entries,
    /// Invalidate every entry *and* reset replacement state (`FT`).
    Full,
}

impl Tlb {
    /// Creates a temporal-partitioning TLB: the SA design plus a clear of
    /// `scope` on every context switch (`FS` for
    /// [`ClearScope::Entries`], `FT` for [`ClearScope::Full`]).
    pub fn temporal(config: TlbConfig, scope: ClearScope) -> Tlb {
        Tlb::with_defense(config, Defense::Temporal(scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb_trait::{TlbCore, Translator, WalkResult};
    use crate::types::{Asid, Ppn, Vpn};

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
        let mut tp = Tlb::temporal(config(), ClearScope::Entries);
        let mut sa = Tlb::sa(config());
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
        for mut t in [
            Tlb::temporal(config(), ClearScope::Entries),
            Tlb::temporal(config(), ClearScope::Full),
        ] {
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
        let mut fs = Tlb::temporal(config(), ClearScope::Entries);
        let mut ft = Tlb::temporal(config(), ClearScope::Full);
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
        assert_eq!(
            Tlb::temporal(config(), ClearScope::Entries).design_name(),
            "FS"
        );
        assert_eq!(
            Tlb::temporal(config(), ClearScope::Full).design_name(),
            "FT"
        );
    }

    #[test]
    fn sa_replacement_claim_stays_none() {
        // The default hook: non-temporal designs never claim pristineness.
        let sa = Tlb::sa(config());
        assert_eq!(sa.replacement_pristine(), None);
    }
}
