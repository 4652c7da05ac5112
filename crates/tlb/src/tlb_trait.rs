//! The common interface of all TLB designs.

use crate::config::TlbConfig;
use crate::stats::TlbStats;
use crate::types::{Asid, Ppn, Vpn};

/// Result of a page-table walk issued by a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translated physical page, or `None` on a page fault.
    pub ppn: Option<Ppn>,
    /// Cycles the walk consumed.
    pub cycles: u64,
    /// The translation's page size (meaningful only when `ppn` is set).
    pub size: crate::types::PageSize,
}

impl WalkResult {
    /// A successful base-page translation.
    pub fn page(ppn: Ppn, cycles: u64) -> WalkResult {
        WalkResult {
            ppn: Some(ppn),
            cycles,
            size: crate::types::PageSize::Base,
        }
    }

    /// A successful megapage translation.
    pub fn mega(ppn: Ppn, cycles: u64) -> WalkResult {
        WalkResult {
            ppn: Some(ppn),
            cycles,
            size: crate::types::PageSize::Mega,
        }
    }

    /// A successful gigapage translation.
    pub fn giga(ppn: Ppn, cycles: u64) -> WalkResult {
        WalkResult {
            ppn: Some(ppn),
            cycles,
            size: crate::types::PageSize::Giga,
        }
    }

    /// A faulting walk.
    pub fn fault(cycles: u64) -> WalkResult {
        WalkResult {
            ppn: None,
            cycles,
            size: crate::types::PageSize::Base,
        }
    }
}

/// Something that can resolve virtual pages to physical pages — the
/// page-table walker of the system the TLB is mounted in.
///
/// The TLB hardware issues walk requests on misses; the Random-Fill TLB
/// additionally issues walks for the random addresses it fills (the paper
/// assumes the OS has pre-generated page-table entries for those,
/// footnote 5).
pub trait Translator {
    /// Walks the page table for `(asid, vpn)`.
    fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult;
}

impl<T: Translator + ?Sized> Translator for &mut T {
    fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
        (**self).translate(asid, vpn)
    }
}

/// Outcome of one TLB access as seen by the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the requested translation was resident (fast).
    pub hit: bool,
    /// Whether the request ultimately faulted (no valid translation).
    pub fault: bool,
    /// The translation returned to the CPU, if any.
    pub ppn: Option<Ppn>,
    /// Extra cycles spent on page-table walks for this access (zero on a
    /// hit). Includes walks issued for random fills, which the RF TLB
    /// performs on the critical path (Section 4.2.3 argues against
    /// asynchronous filling).
    pub walk_cycles: u64,
    /// The returned translation's page size.
    pub size: crate::types::PageSize,
}

impl AccessResult {
    /// A plain hit costing no walk cycles.
    #[inline]
    pub fn hit_sized(ppn: Ppn, size: crate::types::PageSize) -> AccessResult {
        AccessResult {
            hit: true,
            fault: false,
            ppn: Some(ppn),
            walk_cycles: 0,
            size,
        }
    }

    /// A base-page hit costing no walk cycles.
    pub fn hit(ppn: Ppn) -> AccessResult {
        AccessResult::hit_sized(ppn, crate::types::PageSize::Base)
    }
}

/// The interface shared by every TLB design: the single-level
/// [`crate::Tlb`] (SA and its FA / 1E geometries, SP, RF, and the
/// temporal-partitioning FS and FT), the multi-size [`crate::MsTlb`], a
/// two-level [`crate::TlbHierarchy`] of any two of them, and the
/// [`crate::TlbUnit`] that dispatches over all of these.
///
/// This trait is sealed: the security and performance evaluations are
/// defined over exactly these designs.
pub trait TlbCore: sealed::Sealed {
    /// Handles one translation request, walking the page table via
    /// `walker` as needed. Updates replacement state and counters.
    fn access(&mut self, asid: Asid, vpn: Vpn, walker: &mut dyn Translator) -> AccessResult;

    /// Whether `(asid, vpn)` is currently resident, without disturbing
    /// replacement state or counters.
    fn probe(&self, asid: Asid, vpn: Vpn) -> bool;

    /// Invalidates every entry (e.g. an OS-level TLB flush on context
    /// switch, or the `A_inv`/`V_inv` step of an attack pattern).
    fn flush_all(&mut self);

    /// Invalidates all entries of one address space.
    fn flush_asid(&mut self, asid: Asid);

    /// Invalidates one page of one address space (the targeted
    /// invalidation of Appendix B, e.g. an `mprotect()`-induced
    /// shootdown). Returns whether an entry was actually removed — present
    /// entries take an extra cycle to clear, which is the timing channel
    /// of the paper's "TLB Flush + Flush" discussion.
    fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool;

    /// The accumulated performance counters.
    fn stats(&self) -> &TlbStats;

    /// Resets the performance counters.
    fn reset_stats(&mut self);

    /// This TLB's geometry.
    fn config(&self) -> TlbConfig;

    /// Short design name: `"SA"`, `"SP"`, `"RF"`, `"FS"`, `"FT"`, `"MS"`,
    /// or `"L1+L2"` for a hierarchy.
    fn design_name(&self) -> &'static str;

    /// Per-level counters for multi-level TLBs: level 0 is the L1.
    /// Single-level designs answer only level 0.
    fn level_stats(&self, level: usize) -> Option<&TlbStats> {
        (level == 0).then(|| self.stats())
    }

    /// Residency probe at a specific level of a multi-level TLB.
    /// Single-level designs answer only level 0.
    fn probe_level(&self, level: usize, asid: Asid, vpn: Vpn) -> Option<bool> {
        (level == 0).then(|| self.probe(asid, vpn))
    }

    /// Hardware hook invoked when the OS switches address spaces. The
    /// temporal-partitioning designs (`FS`, `FT`) clear state here; every
    /// other design does nothing (their defenses are spatial, not
    /// temporal).
    fn on_context_switch(&mut self) {}

    /// Whether the replacement state carries no observable residue — i.e.
    /// it is indistinguishable from the reset state for every possible
    /// victim-choice query. `None` means the design makes no
    /// temporal-partitioning claim about replacement state (all designs
    /// except `FT`). The oracle checks this after a context switch on
    /// designs that return `Some`.
    fn replacement_pristine(&self) -> Option<bool> {
        None
    }

    /// Programs the victim process ID register. Only SP and RF have it,
    /// and both flush when its value changes; other designs ignore this.
    fn set_victim_asid(&mut self, _victim: Option<Asid>) {}

    /// Programs the secure-region registers (`sbase`, `ssize`). Only the
    /// RF TLB has them, and it flushes when their value changes; other
    /// designs ignore this.
    fn set_secure_region(&mut self, _region: Option<crate::types::SecureRegion>) {}

    /// Replaces the randomness source of `level` (0 is the L1) with one
    /// seeded from `seed`, exactly as if that level had been built with
    /// it. Only the RF design owns randomness — its Random Fill Engine —
    /// so every other design, and every level a TLB does not have,
    /// ignores this. Entries, replacement state and counters are
    /// untouched.
    fn reseed(&mut self, _level: usize, _seed: u64) {}

    /// Structural dump of every valid entry across all levels, in
    /// deterministic `(level, set, way)` order — the shadow oracle's view
    /// of the TLB state. Does not disturb replacement state or counters.
    fn snapshot(&self) -> Vec<crate::check::SnapshotEntry>;

    /// Verifies the design's structural invariants (set indexing, megapage
    /// alignment, duplicate freedom, and — per design — SP partition
    /// isolation or RF *Sec*-bit correctness) over the current contents.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant with entry-level detail.
    fn integrity(&self) -> Result<(), crate::check::IntegrityError>;

    /// Deterministically corrupts one resident entry (fault injection for
    /// the oracle's end-to-end tests). Returns `None` when no entry is
    /// eligible (e.g. the TLB is empty).
    fn corrupt_entry(
        &mut self,
        selector: u64,
        kind: crate::check::CorruptionKind,
    ) -> Option<crate::check::CorruptionReport>;
}

pub(crate) mod sealed {
    /// Seals [`super::TlbCore`] to this crate's designs.
    pub trait Sealed {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Translator` must be usable through `&mut` references (the machine
    /// passes its walker down by reference).
    #[test]
    fn translator_auto_ref_impl() {
        struct T;
        impl Translator for T {
            fn translate(&mut self, _asid: Asid, vpn: Vpn) -> WalkResult {
                WalkResult::page(Ppn(vpn.0), 1)
            }
        }
        fn takes_dyn(t: &mut dyn Translator) -> WalkResult {
            t.translate(Asid(0), Vpn(5))
        }
        let mut t = T;
        let mut r = &mut t;
        assert_eq!(takes_dyn(&mut r).ppn, Some(Ppn(5)));
    }

    #[test]
    fn access_result_hit_constructor() {
        let r = AccessResult::hit(Ppn(3));
        assert!(r.hit && !r.fault);
        assert_eq!(r.walk_cycles, 0);
        assert_eq!(r.ppn, Some(Ppn(3)));
    }
}
