//! The hardware page-table walker.
//!
//! On a TLB miss the walker performs one memory access per page-table
//! level (three for Sv39 without a page-walk cache — footnote 3 of the
//! paper notes RISC-V has none). Each level costs
//! [`WalkerConfig::cycles_per_level`] cycles, which dominates the
//! fast/slow timing difference the attacks measure.
//!
//! The simulated walker has no cache, but the host-side one remembers
//! each walk's result for as long as the page tables do not change (see
//! [`Os`]'s page-walk memo): a remembered walk is charged exactly the
//! levels the radix walk would access.

use sectlb_tlb::tlb_trait::{Translator, WalkResult};
use sectlb_tlb::types::{Asid, PageSize, Ppn, Vpn};

use crate::os::{slot_in, Os};
use crate::page_table::{Walk, LEVELS, MAX_VPN};

/// Timing parameters of the walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerConfig {
    /// Memory-access latency per page-table level, in cycles.
    pub cycles_per_level: u64,
}

impl Default for WalkerConfig {
    /// 20 cycles per level: a full three-level walk costs 60 cycles,
    /// comfortably distinguishable from a 1-cycle hit — the property the
    /// timing attacks (and the miss-counter proxy) rely on.
    fn default() -> WalkerConfig {
        WalkerConfig {
            cycles_per_level: 20,
        }
    }
}

impl WalkerConfig {
    /// The cost of a full successful walk.
    pub fn full_walk_cycles(self) -> u64 {
        self.cycles_per_level * u64::from(LEVELS)
    }
}

/// One remembered walk: the key, the page-table version it was walked
/// at, and what the walk found.
#[derive(Debug, Clone, Copy, Default)]
struct Memoized {
    /// Zero, which no version id takes, marks an empty slot.
    version: u64,
    vpn: u64,
    asid: u16,
    present: bool,
    levels: u8,
    size: PageSize,
    ppn: u64,
}

impl Memoized {
    /// The walk's result, charged `levels` levels.
    #[inline]
    fn result(&self, config: WalkerConfig) -> WalkResult {
        let cycles = config.cycles_per_level * u64::from(self.levels);
        if self.present {
            WalkResult {
                ppn: Some(Ppn(self.ppn)),
                cycles,
                size: self.size,
            }
        } else {
            WalkResult::fault(cycles)
        }
    }
}

/// The page-walk memo (see [`Os`]): a direct-mapped table of walk
/// results, each valid for the page-table version it was walked at.
///
/// It is sized when it first sees a version: a power of two of at least
/// twice the pages the OS maps, between [`WalkMemo::MIN_SLOTS`] and
/// [`WalkMemo::MAX_SLOTS`]. It only grows, so a restore to a version it
/// has seen allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct WalkMemo {
    slots: Vec<Memoized>,
    /// The last version it was sized for.
    seen: u64,
}

impl WalkMemo {
    const MIN_SLOTS: usize = 64;
    /// 4,096 slots (128 KiB) hold Figure 7's largest address spaces
    /// (omnetpp's 512 pages beside RSA's) twice over.
    const MAX_SLOTS: usize = 1 << 12;

    #[inline]
    fn index(&self, asid: Asid, vpn: Vpn) -> usize {
        // Regions are runs of consecutive pages, so the low VPN bits
        // spread one process's pages over distinct slots; the ASID term
        // offsets the processes from each other.
        (vpn.0 as usize ^ usize::from(asid.0).wrapping_mul(0x9e37)) & (self.slots.len() - 1)
    }

    /// The remembered walk of `(asid, vpn)` at `version`, if any. A
    /// remembered fault is final only with auto-map off.
    #[inline]
    fn get(&self, version: u64, asid: Asid, vpn: Vpn, auto_map: bool) -> Option<&Memoized> {
        if self.slots.is_empty() {
            return None;
        }
        let m = &self.slots[self.index(asid, vpn)];
        (m.version == version && m.vpn == vpn.0 && m.asid == asid.0 && (m.present || !auto_map))
            .then_some(m)
    }

    /// Sizes the memo for a version it has not seen, with `pages` mapped.
    fn refit(&mut self, version: u64, pages: u64) {
        let want = (2 * pages)
            .min(Self::MAX_SLOTS as u64)
            .next_power_of_two()
            .max(Self::MIN_SLOTS as u64) as usize;
        if self.slots.len() < want {
            // Slots store their whole key, so entries left where a
            // smaller mask put them stay exact.
            self.slots.resize(want, Memoized::default());
        }
        self.seen = version;
    }

    /// Remembers `walk` of `(asid, vpn)` at `version`.
    fn put(&mut self, version: u64, asid: Asid, vpn: Vpn, walk: Walk) -> Memoized {
        let (present, size, ppn) = match walk.pte {
            Some(pte) => (true, pte.size, pte.ppn.0),
            None => (false, PageSize::Base, 0),
        };
        let i = self.index(asid, vpn);
        self.slots[i] = Memoized {
            version,
            vpn: vpn.0,
            asid: asid.0,
            present,
            levels: walk.levels_accessed as u8,
            size,
            ppn,
        };
        self.slots[i]
    }
}

/// A walker borrowing the OS for the duration of one TLB access.
/// Implements the [`Translator`] callback the TLB designs use.
///
/// A walk only reads the page tables, which a restored machine shares
/// with its template; an auto-map unshares them first (see [`Os`]).
pub struct OsWalker<'a> {
    os: &'a mut Os,
    config: WalkerConfig,
}

impl<'a> OsWalker<'a> {
    /// Borrows the walker view out of the OS.
    pub fn new(os: &'a mut Os, config: WalkerConfig) -> OsWalker<'a> {
        OsWalker { os, config }
    }

    /// The radix walk, with footnote 5's auto-map of a missing page, and
    /// remembering what it found.
    #[inline(never)]
    fn walk(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
        let Some(i) = slot_in(self.os.processes().len(), asid) else {
            // Translating for a nonexistent address space: fault after one
            // root access.
            return WalkResult::fault(self.config.cycles_per_level);
        };
        let mut walk = self.os.processes()[i].page_table().walk(vpn);
        if walk.pte.is_none() && self.os.auto_map && vpn.0 <= MAX_VPN {
            // Footnote-5 behavior: the OS pre-generated a PTE for this
            // address; materialize it now at full-walk cost.
            if self.os.auto_map_page(i, vpn) {
                walk = Walk {
                    pte: self.os.processes()[i].page_table().walk(vpn).pte,
                    levels_accessed: LEVELS,
                };
            }
        }
        let os = &mut *self.os;
        if os.memo.seen != os.version {
            let pages = os.mapped_pages();
            os.memo.refit(os.version, pages);
        }
        os.memo.put(os.version, asid, vpn, walk).result(self.config)
    }
}

impl Translator for OsWalker<'_> {
    #[inline]
    fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
        let os = &*self.os;
        match os.memo.get(os.version, asid, vpn, os.auto_map) {
            Some(m) => m.result(self.config),
            None => self.walk(asid, vpn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_tlb::types::Ppn;

    #[test]
    fn walk_cost_is_three_levels_for_mapped_pages() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_page(p, Vpn(0x10)).unwrap();
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        let r = w.translate(p, Vpn(0x10));
        assert!(r.ppn.is_some());
        assert_eq!(r.cycles, 60);
    }

    #[test]
    fn auto_map_materializes_missing_ptes() {
        let mut os = Os::default();
        let p = os.create_process();
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        let r = w.translate(p, Vpn(0x77));
        assert!(r.ppn.is_some(), "auto-map provides a translation");
        // The mapping persists.
        let pt = os.process(p).unwrap().page_table();
        assert!(pt.walk(Vpn(0x77)).pte.is_some());
    }

    #[test]
    fn without_auto_map_unmapped_pages_fault() {
        let mut os = Os::default();
        os.auto_map = false;
        let p = os.create_process();
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        let r = w.translate(p, Vpn(0x77));
        assert_eq!(r.ppn, None);
        assert_eq!(r.cycles, 20, "fault detected at the root costs 1 level");
    }

    #[test]
    fn unknown_asid_faults() {
        let mut os = Os::default();
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        let r = w.translate(Asid(42), Vpn(0));
        assert_eq!(r.ppn, None);
    }

    #[test]
    fn asid_zero_and_asids_past_the_last_fault_after_one_level() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_page(p, Vpn(0x10)).unwrap();
        let frames = os.frames().allocated();
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        for missing in [Asid(0), Asid(p.0 + 1), Asid(u16::MAX)] {
            let r = w.translate(missing, Vpn(0x10));
            assert_eq!(r, WalkResult::fault(20), "{missing}");
        }
        // No address space to auto-map into: nothing was allocated.
        assert_eq!(os.frames().allocated(), frames);
    }

    #[test]
    fn a_cloned_os_walks_identically() {
        let mut os = Os::default();
        let a = os.create_process();
        let b = os.create_process();
        os.map_region(a, Vpn(0x10_000), 512).unwrap();
        for vpn in [0x400, 0x401, 0x403, 0x409, 0x480] {
            os.map_page(b, Vpn(vpn)).unwrap();
        }
        os.map_mega_page(b, Vpn(0x600)).unwrap();
        os.unmap_page(a, Vpn(0x10_100)).unwrap();
        let mut copy = os.clone();
        let probes: Vec<u64> = (0x10_000 - 2..0x10_000 + 514)
            .chain(0x3fe..0x482)
            .chain([0x600, 0x7ff, 0x800, crate::page_table::MAX_VPN + 1])
            .collect();
        // Twice: the first pass auto-maps the unmapped pages in both, and
        // the second sees the pages it mapped.
        for _ in 0..2 {
            for asid in [Asid(0), a, b, Asid(3)] {
                for &vpn in &probes {
                    let want =
                        OsWalker::new(&mut os, WalkerConfig::default()).translate(asid, Vpn(vpn));
                    let got =
                        OsWalker::new(&mut copy, WalkerConfig::default()).translate(asid, Vpn(vpn));
                    assert_eq!(got, want, "{asid} {vpn:#x}");
                }
            }
        }
        assert_eq!(copy.asids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn translations_are_stable() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_page(p, Vpn(0x10)).unwrap();
        let first: Option<Ppn>;
        {
            let mut w = OsWalker::new(&mut os, WalkerConfig::default());
            first = w.translate(p, Vpn(0x10)).ppn;
        }
        let mut w = OsWalker::new(&mut os, WalkerConfig::default());
        assert_eq!(w.translate(p, Vpn(0x10)).ppn, first);
    }
}
