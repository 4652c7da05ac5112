//! The hardware page-table walker.
//!
//! On a TLB miss the walker performs one memory access per page-table
//! level (three for Sv39 without a page-walk cache — footnote 3 of the
//! paper notes RISC-V has none). Each level costs
//! [`WalkerConfig::cycles_per_level`] cycles, which dominates the
//! fast/slow timing difference the attacks measure.

use std::sync::Arc;

use sectlb_tlb::tlb_trait::{Translator, WalkResult};
use sectlb_tlb::types::{Asid, Vpn};

use crate::os::{slot_in, Os, Process};
use crate::phys_mem::FrameAllocator;

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
        self.cycles_per_level * u64::from(crate::page_table::LEVELS)
    }
}

/// A walker borrowing the OS's process table for the duration of one TLB
/// access. Implements the [`Translator`] callback the TLB designs use.
///
/// A walk only reads the table, which a restored machine shares with its
/// template; an auto-map unshares it first (see [`Os`]).
pub struct OsWalker<'a> {
    processes: &'a mut Arc<[Process]>,
    frames: &'a mut FrameAllocator,
    auto_map: bool,
    config: WalkerConfig,
}

impl<'a> OsWalker<'a> {
    /// Borrows the walker view out of the OS.
    pub fn new(os: &'a mut Os, config: WalkerConfig) -> OsWalker<'a> {
        let (processes, frames, auto_map) = os.walker_parts();
        OsWalker {
            processes,
            frames,
            auto_map,
            config,
        }
    }
}

impl Translator for OsWalker<'_> {
    fn translate(&mut self, asid: Asid, vpn: Vpn) -> WalkResult {
        let Some(i) = slot_in(self.processes.len(), asid) else {
            // Translating for a nonexistent address space: fault after one
            // root access.
            return WalkResult::fault(self.config.cycles_per_level);
        };
        let walk = self.processes[i].page_table().walk(vpn);
        let mut cycles = self.config.cycles_per_level * u64::from(walk.levels_accessed);
        let mut pte = walk.pte;
        if pte.is_none() && self.auto_map && vpn.0 <= crate::page_table::MAX_VPN {
            // Footnote-5 behavior: the OS pre-generated a PTE for this
            // address; materialize it now at full-walk cost.
            if let Ok(frame) = self.frames.alloc() {
                let flags = crate::page_table::PteFlags::rw_user();
                let process = &mut Arc::make_mut(self.processes)[i];
                if process
                    .page_table_mut()
                    .map(vpn, frame, flags, self.frames)
                    .is_ok()
                {
                    pte = process.page_table().walk(vpn).pte;
                    cycles = self.config.full_walk_cycles();
                }
            }
        }
        match pte {
            Some(p) => WalkResult {
                ppn: Some(p.ppn),
                cycles,
                size: p.size,
            },
            None => WalkResult::fault(cycles),
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
