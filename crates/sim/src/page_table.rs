//! An Sv39-like three-level radix page table.
//!
//! RISC-V Sv39 translates a 27-bit virtual page number through three
//! levels of 512-entry tables. Each node occupies a physical frame (so
//! the walker's per-level memory accesses are structurally real), but node
//! contents live in host structures — the simulator never stores simulated
//! data bytes.
//!
//! The paper's footnote 3 notes that RISC-V (at the time) had no page-walk
//! cache, so every TLB miss pays the full walk; our walker model follows
//! that.

use sectlb_tlb::types::{PageSize, Ppn, Vpn};

use crate::phys_mem::{FrameAllocator, OutOfFrames};

/// Bits of VPN consumed per level.
pub const LEVEL_BITS: u32 = 9;
/// Number of levels.
pub const LEVELS: u32 = 3;
/// Maximum VPN representable (27 bits).
pub const MAX_VPN: u64 = (1 << (LEVEL_BITS * LEVELS)) - 1;

/// Permission and status flags of a leaf PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
    /// User accessible.
    pub user: bool,
    /// Global mapping (survives ASID-targeted flushes on real hardware).
    pub global: bool,
}

impl PteFlags {
    /// Read/write user data pages — the common case for our workloads.
    pub fn rw_user() -> PteFlags {
        PteFlags {
            r: true,
            w: true,
            x: false,
            user: true,
            global: false,
        }
    }
}

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical page.
    pub ppn: Ppn,
    /// Permissions.
    pub flags: PteFlags,
    /// The mapping's granularity (Sv39 allows leaves above the last
    /// level: 2 MiB megapages at level 1, 1 GiB gigapages at the root).
    pub size: PageSize,
}

/// A sparse radix-node directory: `(slot, value)` pairs sorted by slot.
///
/// Machine setup maps on the order of a hundred pages, and campaign
/// trials build machines by the thousand, so node bookkeeping is squarely
/// on the hot path. A sorted vector beats a `HashMap` here twice over: no
/// SipHash per probe, and workloads map regions in ascending VPN order,
/// which the append fast path turns into a push. Regions mapped that way
/// leave dense runs of consecutive slots, and [`SlotMap::find`] finds a
/// slot inside such a run by its offset from the first slot, in one
/// compare; only a sparse node pays a search over its (at most 512)
/// slots.
#[derive(Debug, Clone)]
struct SlotMap<T> {
    slots: Vec<(u16, T)>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> SlotMap<T> {
        SlotMap { slots: Vec::new() }
    }
}

impl<T> SlotMap<T> {
    /// Position of `idx`, or the insertion point keeping slots sorted.
    ///
    /// Slots are sorted and distinct, so when no slot is missing between
    /// the first one and `idx`, `idx` sits at its offset from the first:
    /// one compare finds it inside a dense run (a leaf node of a mapped
    /// region). Otherwise an append lands past the last slot, and the
    /// rest binary-searches.
    #[inline]
    fn find(&self, idx: u16) -> Result<usize, usize> {
        let first = self.slots.first().map_or(0, |&(first, _)| first);
        if let Some(offset) = idx.checked_sub(first).map(usize::from) {
            if self.slots.get(offset).is_some_and(|&(at, _)| at == idx) {
                return Ok(offset);
            }
        }
        match self.slots.last() {
            None => Err(0),
            Some(&(last, _)) if last < idx => Err(self.slots.len()),
            Some(&(last, _)) if last == idx => Ok(self.slots.len() - 1),
            _ => self.slots.binary_search_by_key(&idx, |&(i, _)| i),
        }
    }

    #[inline]
    fn get(&self, idx: u16) -> Option<&T> {
        self.find(idx).ok().map(|p| &self.slots[p].1)
    }

    #[inline]
    fn get_mut(&mut self, idx: u16) -> Option<&mut T> {
        self.find(idx).ok().map(move |p| &mut self.slots[p].1)
    }

    fn contains(&self, idx: u16) -> bool {
        self.find(idx).is_ok()
    }

    /// Inserts `value` at `idx` if vacant; returns whether it inserted.
    fn try_insert(&mut self, idx: u16, value: T) -> bool {
        match self.find(idx) {
            Ok(_) => false,
            Err(p) => {
                self.slots.insert(p, (idx, value));
                true
            }
        }
    }

    fn remove(&mut self, idx: u16) -> Option<T> {
        self.find(idx).ok().map(|p| self.slots.remove(p).1)
    }

    fn iter(&self) -> impl Iterator<Item = (u16, &T)> {
        self.slots.iter().map(|(i, v)| (*i, v))
    }
}

/// One radix node: a frame plus its (sparse) entries. `leaves` at the
/// middle level hold megapage mappings; `leaves` at the root hold
/// gigapage mappings.
#[derive(Debug, Clone, Default)]
struct Node {
    frame: Ppn,
    children: SlotMap<Box<Node>>,
    leaves: SlotMap<Pte>,
}

/// Result of walking the table for a VPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// The found translation, or `None` on a fault.
    pub pte: Option<Pte>,
    /// Page-table memory accesses the walk performed (1..=3).
    pub levels_accessed: u32,
}

/// Errors from page-table updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The VPN exceeds the 27-bit Sv39 range.
    VpnOutOfRange(Vpn),
    /// The VPN is already mapped.
    AlreadyMapped(Vpn),
    /// No physical frames left for a new table node.
    OutOfFrames,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::VpnOutOfRange(v) => write!(f, "{v} exceeds the Sv39 range"),
            MapError::AlreadyMapped(v) => write!(f, "{v} is already mapped"),
            MapError::OutOfFrames => f.write_str("physical memory exhausted"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<OutOfFrames> for MapError {
    fn from(_: OutOfFrames) -> MapError {
        MapError::OutOfFrames
    }
}

/// A per-process three-level page table.
#[derive(Debug, Clone)]
pub struct PageTable {
    root: Node,
    mapped_pages: u64,
}

fn index_at(vpn: Vpn, level: u32) -> u16 {
    // level 0 is the root (highest bits).
    let shift = LEVEL_BITS * (LEVELS - 1 - level);
    ((vpn.0 >> shift) & ((1 << LEVEL_BITS) - 1)) as u16
}

impl PageTable {
    /// Creates an empty table whose root node occupies a fresh frame.
    ///
    /// # Errors
    ///
    /// Fails when no frame is available for the root.
    pub fn new(frames: &mut FrameAllocator) -> Result<PageTable, OutOfFrames> {
        Ok(PageTable {
            root: Node {
                frame: frames.alloc()?,
                ..Node::default()
            },
            mapped_pages: 0,
        })
    }

    /// Number of leaf mappings.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The root node's frame (the value a `satp`-like register would hold).
    pub fn root_frame(&self) -> Ppn {
        self.root.frame
    }

    /// Maps `vpn` to `ppn`, allocating intermediate nodes as needed.
    ///
    /// # Errors
    ///
    /// Fails when `vpn` is out of range, already mapped, or intermediate
    /// node allocation runs out of frames.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        flags: PteFlags,
        frames: &mut FrameAllocator,
    ) -> Result<(), MapError> {
        if vpn.0 > MAX_VPN {
            return Err(MapError::VpnOutOfRange(vpn));
        }
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = index_at(vpn, level);
            if !node.children.contains(idx) {
                // Allocate before inserting so an allocation failure
                // leaves the table untouched.
                let frame = frames.alloc()?;
                node.children.try_insert(
                    idx,
                    Box::new(Node {
                        frame,
                        ..Node::default()
                    }),
                );
            }
            node = node.children.get_mut(idx).expect("just inserted");
        }
        let leaf_idx = index_at(vpn, LEVELS - 1);
        if !node.leaves.try_insert(
            leaf_idx,
            Pte {
                ppn,
                flags,
                size: PageSize::Base,
            },
        ) {
            return Err(MapError::AlreadyMapped(vpn));
        }
        self.mapped_pages += 1;
        Ok(())
    }

    /// Maps a 2 MiB megapage (a level-1 leaf covering 512 base pages) at
    /// `vpn`, which must be 512-page aligned.
    ///
    /// # Errors
    ///
    /// Fails when `vpn` is out of range or unaligned, the slot is already
    /// mapped, or node allocation runs out of frames.
    pub fn map_mega(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        flags: PteFlags,
        frames: &mut FrameAllocator,
    ) -> Result<(), MapError> {
        if vpn.0 > MAX_VPN || vpn != PageSize::Mega.align(vpn) {
            return Err(MapError::VpnOutOfRange(vpn));
        }
        let idx0 = index_at(vpn, 0);
        if !self.root.children.contains(idx0) {
            let frame = frames.alloc()?;
            self.root.children.try_insert(
                idx0,
                Box::new(Node {
                    frame,
                    ..Node::default()
                }),
            );
        }
        let mid = self.root.children.get_mut(idx0).expect("just inserted");
        let idx1 = index_at(vpn, 1);
        if mid.leaves.contains(idx1) || mid.children.contains(idx1) {
            return Err(MapError::AlreadyMapped(vpn));
        }
        mid.leaves.try_insert(
            idx1,
            Pte {
                ppn,
                flags,
                size: PageSize::Mega,
            },
        );
        self.mapped_pages += PageSize::Mega.span_pages();
        Ok(())
    }

    /// Maps a 1 GiB gigapage (a root-level leaf covering 512² base pages)
    /// at `vpn`, which must be 512²-page aligned.
    ///
    /// # Errors
    ///
    /// Fails when `vpn` is out of range or unaligned, or the root slot
    /// already holds a mapping or a subtree.
    pub fn map_giga(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) -> Result<(), MapError> {
        if vpn.0 > MAX_VPN || vpn != PageSize::Giga.align(vpn) {
            return Err(MapError::VpnOutOfRange(vpn));
        }
        let idx0 = index_at(vpn, 0);
        if self.root.leaves.contains(idx0) || self.root.children.contains(idx0) {
            return Err(MapError::AlreadyMapped(vpn));
        }
        self.root.leaves.try_insert(
            idx0,
            Pte {
                ppn,
                flags,
                size: PageSize::Giga,
            },
        );
        self.mapped_pages += PageSize::Giga.span_pages();
        Ok(())
    }

    /// Removes the mapping for `vpn`; returns the removed PTE if present.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            node = node.children.get_mut(index_at(vpn, level))?;
        }
        let removed = node.leaves.remove(index_at(vpn, LEVELS - 1));
        if removed.is_some() {
            self.mapped_pages -= 1;
        }
        removed
    }

    /// Changes the flags of an existing mapping (the `mprotect()` of the
    /// Appendix B discussion); returns `false` if `vpn` is unmapped.
    pub fn protect(&mut self, vpn: Vpn, flags: PteFlags) -> bool {
        let Some(pte) = self.lookup_mut(vpn) else {
            return false;
        };
        pte.flags = flags;
        true
    }

    fn lookup_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            node = node.children.get_mut(index_at(vpn, level))?;
        }
        node.leaves.get_mut(index_at(vpn, LEVELS - 1))
    }

    /// Every leaf mapping `(vpn, pte)` currently in the table, in
    /// ascending VPN order. Megapage leaves appear once, at their aligned
    /// VPN. Used by the shadow oracle to capture a replayable image of an
    /// address space.
    pub fn mappings(&self) -> Vec<(Vpn, Pte)> {
        fn visit(node: &Node, base: u64, level: u32, out: &mut Vec<(Vpn, Pte)>) {
            let shift = LEVEL_BITS * (LEVELS - 1 - level);
            for (idx, pte) in node.leaves.iter() {
                out.push((Vpn(base | (u64::from(idx) << shift)), *pte));
            }
            for (idx, child) in node.children.iter() {
                visit(child, base | (u64::from(idx) << shift), level + 1, out);
            }
        }
        let mut out = Vec::new();
        visit(&self.root, 0, 0, &mut out);
        out.sort_by_key(|(vpn, _)| vpn.0);
        out
    }

    /// Walks the table for `vpn`, counting the per-level memory accesses a
    /// hardware walker would perform. Superpage leaves terminate the walk
    /// early — megapages after two levels, gigapages after one (cheaper
    /// walks, one of their benefits).
    pub fn walk(&self, vpn: Vpn) -> Walk {
        if vpn.0 > MAX_VPN {
            return Walk {
                pte: None,
                levels_accessed: 1,
            };
        }
        let mut node = &self.root;
        for level in 0..LEVELS - 1 {
            // A leaf above the last level is a superpage mapping: a
            // gigapage at the root, a megapage at the middle level.
            if let Some(pte) = node.leaves.get(index_at(vpn, level)) {
                return Walk {
                    pte: Some(*pte),
                    levels_accessed: level + 1,
                };
            }
            match node.children.get(index_at(vpn, level)) {
                Some(child) => node = child,
                None => {
                    return Walk {
                        pte: None,
                        levels_accessed: level + 1,
                    }
                }
            }
        }
        Walk {
            pte: node.leaves.get(index_at(vpn, LEVELS - 1)).copied(),
            levels_accessed: LEVELS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PageTable, FrameAllocator) {
        let mut frames = FrameAllocator::new(1 << 16);
        let pt = PageTable::new(&mut frames).unwrap();
        (pt, frames)
    }

    #[test]
    fn map_then_walk_roundtrip() {
        let (mut pt, mut frames) = setup();
        let ppn = frames.alloc().unwrap();
        pt.map(Vpn(0x12345), ppn, PteFlags::rw_user(), &mut frames)
            .unwrap();
        let w = pt.walk(Vpn(0x12345));
        assert_eq!(w.pte.map(|p| p.ppn), Some(ppn));
        assert_eq!(w.levels_accessed, 3, "full walk touches all 3 levels");
    }

    #[test]
    fn unmapped_walk_faults_early() {
        let (pt, _) = setup();
        let w = pt.walk(Vpn(0x12345));
        assert_eq!(w.pte, None);
        assert_eq!(w.levels_accessed, 1, "fault detected at the root");
    }

    #[test]
    fn neighboring_page_faults_at_leaf_level() {
        let (mut pt, mut frames) = setup();
        let ppn = frames.alloc().unwrap();
        pt.map(Vpn(0x200), ppn, PteFlags::rw_user(), &mut frames)
            .unwrap();
        // Same leaf table, different slot: intermediate nodes exist.
        let w = pt.walk(Vpn(0x201));
        assert_eq!(w.pte, None);
        assert_eq!(w.levels_accessed, 3);
    }

    #[test]
    fn double_map_is_rejected() {
        let (mut pt, mut frames) = setup();
        let ppn = frames.alloc().unwrap();
        pt.map(Vpn(5), ppn, PteFlags::rw_user(), &mut frames)
            .unwrap();
        assert_eq!(
            pt.map(Vpn(5), ppn, PteFlags::rw_user(), &mut frames),
            Err(MapError::AlreadyMapped(Vpn(5)))
        );
    }

    #[test]
    fn out_of_range_vpn_is_rejected() {
        let (mut pt, mut frames) = setup();
        let bad = Vpn(MAX_VPN + 1);
        assert_eq!(
            pt.map(bad, Ppn(1), PteFlags::rw_user(), &mut frames),
            Err(MapError::VpnOutOfRange(bad))
        );
        assert_eq!(pt.walk(bad).pte, None);
    }

    #[test]
    fn unmap_removes_exactly_one_page() {
        let (mut pt, mut frames) = setup();
        for v in 0..4u64 {
            let ppn = frames.alloc().unwrap();
            pt.map(Vpn(v), ppn, PteFlags::rw_user(), &mut frames)
                .unwrap();
        }
        assert_eq!(pt.mapped_pages(), 4);
        assert!(pt.unmap(Vpn(2)).is_some());
        assert!(pt.unmap(Vpn(2)).is_none());
        assert_eq!(pt.mapped_pages(), 3);
        assert_eq!(pt.walk(Vpn(2)).pte, None);
        assert!(pt.walk(Vpn(3)).pte.is_some());
    }

    #[test]
    fn protect_updates_flags_in_place() {
        let (mut pt, mut frames) = setup();
        let ppn = frames.alloc().unwrap();
        pt.map(Vpn(9), ppn, PteFlags::rw_user(), &mut frames)
            .unwrap();
        let mut ro = PteFlags::rw_user();
        ro.w = false;
        assert!(pt.protect(Vpn(9), ro));
        assert_eq!(pt.walk(Vpn(9)).pte.unwrap().flags, ro);
        assert!(!pt.protect(Vpn(10), ro), "unmapped page");
    }

    #[test]
    fn megapage_mapping_walks_in_two_levels() {
        let (mut pt, mut frames) = setup();
        let frame = frames.alloc().unwrap();
        pt.map_mega(Vpn(0x200), frame, PteFlags::rw_user(), &mut frames)
            .unwrap();
        // Any base page within the 512-page span resolves via the mega PTE.
        for off in [0u64, 1, 255, 511] {
            let w = pt.walk(Vpn(0x200 + off));
            assert_eq!(w.pte.map(|p| p.size), Some(PageSize::Mega), "off {off}");
            assert_eq!(w.levels_accessed, 2, "mega walks stop a level early");
        }
        assert_eq!(pt.walk(Vpn(0x400)).pte, None, "outside the span");
        assert_eq!(pt.mapped_pages(), 512);
    }

    #[test]
    fn gigapage_mapping_walks_in_one_level() {
        let (mut pt, mut frames) = setup();
        let frame = frames.alloc().unwrap();
        let base = PageSize::Giga.span_pages(); // second gigapage slot
        pt.map_giga(Vpn(base), frame, PteFlags::rw_user()).unwrap();
        // Any base page within the 512²-page span resolves via the giga PTE.
        for off in [0u64, 1, 511, 512, PageSize::Giga.span_pages() - 1] {
            let w = pt.walk(Vpn(base + off));
            assert_eq!(w.pte.map(|p| p.size), Some(PageSize::Giga), "off {off}");
            assert_eq!(w.levels_accessed, 1, "giga walks stop at the root");
        }
        assert_eq!(pt.walk(Vpn(base - 1)).pte, None, "below the span");
        assert_eq!(
            pt.walk(Vpn(base + PageSize::Giga.span_pages())).pte,
            None,
            "above the span"
        );
        assert_eq!(pt.mapped_pages(), PageSize::Giga.span_pages());
        // The oracle's replay image lists the giga leaf once, at its base.
        let listed = pt.mappings();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, Vpn(base));
        assert_eq!(listed[0].1.size, PageSize::Giga);
    }

    #[test]
    fn unaligned_gigapage_is_rejected() {
        let (mut pt, mut frames) = setup();
        let frame = frames.alloc().unwrap();
        assert!(matches!(
            pt.map_giga(Vpn(0x200), frame, PteFlags::rw_user()),
            Err(MapError::VpnOutOfRange(_))
        ));
    }

    #[test]
    fn gigapage_conflicts_with_existing_subtrees() {
        let (mut pt, mut frames) = setup();
        let f1 = frames.alloc().unwrap();
        pt.map(Vpn(5), f1, PteFlags::rw_user(), &mut frames)
            .unwrap();
        let f2 = frames.alloc().unwrap();
        // Vpn(5) lives in the first gigapage span: its subtree occupies
        // the root slot the gigapage would need.
        assert_eq!(
            pt.map_giga(Vpn(0), f2, PteFlags::rw_user()),
            Err(MapError::AlreadyMapped(Vpn(0)))
        );
        // And the reverse: a gigapage blocks base mappings in its span.
        pt.map_giga(Vpn(PageSize::Giga.span_pages()), f2, PteFlags::rw_user())
            .unwrap();
        assert!(pt.walk(Vpn(PageSize::Giga.span_pages() + 77)).pte.is_some());
    }

    #[test]
    fn unaligned_megapage_is_rejected() {
        let (mut pt, mut frames) = setup();
        let frame = frames.alloc().unwrap();
        assert!(matches!(
            pt.map_mega(Vpn(0x201), frame, PteFlags::rw_user(), &mut frames),
            Err(MapError::VpnOutOfRange(_))
        ));
    }

    #[test]
    fn megapage_conflicts_with_existing_base_mappings() {
        let (mut pt, mut frames) = setup();
        let f1 = frames.alloc().unwrap();
        pt.map(Vpn(0x205), f1, PteFlags::rw_user(), &mut frames)
            .unwrap();
        let f2 = frames.alloc().unwrap();
        assert_eq!(
            pt.map_mega(Vpn(0x200), f2, PteFlags::rw_user(), &mut frames),
            Err(MapError::AlreadyMapped(Vpn(0x200)))
        );
    }

    #[test]
    fn out_of_order_mappings_stay_walkable() {
        // Exercises the SlotMap insertion path that is not an append:
        // mapping in descending/shuffled order must still produce a
        // sorted, fully walkable table.
        let (mut pt, mut frames) = setup();
        let vpns = [9u64, 3, 7, 1, 8, 0, 511, 2];
        for &v in &vpns {
            let ppn = frames.alloc().unwrap();
            pt.map(Vpn(v), ppn, PteFlags::rw_user(), &mut frames)
                .unwrap();
        }
        for &v in &vpns {
            assert!(pt.walk(Vpn(v)).pte.is_some(), "vpn {v}");
        }
        assert!(pt.walk(Vpn(4)).pte.is_none());
        let listed: Vec<u64> = pt.mappings().iter().map(|(v, _)| v.0).collect();
        let mut sorted = vpns.to_vec();
        sorted.sort_unstable();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let (mut pt, mut frames) = setup();
        let before = frames.allocated();
        let a = frames.alloc().unwrap();
        pt.map(Vpn(0), a, PteFlags::rw_user(), &mut frames).unwrap();
        let mid = frames.allocated();
        let b = frames.alloc().unwrap();
        pt.map(Vpn(MAX_VPN), b, PteFlags::rw_user(), &mut frames)
            .unwrap();
        let after = frames.allocated();
        // Each distant mapping allocates its own two intermediate nodes.
        assert_eq!(mid - before, 3); // data frame + 2 nodes
        assert_eq!(after - mid, 3);
    }
}
