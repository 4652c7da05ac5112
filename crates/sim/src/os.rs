//! A tiny operating-system model.
//!
//! The paper's performance evaluation runs Linux; its security evaluation
//! relies on the OS for exactly four things, which this model provides:
//!
//! 1. assigning distinct ASIDs to processes;
//! 2. mapping memory regions (creating page-table entries);
//! 3. a context-switch TLB policy — today's Linux relies on ASIDs and does
//!    not flush, while Sanctum/SGX-style systems flush the whole TLB on
//!    every switch (Section 2.3);
//! 4. programming the secure-region registers of the RF TLB for a victim
//!    process, pre-generating page-table entries for every address the
//!    Random Fill Engine might look up (footnote 5 of the paper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sectlb_tlb::types::{Asid, SecureRegion, Vpn};

use crate::page_table::{MapError, PageTable, PteFlags};
use crate::phys_mem::FrameAllocator;
use crate::walker::WalkMemo;

/// What the OS does to the TLB on a context switch (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Rely on ASID tags; never flush (today's Linux).
    #[default]
    None,
    /// Flush the whole TLB on every switch (the Sanctum security monitor /
    /// Intel SGX behavior).
    FlushOnSwitch,
}

/// A process: an address space identified by an ASID.
#[derive(Debug, Clone)]
pub struct Process {
    asid: Asid,
    page_table: PageTable,
}

impl Process {
    /// The process's ASID.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The process's page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The process's page table, mutably.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

/// OS-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The referenced ASID does not name a live process.
    NoSuchProcess(Asid),
    /// A page-table update failed.
    Map(MapError),
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::NoSuchProcess(a) => write!(f, "no process with {a}"),
            OsError::Map(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for OsError {}

impl From<MapError> for OsError {
    fn from(e: MapError) -> OsError {
        OsError::Map(e)
    }
}

/// The OS model: a process table, a frame allocator, and policy knobs.
///
/// ASIDs are handed out densely from 1 and never freed, so the process
/// table is a slice indexed by `asid - 1`: a walk finds its address
/// space with one bounds check.
///
/// The table is copy-on-write: a clone shares its source's page tables
/// until either side writes one, and every writer goes through
/// [`Arc::make_mut`], which copies the table first if it is shared. A
/// campaign trial restored from a template therefore copies no page
/// table unless it auto-maps a page.
///
/// **Page-walk memo.** The walker remembers each walk's result (PPN,
/// page size, levels accessed, or a fault) in a small direct-mapped
/// table keyed by `(ASID, VPN)`, so a miss on a page walked before skips
/// the radix walk but is still charged every level it accesses. A memo
/// entry holds for one *version* of the page tables: every writer moves
/// the OS to a fresh, process-unique version id, and an entry of another
/// version never matches. Equal versions therefore mean equal tables:
/// a clone and a restore copy the version together with the tables they
/// share. A clone starts with an empty memo; `clone_from` keeps this
/// OS's memo buffer, so a restored machine allocates nothing, and its
/// entries of the restored version stay valid. The memo is a cache of
/// the tables, so `Debug` leaves it out.
pub struct Os {
    processes: Arc<[Process]>,
    frames: FrameAllocator,
    next_asid: u16,
    flush_policy: FlushPolicy,
    /// When set, the walker transparently creates a mapping for any
    /// unmapped page it is asked to translate — modeling the paper's
    /// assumption that the OS has pre-generated PTEs for every address the
    /// hardware may look up (footnote 5). Enabled by default.
    pub auto_map: bool,
    /// The page tables' version id (see the memo, above).
    pub(crate) version: u64,
    pub(crate) memo: WalkMemo,
}

/// A page-table version id no `Os` has used yet.
pub(crate) fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: an id only has to differ from every other; it publishes
    // no data.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for Os {
    fn clone(&self) -> Os {
        Os {
            processes: Arc::clone(&self.processes),
            frames: self.frames.clone(),
            next_asid: self.next_asid,
            flush_policy: self.flush_policy,
            auto_map: self.auto_map,
            version: self.version,
            memo: WalkMemo::default(),
        }
    }

    /// Takes the source's tables and version, and keeps this OS's memo
    /// buffer.
    fn clone_from(&mut self, source: &Os) {
        self.processes.clone_from(&source.processes);
        self.frames.clone_from(&source.frames);
        self.next_asid = source.next_asid;
        self.flush_policy = source.flush_policy;
        self.auto_map = source.auto_map;
        self.version = source.version;
    }
}

/// Every field but the version and the memo, which only cache the page
/// tables: two OSes that print alike translate alike.
impl std::fmt::Debug for Os {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Os")
            .field("processes", &self.processes)
            .field("frames", &self.frames)
            .field("next_asid", &self.next_asid)
            .field("flush_policy", &self.flush_policy)
            .field("auto_map", &self.auto_map)
            .finish()
    }
}

impl Os {
    /// A fresh OS with the given flush policy.
    pub fn new(flush_policy: FlushPolicy) -> Os {
        Os {
            processes: Arc::new([]),
            frames: FrameAllocator::default(),
            next_asid: 1,
            flush_policy,
            auto_map: true,
            version: fresh_version(),
            memo: WalkMemo::default(),
        }
    }

    /// The configured context-switch policy.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.flush_policy
    }

    /// Creates a process with a fresh ASID and empty address space. The
    /// process table grows by being rebuilt, which copies the page tables
    /// mapped so far; a machine that creates its processes before mapping
    /// copies none.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted while allocating the root
    /// page-table frame, or if the 16-bit ASID space overflows.
    pub fn create_process(&mut self) -> Asid {
        let asid = Asid(self.next_asid);
        self.next_asid = self.next_asid.checked_add(1).expect("ASID space exhausted");
        let page_table =
            PageTable::new(&mut self.frames).expect("physical memory exhausted at boot");
        let mut processes = self.processes.to_vec();
        processes.push(Process { asid, page_table });
        self.processes = processes.into();
        self.version = fresh_version();
        asid
    }

    /// The process for `asid`.
    ///
    /// # Errors
    ///
    /// Fails when no such process exists.
    pub fn process(&self, asid: Asid) -> Result<&Process, OsError> {
        let i = self.slot(asid)?;
        Ok(&self.processes[i])
    }

    /// The process for `asid`, mutably.
    ///
    /// # Errors
    ///
    /// Fails when no such process exists.
    pub fn process_mut(&mut self, asid: Asid) -> Result<&mut Process, OsError> {
        Ok(self.writable(asid)?.0)
    }

    /// The process for `asid`, unshared for writing, and the frame
    /// allocator its mappings draw on. Every page-table writer comes
    /// through here, and moves the tables to a fresh version.
    fn writable(&mut self, asid: Asid) -> Result<(&mut Process, &mut FrameAllocator), OsError> {
        let i = self.slot(asid)?;
        self.version = fresh_version();
        Ok((&mut Arc::make_mut(&mut self.processes)[i], &mut self.frames))
    }

    /// The process table index of `asid`.
    fn slot(&self, asid: Asid) -> Result<usize, OsError> {
        slot_in(self.processes.len(), asid).ok_or(OsError::NoSuchProcess(asid))
    }

    /// Maps `pages` fresh frames at `base` in `asid`'s address space.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or mapping fails.
    pub fn map_region(&mut self, asid: Asid, base: Vpn, pages: u64) -> Result<(), OsError> {
        self.map_pages(asid, (0..pages).map(|i| base.offset(i)))
    }

    /// Maps one fresh frame at `vpn`; mapping an already-mapped page is a
    /// no-op (idempotent, as the pre-generation of footnote 5 requires).
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or frames run out.
    pub fn map_page(&mut self, asid: Asid, vpn: Vpn) -> Result<(), OsError> {
        self.map_pages(asid, [vpn])
    }

    /// [`Os::map_page`] for each of `vpns`, unsharing the table once.
    fn map_pages(
        &mut self,
        asid: Asid,
        vpns: impl IntoIterator<Item = Vpn>,
    ) -> Result<(), OsError> {
        let (process, frames) = self.writable(asid)?;
        for vpn in vpns {
            if process.page_table.walk(vpn).pte.is_some() {
                continue;
            }
            let frame = frames.alloc().map_err(MapError::from)?;
            process
                .page_table
                .map(vpn, frame, PteFlags::rw_user(), frames)?;
        }
        Ok(())
    }

    /// Maps a 2 MiB megapage at `base` (512-page aligned) in `asid`'s
    /// address space — the "large pages for the crypto library" software
    /// defense of Section 2.3.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or mapping fails.
    pub fn map_mega_page(&mut self, asid: Asid, base: Vpn) -> Result<(), OsError> {
        let (process, frames) = self.writable(asid)?;
        let frame = frames.alloc().map_err(MapError::from)?;
        process
            .page_table
            .map_mega(base, frame, PteFlags::rw_user(), frames)?;
        Ok(())
    }

    /// Maps a 1 GiB gigapage at `base` (512²-page aligned) in `asid`'s
    /// address space — the largest translation granularity the Sv39-style
    /// walker supports, exercised by the multi-page-size TLB designs.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or mapping fails.
    pub fn map_giga_page(&mut self, asid: Asid, base: Vpn) -> Result<(), OsError> {
        let (process, frames) = self.writable(asid)?;
        let frame = frames.alloc().map_err(MapError::from)?;
        process
            .page_table
            .map_giga(base, frame, PteFlags::rw_user())?;
        Ok(())
    }

    /// Unmaps one page (e.g. to force later faults in tests).
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist.
    pub fn unmap_page(&mut self, asid: Asid, vpn: Vpn) -> Result<bool, OsError> {
        Ok(self.writable(asid)?.0.page_table.unmap(vpn).is_some())
    }

    /// Registers `region` as the secure region of victim `asid` on behalf
    /// of the RF TLB: ensures every page of the region has a PTE, so RFE
    /// lookups never fault (footnote 5).
    ///
    /// The *machine* additionally programs the TLB's registers; the OS
    /// only prepares the page tables.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or mapping fails.
    pub fn prepare_secure_region(
        &mut self,
        asid: Asid,
        region: SecureRegion,
    ) -> Result<(), OsError> {
        self.map_pages(asid, region.iter())
    }

    /// ASIDs of all live processes, in ascending order.
    pub fn asids(&self) -> impl Iterator<Item = Asid> + '_ {
        self.processes.iter().map(Process::asid)
    }

    /// The frame allocator (diagnostics).
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// The shared process table, for the walker (internal).
    pub(crate) fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// Footnote 5's auto-map, for the walker (internal): maps a fresh
    /// frame at `vpn` in the process at table index `i`, unsharing the
    /// table first, and moves the tables to a fresh version. Returns
    /// whether it mapped.
    pub(crate) fn auto_map_page(&mut self, i: usize, vpn: Vpn) -> bool {
        let Ok(frame) = self.frames.alloc() else {
            return false;
        };
        let process = &mut Arc::make_mut(&mut self.processes)[i];
        let mapped = process
            .page_table
            .map(vpn, frame, PteFlags::rw_user(), &mut self.frames)
            .is_ok();
        if mapped {
            self.version = fresh_version();
        }
        mapped
    }

    /// Pages mapped over every process, superpages counted by their
    /// span: what the walk memo is sized from.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.processes
            .iter()
            .map(|p| p.page_table.mapped_pages())
            .sum()
    }
}

/// The index of `asid` in a process table of `len` processes: ASIDs
/// count from 1, so `Asid(0)` has none.
#[inline]
pub(crate) fn slot_in(len: usize, asid: Asid) -> Option<usize> {
    usize::from(asid.0).checked_sub(1).filter(|&i| i < len)
}

impl Default for Os {
    fn default() -> Os {
        Os::new(FlushPolicy::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::{OsWalker, WalkerConfig};
    use sectlb_tlb::tlb_trait::Translator;

    #[test]
    fn processes_get_distinct_asids() {
        let mut os = Os::default();
        let a = os.create_process();
        let b = os.create_process();
        assert_ne!(a, b);
        assert!(os.process(a).is_ok());
        assert!(os.process(Asid(999)).is_err());
    }

    #[test]
    fn map_region_creates_walkable_ptes() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_region(p, Vpn(0x10), 4).unwrap();
        let pt = os.process(p).unwrap().page_table();
        for i in 0..4 {
            assert!(pt.walk(Vpn(0x10 + i)).pte.is_some());
        }
        assert!(pt.walk(Vpn(0x14)).pte.is_none());
    }

    #[test]
    fn map_page_is_idempotent() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_page(p, Vpn(7)).unwrap();
        let frames_before = os.frames().allocated();
        os.map_page(p, Vpn(7)).unwrap();
        assert_eq!(os.frames().allocated(), frames_before);
    }

    #[test]
    fn address_spaces_are_isolated() {
        let mut os = Os::default();
        let a = os.create_process();
        let b = os.create_process();
        os.map_page(a, Vpn(7)).unwrap();
        os.map_page(b, Vpn(7)).unwrap();
        let pa = os
            .process(a)
            .unwrap()
            .page_table()
            .walk(Vpn(7))
            .pte
            .unwrap();
        let pb = os
            .process(b)
            .unwrap()
            .page_table()
            .walk(Vpn(7))
            .pte
            .unwrap();
        assert_ne!(pa.ppn, pb.ppn, "same VPN maps to different frames");
    }

    #[test]
    fn secure_region_preparation_maps_every_page() {
        let mut os = Os::default();
        let v = os.create_process();
        os.prepare_secure_region(v, SecureRegion::new(Vpn(0x100), 31))
            .unwrap();
        let pt = os.process(v).unwrap().page_table();
        assert_eq!(pt.mapped_pages(), 31);
    }

    #[test]
    fn asid_zero_and_asids_past_the_last_name_no_process() {
        let mut os = Os::default();
        let a = os.create_process();
        let b = os.create_process();
        assert_eq!((a, b), (Asid(1), Asid(2)), "ASIDs count from 1");
        for missing in [Asid(0), Asid(3), Asid(u16::MAX)] {
            assert_eq!(
                os.process(missing).err(),
                Some(OsError::NoSuchProcess(missing))
            );
            assert_eq!(
                os.process_mut(missing).err(),
                Some(OsError::NoSuchProcess(missing))
            );
            assert_eq!(
                os.map_page(missing, Vpn(7)),
                Err(OsError::NoSuchProcess(missing))
            );
            assert_eq!(
                os.unmap_page(missing, Vpn(7)),
                Err(OsError::NoSuchProcess(missing))
            );
        }
        assert_eq!(os.process(b).unwrap().asid(), b);
    }

    #[test]
    fn asids_stay_ascending() {
        let mut os = Os::default();
        let created: Vec<Asid> = (0..5).map(|_| os.create_process()).collect();
        let listed: Vec<Asid> = os.asids().collect();
        assert_eq!(listed, created);
        assert!(listed.windows(2).all(|w| w[0] < w[1]), "{listed:?}");
        for asid in listed {
            assert_eq!(os.process(asid).unwrap().asid(), asid);
        }
    }

    #[test]
    fn a_clone_shares_page_tables_until_one_side_writes() {
        let mapped = |os: &Os, asid, vpn| {
            os.process(asid)
                .unwrap()
                .page_table()
                .walk(vpn)
                .pte
                .is_some()
        };
        let shared = |a: &Os, b: &Os| Arc::ptr_eq(&a.processes, &b.processes);
        let mut os = Os::default();
        let a = os.create_process();
        let b = os.create_process();
        os.map_region(a, Vpn(0x10), 4).unwrap();
        let mut copy = os.clone();
        assert!(shared(&os, &copy));
        // Reads and a refused write leave the table shared.
        assert!(mapped(&copy, a, Vpn(0x10)));
        assert!(copy.map_page(Asid(9), Vpn(0x10)).is_err());
        assert!(shared(&os, &copy));
        copy.map_page(b, Vpn(0x20)).unwrap();
        assert!(!shared(&os, &copy));
        assert!(!mapped(&os, b, Vpn(0x20)));
        assert!(mapped(&copy, b, Vpn(0x20)));
        // Restoring shares the source's table again.
        copy.clone_from(&os);
        assert!(shared(&os, &copy));
        assert!(!mapped(&copy, b, Vpn(0x20)));
        // A walk that finds its page leaves the table shared; one that
        // auto-maps a page unshares it first.
        let walk = |os: &mut Os, vpn| OsWalker::new(os, WalkerConfig::default()).translate(a, vpn);
        assert!(walk(&mut copy, Vpn(0x10)).ppn.is_some());
        assert!(shared(&os, &copy));
        assert!(walk(&mut copy, Vpn(0x30)).ppn.is_some());
        assert!(!shared(&os, &copy));
        assert!(!mapped(&os, a, Vpn(0x30)));
    }

    #[test]
    fn unmap_reports_presence() {
        let mut os = Os::default();
        let p = os.create_process();
        os.map_page(p, Vpn(3)).unwrap();
        assert_eq!(os.unmap_page(p, Vpn(3)), Ok(true));
        assert_eq!(os.unmap_page(p, Vpn(3)), Ok(false));
    }
}
