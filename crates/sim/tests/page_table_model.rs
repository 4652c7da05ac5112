//! Lockstep check of the Sv39 page table against a plain `BTreeMap`
//! model of the same radix structure.
//!
//! Seeded sequences of `map`, `map_mega`, `map_giga`, `unmap` and
//! `protect` drive a `PageTable` and the model together. Every update's
//! result must agree, and so must every walk (its PTE and the levels it
//! accessed), `mappings()` and `mapped_pages()`, checked over a fixed set
//! of probe pages every few steps. The sequences mix dense 512-page runs
//! mapped in ascending, descending and shuffled order, sparse pages,
//! unmaps and remaps inside a run, superpages, and pages past the Sv39
//! range, so that a radix node's dense-run lookup and its search fallback
//! both answer, before and after a run gets holes.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sectlb_sim::page_table::{MapError, PageTable, Pte, PteFlags, Walk, LEVEL_BITS, MAX_VPN};
use sectlb_sim::FrameAllocator;
use sectlb_tlb::types::{PageSize, Ppn, Vpn};

/// Two leaf nodes' worth of pages that runs fill densely: the Figure 7
/// co-runner's region and the node after it.
const RUNS: [u64; 2] = [0x10_000, 0x10_200];
/// Sparse pages: the RSA victim's node.
const SPARSE: u64 = 0x400;
/// A megapage slot, and a gigapage slot (root slot 1).
const MEGA: u64 = 3 << LEVEL_BITS;
const GIGA: u64 = 1 << (2 * LEVEL_BITS);

/// The radix slot of `vpn` at `level` (0 is the root).
fn slot(vpn: u64, level: u32) -> u64 {
    (vpn >> (LEVEL_BITS * (2 - level))) & 511
}

/// What the table holds, keyed the way its nodes are. Nodes are created
/// by maps (also by maps that then fail as already mapped) and never
/// removed, and only base pages can be unmapped or protected.
#[derive(Default)]
struct Model {
    /// Root slot → gigapage leaf.
    giga: BTreeMap<u64, Pte>,
    /// (root, middle) slots → megapage leaf.
    mega: BTreeMap<(u64, u64), Pte>,
    /// VPN → base-page leaf.
    base: BTreeMap<u64, Pte>,
    /// Root slots holding a middle node.
    middles: BTreeSet<u64>,
    /// (root, middle) slots holding a leaf node.
    leaf_nodes: BTreeSet<(u64, u64)>,
}

impl Model {
    fn walk(&self, vpn: u64) -> Walk {
        let found = |pte: Option<Pte>, levels_accessed| Walk {
            pte,
            levels_accessed,
        };
        if vpn > MAX_VPN {
            return found(None, 1);
        }
        let (i0, i1) = (slot(vpn, 0), slot(vpn, 1));
        if let Some(&pte) = self.giga.get(&i0) {
            return found(Some(pte), 1);
        }
        if !self.middles.contains(&i0) {
            return found(None, 1);
        }
        if let Some(&pte) = self.mega.get(&(i0, i1)) {
            return found(Some(pte), 2);
        }
        if !self.leaf_nodes.contains(&(i0, i1)) {
            return found(None, 2);
        }
        found(self.base.get(&vpn).copied(), 3)
    }

    fn map(&mut self, vpn: u64, pte: Pte) -> Result<(), MapError> {
        if vpn > MAX_VPN {
            return Err(MapError::VpnOutOfRange(Vpn(vpn)));
        }
        let (i0, i1) = (slot(vpn, 0), slot(vpn, 1));
        self.middles.insert(i0);
        self.leaf_nodes.insert((i0, i1));
        if self.base.contains_key(&vpn) {
            return Err(MapError::AlreadyMapped(Vpn(vpn)));
        }
        self.base.insert(vpn, pte);
        Ok(())
    }

    fn map_mega(&mut self, vpn: u64, pte: Pte) -> Result<(), MapError> {
        if vpn > MAX_VPN || !vpn.is_multiple_of(PageSize::Mega.span_pages()) {
            return Err(MapError::VpnOutOfRange(Vpn(vpn)));
        }
        let (i0, i1) = (slot(vpn, 0), slot(vpn, 1));
        self.middles.insert(i0);
        if self.mega.contains_key(&(i0, i1)) || self.leaf_nodes.contains(&(i0, i1)) {
            return Err(MapError::AlreadyMapped(Vpn(vpn)));
        }
        self.mega.insert((i0, i1), pte);
        Ok(())
    }

    fn map_giga(&mut self, vpn: u64, pte: Pte) -> Result<(), MapError> {
        if vpn > MAX_VPN || !vpn.is_multiple_of(PageSize::Giga.span_pages()) {
            return Err(MapError::VpnOutOfRange(Vpn(vpn)));
        }
        let i0 = slot(vpn, 0);
        if self.giga.contains_key(&i0) || self.middles.contains(&i0) {
            return Err(MapError::AlreadyMapped(Vpn(vpn)));
        }
        self.giga.insert(i0, pte);
        Ok(())
    }

    fn protect(&mut self, vpn: u64, flags: PteFlags) -> bool {
        self.base
            .get_mut(&vpn)
            .map(|pte| pte.flags = flags)
            .is_some()
    }

    fn mapped_pages(&self) -> u64 {
        self.base.len() as u64
            + PageSize::Mega.span_pages() * self.mega.len() as u64
            + PageSize::Giga.span_pages() * self.giga.len() as u64
    }

    /// Every leaf at its aligned VPN in ascending order; at one VPN a
    /// gigapage comes before a megapage before a base page, the order in
    /// which the table visits its levels.
    fn mappings(&self) -> Vec<(Vpn, Pte)> {
        let mut out: Vec<(u64, u8, Pte)> = Vec::new();
        out.extend(self.giga.iter().map(|(&i0, &pte)| (i0 << 18, 0, pte)));
        out.extend(
            self.mega
                .iter()
                .map(|(&(i0, i1), &pte)| (i0 << 18 | i1 << 9, 1, pte)),
        );
        out.extend(self.base.iter().map(|(&vpn, &pte)| (vpn, 2, pte)));
        out.sort_by_key(|&(vpn, level, _)| (vpn, level));
        out.into_iter()
            .map(|(vpn, _, pte)| (Vpn(vpn), pte))
            .collect()
    }
}

/// A page near one of the interesting spots, mostly inside the runs.
fn pick(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..10) {
        0..=4 => RUNS[rng.gen_range(0..2)] + rng.gen_range(0..512),
        5 | 6 => SPARSE + rng.gen_range(0..64),
        7 => MEGA + rng.gen_range(0..512),
        8 => GIGA + rng.gen_range(0..2048),
        _ => MAX_VPN - rng.gen_range(0..4),
    }
}

fn random_flags(rng: &mut SmallRng) -> PteFlags {
    PteFlags {
        r: rng.gen_bool(0.5),
        w: rng.gen_bool(0.5),
        x: rng.gen_bool(0.5),
        user: rng.gen_bool(0.5),
        global: rng.gen_bool(0.5),
    }
}

/// The pages every full check walks: both runs and their neighbours,
/// the sparse node, samples of the super-page spans, and the edge of the
/// Sv39 range.
fn probes() -> Vec<u64> {
    let mut probes: Vec<u64> = RUNS.iter().flat_map(|&r| r - 1..=r + 512).collect();
    probes.extend(SPARSE - 1..SPARSE + 65);
    probes.extend((MEGA..MEGA + 513).step_by(7));
    probes.extend((0..4).map(|k| MEGA + (k << 9)));
    probes.extend((GIGA - 1..GIGA + 2049).step_by(5));
    probes.extend([0, MAX_VPN - 1, MAX_VPN, MAX_VPN + 1, MAX_VPN + 512]);
    probes
}

struct Lockstep {
    table: PageTable,
    frames: FrameAllocator,
    model: Model,
    next_ppn: u64,
    seed: u64,
    step: usize,
}

impl Lockstep {
    fn new(seed: u64) -> Lockstep {
        let mut frames = FrameAllocator::new(1 << 20);
        let table = PageTable::new(&mut frames).expect("a root frame");
        Lockstep {
            table,
            frames,
            model: Model::default(),
            next_ppn: 1 << 30,
            seed,
            step: 0,
        }
    }

    fn pte(&mut self, size: PageSize, flags: PteFlags) -> Pte {
        self.next_ppn += 1;
        Pte {
            ppn: Ppn(self.next_ppn),
            flags,
            size,
        }
    }

    fn map(&mut self, vpn: u64, flags: PteFlags) {
        let pte = self.pte(PageSize::Base, flags);
        let got = self.table.map(Vpn(vpn), pte.ppn, flags, &mut self.frames);
        let want = self.model.map(vpn, pte);
        assert_eq!(got, want, "map({vpn:#x}) at {}", self.at());
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn check_walk(&self, vpn: u64) {
        assert_eq!(
            self.table.walk(Vpn(vpn)),
            self.model.walk(vpn),
            "walk({vpn:#x}) at {}",
            self.at()
        );
    }

    fn check_all(&self, probes: &[u64]) {
        for &vpn in probes {
            self.check_walk(vpn);
        }
        assert_eq!(
            self.table.mapped_pages(),
            self.model.mapped_pages(),
            "mapped_pages at {}",
            self.at()
        );
        assert_eq!(
            self.table.mappings(),
            self.model.mappings(),
            "mappings at {}",
            self.at()
        );
    }

    /// Maps a whole 512-page run in ascending, descending or shuffled
    /// order (pages already mapped report so on both sides).
    fn fill_run(&mut self, rng: &mut SmallRng) {
        let run = RUNS[rng.gen_range(0..2)];
        let mut order: Vec<u64> = (0..512).collect();
        match rng.gen_range(0..3) {
            0 => {}
            1 => order.reverse(),
            _ => {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
            }
        }
        for offset in order {
            self.map(run + offset, PteFlags::rw_user());
        }
    }

    fn step(&mut self, rng: &mut SmallRng) {
        self.step += 1;
        match rng.gen_range(0..40) {
            0 => self.fill_run(rng),
            1..=11 => {
                let vpn = if rng.gen_range(0..30) == 0 {
                    MAX_VPN + 1 + rng.gen_range(0..600)
                } else {
                    pick(rng)
                };
                self.map(vpn, PteFlags::rw_user());
            }
            12..=21 => {
                let vpn = pick(rng);
                let got = self.table.unmap(Vpn(vpn));
                let want = self.model.base.remove(&vpn);
                assert_eq!(got, want, "unmap({vpn:#x}) at {}", self.at());
            }
            22..=25 => {
                let (vpn, flags) = (pick(rng), random_flags(rng));
                let got = self.table.protect(Vpn(vpn), flags);
                let want = self.model.protect(vpn, flags);
                assert_eq!(got, want, "protect({vpn:#x}) at {}", self.at());
            }
            26 | 27 => {
                // Aligned slots (free, holding a leaf node, or past the
                // range) and, now and then, an unaligned page.
                let vpn = match rng.gen_range(0..5) {
                    0 => MEGA + 1,
                    1 => RUNS[0],
                    2 => (MAX_VPN + 1) & !511,
                    _ => MEGA + (rng.gen_range(0..3) << 9),
                };
                let pte = self.pte(PageSize::Mega, PteFlags::rw_user());
                let got = self
                    .table
                    .map_mega(Vpn(vpn), pte.ppn, pte.flags, &mut self.frames);
                let want = self.model.map_mega(vpn, pte);
                assert_eq!(got, want, "map_mega({vpn:#x}) at {}", self.at());
            }
            28 => {
                let vpn = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => GIGA + 512,
                    _ => GIGA * rng.gen_range(1..3),
                };
                let pte = self.pte(PageSize::Giga, PteFlags::rw_user());
                let got = self.table.map_giga(Vpn(vpn), pte.ppn, pte.flags);
                let want = self.model.map_giga(vpn, pte);
                assert_eq!(got, want, "map_giga({vpn:#x}) at {}", self.at());
            }
            _ => {
                let vpn = if rng.gen_range(0..20) == 0 {
                    MAX_VPN + rng.gen_range(1..600)
                } else {
                    pick(rng)
                };
                self.check_walk(vpn);
            }
        }
    }
}

#[test]
fn page_table_matches_a_btreemap_model() {
    let probes = probes();
    for seed in 0..8 {
        let mut rng = SmallRng::seed_from_u64(0x5107 + seed);
        let mut lockstep = Lockstep::new(seed);
        // Start from a full run, so that lookups inside a dense node run
        // from the first step.
        lockstep.fill_run(&mut rng);
        lockstep.check_all(&probes);
        for _ in 0..1500 {
            lockstep.step(&mut rng);
            if lockstep.step.is_multiple_of(25) {
                lockstep.check_all(&probes);
            }
        }
        lockstep.check_all(&probes);
    }
}

#[test]
fn a_hole_in_a_dense_run_is_not_found_and_its_neighbours_are() {
    let mut lockstep = Lockstep::new(0);
    let run = RUNS[0];
    for offset in 0..512 {
        lockstep.map(run + offset, PteFlags::rw_user());
    }
    for hole in [0, 1, 255, 510, 511] {
        let removed = lockstep.table.unmap(Vpn(run + hole));
        assert_eq!(removed, lockstep.model.base.remove(&(run + hole)));
        assert!(removed.is_some());
    }
    lockstep.check_all(&probes());
    // Refilling the holes, out of order, restores the dense run.
    for hole in [511, 1, 510, 0, 255] {
        lockstep.map(run + hole, PteFlags::rw_user());
    }
    lockstep.check_all(&probes());
}
