//! Shared entry-array mechanics used by every TLB design.
//!
//! Every design keeps one or more `sets × ways` arrays of [`TlbEntry`]s
//! (struct-of-arrays storage, see `crate::store`) with per-set true-LRU
//! state (packed rank words, see `crate::lru`); they differ only in how
//! fills choose a victim way (partitioning, random filling) and when
//! they clear. This module centralizes the common lookup, fill, and
//! invalidation machinery.

use std::ops::Range;

use crate::check::{CorruptionKind, IntegrityError, IntegrityKind, SnapshotEntry};
use crate::config::TlbConfig;
use crate::lru::PackedLru;
use crate::store::SoaStore;
use crate::types::{Asid, PageSize, Ppn, TlbEntry, Vpn};

/// The `sets × ways` entry array plus replacement state.
#[derive(Debug)]
pub(crate) struct EntryArray {
    config: TlbConfig,
    /// `sets - 1`: the set-index mask, cached so a probe does not divide
    /// `entries / ways` for every access.
    set_mask: usize,
    /// `sets * ways` entries, row-major by set.
    store: SoaStore,
    lru: PackedLru,
    /// Resident megapage entries; lets [`EntryArray::lookup`] skip the
    /// second (megapage) probe on the hot path when there are none.
    mega_entries: usize,
    /// Resident gigapage entries, gating the third probe the same way.
    giga_entries: usize,
}

clone_in_place!(EntryArray {
    config,
    set_mask,
    store,
    lru,
    mega_entries,
    giga_entries,
});

impl EntryArray {
    pub(crate) fn new(config: TlbConfig) -> EntryArray {
        EntryArray {
            config,
            set_mask: config.sets() - 1,
            store: SoaStore::new(config.sets(), config.ways()),
            lru: PackedLru::new(config.sets(), config.ways()),
            mega_entries: 0,
            giga_entries: 0,
        }
    }

    pub(crate) fn config(&self) -> TlbConfig {
        self.config
    }

    #[inline]
    fn index(&self, set: usize, way: usize) -> usize {
        set * self.config.ways() + way
    }

    pub(crate) fn entry(&self, set: usize, way: usize) -> TlbEntry {
        self.store.get(self.index(set, way))
    }

    /// The set an entry of the given page size indexes into. Large-page
    /// entries index with the set bits *above* their page offset, as
    /// multi-size hardware TLBs do.
    #[inline]
    pub(crate) fn set_of_sized(&self, vpn: Vpn, size: PageSize) -> usize {
        // `TlbConfig::set_of` on the span-shifted VPN.
        (vpn.0 >> size.span_shift()) as usize & self.set_mask
    }

    /// Adjusts the per-class residency counters for a valid entry
    /// arriving (`+1`) or departing (`-1`).
    fn count_entry(&mut self, entry: &TlbEntry, arriving: bool) {
        let counter = match entry.size {
            PageSize::Base => return,
            PageSize::Mega => &mut self.mega_entries,
            PageSize::Giga => &mut self.giga_entries,
        };
        if arriving {
            *counter += 1;
        } else {
            *counter -= 1;
        }
    }

    /// Probes one page-size class for `(asid, vpn)`: the lowest matching
    /// way of the size's set.
    #[inline]
    fn probe_sized(&self, asid: Asid, vpn: Vpn, size: PageSize) -> Option<(usize, usize)> {
        let ways = self.config.ways();
        let set = self.set_of_sized(vpn, size);
        let base = set * ways;
        self.store
            .find(base..base + ways, asid, size.align(vpn), size)
            .map(|w| (set, w))
    }

    /// Finds the way holding `(asid, vpn)`, if resident: a base-page probe
    /// in the page's set, then — only when entries of the class exist at
    /// all — a megapage probe in the superpage's set, then a gigapage
    /// probe.
    #[inline]
    pub(crate) fn lookup(&self, asid: Asid, vpn: Vpn) -> Option<(usize, usize)> {
        if let Some(hit) = self.probe_sized(asid, vpn, PageSize::Base) {
            return Some(hit);
        }
        if self.mega_entries == 0 && self.giga_entries == 0 {
            return None;
        }
        self.probe_large(asid, vpn)
    }

    /// The megapage then gigapage probes of [`EntryArray::lookup`], each
    /// gated on its class having resident entries. Kept out of line so the
    /// base-page hit path stays small.
    #[inline(never)]
    fn probe_large(&self, asid: Asid, vpn: Vpn) -> Option<(usize, usize)> {
        [
            (PageSize::Mega, self.mega_entries),
            (PageSize::Giga, self.giga_entries),
        ]
        .into_iter()
        .filter(|&(_, resident)| resident > 0)
        .find_map(|(size, _)| self.probe_sized(asid, vpn, size))
    }

    /// The hit path every design shares: looks `(asid, vpn)` up and, when
    /// resident, marks its way most recently used and returns the
    /// translation.
    #[inline(always)]
    pub(crate) fn hit(&mut self, asid: Asid, vpn: Vpn) -> Option<(Ppn, PageSize)> {
        let (set, way) = self.lookup(asid, vpn)?;
        self.lru.touch(set, way);
        Some(self.store.hit(self.index(set, way)))
    }

    /// Marks `(set, way)` most recently used.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.lru.touch(set, way);
    }

    /// Read-only view of the replacement state, for the regression tests
    /// pinning "no-fill accesses leave rank state untouched".
    #[cfg(test)]
    pub(crate) fn lru(&self) -> &PackedLru {
        &self.lru
    }

    /// The way a fill into `set` would replace, considering only `ways`:
    /// the lowest invalid way if one exists, otherwise the LRU way of the
    /// range.
    ///
    /// Returns `None` for an empty range.
    pub(crate) fn choose_victim_among(&self, set: usize, ways: Range<usize>) -> Option<usize> {
        let base = self.index(set, 0);
        match self.store.first_invalid(base + ways.start..base + ways.end) {
            Some(offset) => Some(ways.start + offset),
            None => self.lru.lru_among(set, ways),
        }
    }

    /// The way a fill into `set` would replace, over all ways.
    pub(crate) fn choose_victim(&self, set: usize) -> usize {
        self.choose_victim_among(set, 0..self.config.ways())
            .expect("a set always has ways")
    }

    /// Writes `entry` into `(set, way)`, returning the evicted valid entry
    /// if there was one, and marks the way most recently used.
    pub(crate) fn fill_at(&mut self, set: usize, way: usize, entry: TlbEntry) -> Option<TlbEntry> {
        let idx = self.index(set, way);
        let old = self.store.get(idx);
        if old.valid {
            self.count_entry(&old, false);
        }
        if entry.valid {
            self.count_entry(&entry, true);
        }
        self.store.set(idx, entry);
        self.lru.touch(set, way);
        old.valid.then_some(old)
    }

    /// Invalidates `(set, way)`; returns whether it held a valid entry.
    pub(crate) fn invalidate_at(&mut self, set: usize, way: usize) -> bool {
        let idx = self.index(set, way);
        let old = self.store.get(idx);
        if old.valid {
            self.count_entry(&old, false);
        }
        self.store.invalidate(idx);
        self.lru.reset(set, way);
        old.valid
    }

    /// Invalidates every entry.
    pub(crate) fn clear(&mut self) {
        self.store.clear();
        self.lru.reset_all();
        self.mega_entries = 0;
        self.giga_entries = 0;
    }

    /// Invalidates every entry but leaves the replacement ranks as they
    /// are — the flush-on-switch design's clear, which models a hardware
    /// flush that drops translations without resetting LRU metadata.
    pub(crate) fn clear_entries_keep_ranks(&mut self) {
        self.store.clear();
        self.mega_entries = 0;
        self.giga_entries = 0;
    }

    /// Whether the replacement state carries no residue: every rank as
    /// fresh as after construction. The `fence.t` clear-completeness
    /// invariant checks this.
    pub(crate) fn replacement_pristine(&self) -> bool {
        (0..self.config.sets()).all(|set| {
            // In a pristine set every way ranks equal-lowest, so the LRU
            // choice over any suffix is its first element.
            (0..self.config.ways())
                .all(|w| self.lru.lru_among(set, w..self.config.ways()) == Some(w))
        })
    }

    /// Invalidates all entries matching `pred`; returns how many were
    /// removed.
    pub(crate) fn invalidate_matching(&mut self, pred: impl Fn(&TlbEntry) -> bool) -> u64 {
        let mut removed = 0;
        for set in 0..self.config.sets() {
            for way in 0..self.config.ways() {
                let e = self.entry(set, way);
                if e.valid && pred(&e) {
                    self.invalidate_at(set, way);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Iterates over all valid entries (testing/diagnostics).
    pub(crate) fn valid_entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        (0..self.config.entries())
            .map(|i| self.store.get(i))
            .filter(|e| e.valid)
    }

    /// Structural dump of every valid entry, tagged with `level`, in
    /// deterministic set-major order.
    pub(crate) fn snapshot_level(&self, level: usize) -> Vec<SnapshotEntry> {
        let mut out = Vec::new();
        for set in 0..self.config.sets() {
            for way in 0..self.config.ways() {
                let e = self.entry(set, way);
                if e.valid {
                    out.push(SnapshotEntry {
                        level,
                        set,
                        way,
                        entry: e,
                    });
                }
            }
        }
        out
    }

    /// Checks the geometry invariants every design shares: each valid
    /// entry sits in the set its tag indexes, megapage tags are aligned,
    /// and no `(asid, vpn, size)` key is resident twice.
    pub(crate) fn check_geometry(&self) -> Result<(), IntegrityError> {
        let mut seen = std::collections::HashSet::new();
        for set in 0..self.config.sets() {
            for way in 0..self.config.ways() {
                let e = self.entry(set, way);
                if !e.valid {
                    continue;
                }
                if e.vpn != e.size.align(e.vpn) {
                    return Err(IntegrityError {
                        kind: IntegrityKind::Capacity,
                        detail: format!(
                            "{} entry ({}, {}) at set {set} way {way} is not \
                             {}-page aligned",
                            e.size.label(),
                            e.asid,
                            e.vpn,
                            e.size.span_pages()
                        ),
                    });
                }
                let home = self.set_of_sized(e.vpn, e.size);
                if home != set {
                    return Err(IntegrityError {
                        kind: IntegrityKind::Capacity,
                        detail: format!(
                            "entry ({}, {}) resides in set {set} way {way} but its tag \
                             indexes set {home}",
                            e.asid, e.vpn
                        ),
                    });
                }
                if !seen.insert((e.asid, e.vpn, e.size)) {
                    return Err(IntegrityError {
                        kind: IntegrityKind::Capacity,
                        detail: format!(
                            "duplicate entry for ({}, {}) at set {set} way {way}",
                            e.asid, e.vpn
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Deterministically corrupts the `selector`-th eligible valid entry
    /// (modulo the eligible count): flips the lowest bit of the entry's
    /// *sized* tag or of its PPN, or inverts the *Sec* bit. *Sec*
    /// corruption is confined to base-page entries, whose *Sec* bit has
    /// exact reference semantics. Returns the coordinates plus
    /// before/after images, or `None` when no entry is eligible.
    ///
    /// The tag flip is taken above the entry's page-size span
    /// (`vpn ^ (1 << span_shift)`): flipping raw bit 0 of a megapage or
    /// gigapage tag would only break its alignment — the entry could
    /// never match any aligned probe again, so the corruption degenerated
    /// to an invalidation instead of a wrong-translation fault. Flipping
    /// the sized tag's lowest bit moves the entry to a neighboring large
    /// page (and, with more than one set, out of its home set) exactly
    /// like the base-page flip does. For base pages `span_shift` is 0, so
    /// the historical behavior — and every 4 KiB-only golden output — is
    /// unchanged.
    pub(crate) fn corrupt_nth(
        &mut self,
        selector: u64,
        kind: CorruptionKind,
    ) -> Option<(usize, usize, TlbEntry, TlbEntry)> {
        let eligible: Vec<(usize, usize)> = (0..self.config.sets())
            .flat_map(|s| (0..self.config.ways()).map(move |w| (s, w)))
            .filter(|&(s, w)| {
                let e = self.entry(s, w);
                e.valid && (kind != CorruptionKind::Sec || e.size == PageSize::Base)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let (set, way) = eligible[(selector % eligible.len() as u64) as usize];
        let idx = self.index(set, way);
        let before = self.store.get(idx);
        let mut after = before;
        match kind {
            CorruptionKind::Tag => {
                after.vpn = Vpn(before.vpn.0 ^ (1 << before.size.span_shift()));
            }
            CorruptionKind::Ppn => after.ppn.0 ^= 1,
            CorruptionKind::Sec => after.sec = !before.sec,
        }
        self.store.set(idx, after);
        Some((set, way, before, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ppn;

    fn entry(asid: u16, vpn: u64) -> TlbEntry {
        TlbEntry {
            valid: true,
            vpn: Vpn(vpn),
            ppn: Ppn(vpn + 100),
            asid: Asid(asid),
            sec: false,
            size: PageSize::Base,
        }
    }

    #[test]
    fn lookup_finds_filled_entries() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        let e = entry(1, 5);
        let set = a.config().set_of(Vpn(5));
        let way = a.choose_victim(set);
        a.fill_at(set, way, e);
        assert_eq!(a.lookup(Asid(1), Vpn(5)), Some((set, way)));
        assert_eq!(a.lookup(Asid(2), Vpn(5)), None);
    }

    #[test]
    fn fills_prefer_invalid_ways() {
        let mut a = EntryArray::new(TlbConfig::sa(4, 4).unwrap());
        a.fill_at(0, 0, entry(1, 0));
        // Ways 1..3 still invalid; victim must be one of them, not way 0.
        assert_ne!(a.choose_victim(0), 0);
    }

    #[test]
    fn eviction_returns_the_old_entry() {
        let mut a = EntryArray::new(TlbConfig::sa(1, 1).unwrap());
        assert_eq!(a.fill_at(0, 0, entry(1, 0)), None);
        let evicted = a.fill_at(0, 0, entry(1, 4)).expect("way was valid");
        assert_eq!(evicted.vpn, Vpn(0));
    }

    #[test]
    fn invalidate_matching_counts_removals() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        for v in 0..8u64 {
            let set = a.config().set_of(Vpn(v));
            let way = a.choose_victim(set);
            a.fill_at(set, way, entry((v % 2) as u16, v));
        }
        let removed = a.invalidate_matching(|e| e.asid == Asid(0));
        assert_eq!(removed, 4);
        assert_eq!(a.valid_entries().count(), 4);
    }

    #[test]
    fn mega_counter_tracks_fills_and_invalidations() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        let mega = TlbEntry {
            valid: true,
            vpn: Vpn(0x200),
            ppn: Ppn(9),
            asid: Asid(1),
            sec: false,
            size: PageSize::Mega,
        };
        let set = a.set_of_sized(Vpn(0x200), PageSize::Mega);
        a.fill_at(set, 0, mega);
        assert_eq!(a.lookup(Asid(1), Vpn(0x2ff)), Some((set, 0)));
        // Overwriting the mega entry with a base entry must disable the
        // second probe again.
        a.fill_at(set, 0, entry(1, set as u64));
        assert_eq!(a.lookup(Asid(1), Vpn(0x2ff)), None);
        // And invalidation after a fresh mega fill.
        a.fill_at(set, 1, mega);
        assert!(a.lookup(Asid(1), Vpn(0x201)).is_some());
        a.invalidate_at(set, 1);
        assert_eq!(a.lookup(Asid(1), Vpn(0x201)), None);
    }

    fn sized(asid: u16, vpn: u64, size: PageSize) -> TlbEntry {
        TlbEntry {
            valid: true,
            vpn: size.align(Vpn(vpn)),
            ppn: Ppn(vpn % 97 + 7),
            asid: Asid(asid),
            sec: false,
            size,
        }
    }

    #[test]
    fn giga_counter_gates_the_third_probe() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        let giga = sized(1, 0x4_0000, PageSize::Giga);
        let set = a.set_of_sized(Vpn(0x4_0000), PageSize::Giga);
        a.fill_at(set, 0, giga);
        // Any page inside the gigapage hits it.
        assert_eq!(a.lookup(Asid(1), Vpn(0x4_1234)), Some((set, 0)));
        assert_eq!(a.lookup(Asid(2), Vpn(0x4_1234)), None);
        a.invalidate_at(set, 0);
        assert_eq!(a.lookup(Asid(1), Vpn(0x4_1234)), None);
        // Overwriting a giga entry with a base entry re-disables the probe.
        a.fill_at(set, 0, giga);
        a.fill_at(set, 0, entry(1, set as u64));
        assert_eq!(a.lookup(Asid(1), Vpn(0x4_1234)), None);
    }

    #[test]
    fn all_three_classes_coexist() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 4).unwrap());
        for (vpn, size) in [
            (5, PageSize::Base),
            (0x200, PageSize::Mega),
            (0x4_0000, PageSize::Giga),
        ] {
            let set = a.set_of_sized(Vpn(vpn), size);
            let way = a.choose_victim(set);
            a.fill_at(set, way, sized(1, vpn, size));
        }
        assert!(a.lookup(Asid(1), Vpn(5)).is_some());
        assert!(a.lookup(Asid(1), Vpn(0x2aa)).is_some());
        assert!(a.lookup(Asid(1), Vpn(0x4_ffff)).is_some());
        a.check_geometry().unwrap();
    }

    #[test]
    fn entries_only_clear_keeps_replacement_ranks() {
        let mut a = EntryArray::new(TlbConfig::sa(4, 2).unwrap());
        a.fill_at(0, 0, entry(1, 0));
        a.fill_at(0, 1, entry(1, 4));
        a.touch(0, 0); // way 1 is now LRU
        assert!(!a.replacement_pristine());
        a.clear_entries_keep_ranks();
        assert_eq!(a.valid_entries().count(), 0);
        assert_eq!(a.lookup(Asid(1), Vpn(0)), None);
        assert!(
            !a.replacement_pristine(),
            "the entries-only clear must leave rank residue behind"
        );
        // A full clear erases the residue too.
        a.clear();
        assert!(a.replacement_pristine());
    }

    #[test]
    fn sized_tag_corruption_moves_large_tags_not_their_alignment() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        let set = a.set_of_sized(Vpn(0x400), PageSize::Mega);
        a.fill_at(set, 0, sized(1, 0x400, PageSize::Mega));
        let (_, _, before, after) = a.corrupt_nth(0, CorruptionKind::Tag).expect("eligible");
        // Regression: the flip used to hit raw bit 0, leaving a megapage
        // tag misaligned (a silent invalidation). It must move the tag by
        // one whole megapage and keep it aligned.
        assert_eq!(after.vpn, Vpn(before.vpn.0 ^ 0x200));
        assert_eq!(after.vpn, after.size.align(after.vpn));
        // The corrupted entry now sits outside its home set — the
        // geometry check catches exactly that.
        assert!(a.check_geometry().is_err());
    }

    #[test]
    fn base_tag_corruption_still_flips_bit_zero() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        a.fill_at(a.config().set_of(Vpn(6)), 0, entry(1, 6));
        let (_, _, before, after) = a.corrupt_nth(3, CorruptionKind::Tag).expect("eligible");
        assert_eq!(after.vpn, Vpn(before.vpn.0 ^ 1));
    }

    #[test]
    fn corruption_selector_enumerates_mixed_classes() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 2).unwrap());
        let mut filled = 0;
        for (vpn, size) in [
            (3, PageSize::Base),
            (0x600, PageSize::Mega),
            (0x8_0000, PageSize::Giga),
        ] {
            let set = a.set_of_sized(Vpn(vpn), size);
            a.fill_at(set, a.choose_victim(set), sized(2, vpn, size));
            filled += 1;
        }
        assert_eq!(a.valid_entries().count(), filled);
        // Every selector must land on some eligible entry and flip its
        // sized tag, whatever the class mix.
        for selector in 0..6u64 {
            let mut probe = a.clone();
            let (_, _, before, after) = probe
                .corrupt_nth(selector, CorruptionKind::Tag)
                .expect("eligible");
            assert_eq!(after.vpn.0, before.vpn.0 ^ (1 << before.size.span_shift()));
        }
    }

    #[test]
    fn no_duplicate_entries_after_refill() {
        let mut a = EntryArray::new(TlbConfig::sa(8, 4).unwrap());
        for _ in 0..3 {
            if a.lookup(Asid(1), Vpn(2)).is_none() {
                let set = a.config().set_of(Vpn(2));
                let way = a.choose_victim(set);
                a.fill_at(set, way, entry(1, 2));
            }
        }
        let dups = a
            .valid_entries()
            .filter(|e| e.matches(Asid(1), Vpn(2)))
            .count();
        assert_eq!(dups, 1);
    }

    /// A tag corruption can leave two resident entries with one key (in
    /// one set, so both are probed). Which of them a lookup returns is
    /// observable under `--inject-corruption` — the PPN handed back, the
    /// way refreshed — so it must be the lowest way.
    #[test]
    fn the_lowest_way_wins_on_a_duplicated_key() {
        for corrupt in [0, 1] {
            let mut a = EntryArray::new(TlbConfig::fa(4).unwrap());
            // Ways 0 and 1 hold pages 4 and 5; flipping the selected
            // entry's tag bit 0 turns its page into the other one.
            a.fill_at(0, 0, entry(1, 4 + corrupt));
            a.fill_at(0, 1, entry(1, 5 - corrupt));
            let (_, way, before, after) = a.corrupt_nth(corrupt, CorruptionKind::Tag).unwrap();
            assert_eq!(
                (way, before.vpn, after.vpn),
                (corrupt as usize, Vpn(4), Vpn(5))
            );
            assert_eq!(a.valid_entries().filter(|e| e.vpn == Vpn(5)).count(), 2);
            assert_eq!(
                a.lookup(Asid(1), Vpn(5)),
                Some((0, 0)),
                "corrupting way {corrupt}: the lowest way must win"
            );
            let lowest = a.entry(0, 0).ppn;
            assert_eq!(a.hit(Asid(1), Vpn(5)).map(|(ppn, _)| ppn), Some(lowest));
        }
    }
}
