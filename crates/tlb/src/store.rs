//! Struct-of-arrays entry storage for a TLB's `sets x ways` array.
//!
//! [`SoaStore`] keeps three lanes: VPNs, PPNs, and one packed tag word
//! per entry holding the valid bit, page size, ASID, and *Sec* bit. A
//! way probe compares the VPN and then the tag word (with *Sec* masked
//! off), two contiguous lanes, instead of dragging whole [`TlbEntry`]
//! structs through the cache. Sets wider than [`WIDE_WAYS`] ways also
//! keep a [`WayIndex`], which finds a key's ways without scanning the
//! set: the paper's fully associative TLBs are CAMs, and a scan of 128
//! ways is what the host paid to emulate one.

use std::ops::Range;

use crate::types::{Asid, PageSize, Ppn, TlbEntry, Vpn};

/// The widest set that is probed by a scan. An index updated on every
/// fill made miss-heavy FA 32 co-runs slower than the scan it replaced,
/// so only the sets above this (the paper's FA 128, and both halves SP
/// splits it into) are indexed.
pub(crate) const WIDE_WAYS: usize = 32;

/// Struct-of-arrays storage: VPN and PPN lanes plus one packed tag word
/// per entry.
///
/// Indices are flat (`set * ways + way`). The store is value-faithful:
/// `get` after `set` returns the exact entry written (an invalid entry's
/// fields included), and [`SoaStore::find`] equals the field-by-field
/// comparison documented on it — entry residency is observable behavior
/// (it is what the paper's attacks measure). The tests below hold it to
/// a plain `Vec<TlbEntry>` scan.
///
/// A tag word holds the ASID in bits 0..16, the valid bit at 16, the
/// page-size code (0 base, 1 mega, 2 giga) in bits 17..19 and the *Sec*
/// bit at 19. With *Sec* masked off, two words are equal exactly when
/// the entries' valid bits, sizes and ASIDs are, so a way probe is the
/// VPN compare plus one word compare. The VPN goes first: the resident
/// entries of one address space all pass the tag compare, so it would
/// filter almost nothing, while the VPN compare rejects all but the one
/// way that can match.
#[derive(Debug)]
pub(crate) struct SoaStore {
    vpns: Vec<u64>,
    ppns: Vec<u64>,
    tags: Vec<u32>,
    /// Present when sets are wider than [`WIDE_WAYS`]; kept by the
    /// writers (`set`, `invalidate` and `clear`) alone.
    index: Option<WayIndex>,
}

clone_in_place!(SoaStore {
    vpns,
    ppns,
    tags,
    index
});

impl SoaStore {
    const VALID: u32 = 1 << 16;
    const SIZE_SHIFT: u32 = 17;
    const SEC: u32 = 1 << 19;

    /// Packs an entry's tag word.
    #[inline]
    fn tag(valid: bool, size: PageSize, asid: Asid, sec: bool) -> u32 {
        let size = match size {
            PageSize::Base => 0,
            PageSize::Mega => 1,
            PageSize::Giga => 2,
        };
        let valid = if valid { Self::VALID } else { 0 };
        let sec = if sec { Self::SEC } else { 0 };
        u32::from(asid.0) | valid | size << Self::SIZE_SHIFT | sec
    }

    /// The page size a tag word encodes.
    #[inline]
    fn size_of(tag: u32) -> PageSize {
        match (tag >> Self::SIZE_SHIFT) & 3 {
            0 => PageSize::Base,
            1 => PageSize::Mega,
            _ => PageSize::Giga,
        }
    }

    /// Storage for `sets` sets of `ways` entries, all invalid.
    pub(crate) fn new(sets: usize, ways: usize) -> SoaStore {
        let capacity = sets * ways;
        SoaStore {
            vpns: vec![0; capacity],
            ppns: vec![0; capacity],
            tags: vec![0; capacity],
            index: (ways > WIDE_WAYS).then(|| WayIndex::new(sets, ways)),
        }
    }

    /// Whether the store keeps a [`WayIndex`].
    #[cfg(test)]
    pub(crate) fn indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The entry at `idx`, by value.
    pub(crate) fn get(&self, idx: usize) -> TlbEntry {
        let tag = self.tags[idx];
        TlbEntry {
            valid: tag & Self::VALID != 0,
            vpn: Vpn(self.vpns[idx]),
            ppn: Ppn(self.ppns[idx]),
            asid: Asid(tag as u16),
            sec: tag & Self::SEC != 0,
            size: Self::size_of(tag),
        }
    }

    /// Overwrites the entry at `idx`.
    pub(crate) fn set(&mut self, idx: usize, entry: TlbEntry) {
        let tag = Self::tag(entry.valid, entry.size, entry.asid, entry.sec);
        if let Some(index) = &mut self.index {
            let old = self.tags[idx];
            if old & Self::VALID != 0 {
                index.remove(idx, self.vpns[idx], old & !Self::SEC);
            }
            if entry.valid {
                index.insert(idx, entry.vpn.0, tag & !Self::SEC);
            }
        }
        self.vpns[idx] = entry.vpn.0;
        self.ppns[idx] = entry.ppn.0;
        self.tags[idx] = tag;
    }

    /// Marks the entry at `idx` invalid.
    pub(crate) fn invalidate(&mut self, idx: usize) {
        self.set(idx, TlbEntry::invalid());
    }

    /// Invalidates every entry.
    pub(crate) fn clear(&mut self) {
        // Zero is the invalid entry's image in every lane.
        self.vpns.fill(0);
        self.ppns.fill(0);
        self.tags.fill(0);
        if let Some(index) = &mut self.index {
            index.clear();
        }
    }

    /// The hot-path probe over one set's slots: the offset within `slots`
    /// of the lowest entry that is valid, has page size `size`, and
    /// matches `(asid, aligned)`, where `aligned` is the requested VPN
    /// already aligned to `size`. Each slot is equivalent to
    /// `e.size == size && e.matches(asid, vpn)` on the stored entry.
    #[inline]
    pub(crate) fn find(
        &self,
        slots: Range<usize>,
        asid: Asid,
        aligned: Vpn,
        size: PageSize,
    ) -> Option<usize> {
        let key = Self::tag(true, size, asid, false);
        if let Some(index) = &self.index {
            return self.find_indexed(index, slots, aligned.0, key);
        }
        let vpns = &self.vpns[slots.clone()];
        let tags = &self.tags[slots];
        vpns.iter()
            .zip(tags)
            .position(|(&v, &t)| v == aligned.0 && t & !Self::SEC == key)
    }

    /// [`SoaStore::find`] on a wide set: the candidates are the ways
    /// whose key shares the probe's bucket, lowest first, each checked
    /// as a scan would check it.
    #[inline(never)]
    fn find_indexed(
        &self,
        index: &WayIndex,
        slots: Range<usize>,
        vpn: u64,
        key: u32,
    ) -> Option<usize> {
        let (set, ways) = index.ways_of(&slots);
        let base = set * index.ways;
        let at = index.bucket_at(set, vpn, key);
        for (w, &word) in index.buckets[at..at + index.words].iter().enumerate() {
            let mut candidates = word & span_bits(w, &ways);
            while candidates != 0 {
                let way = w * 64 + candidates.trailing_zeros() as usize;
                let i = base + way;
                if self.vpns[i] == vpn && self.tags[i] & !Self::SEC == key {
                    return Some(way - ways.start);
                }
                candidates &= candidates - 1;
            }
        }
        None
    }

    /// The translation a hit on `idx` returns: its PPN and page size.
    #[inline]
    pub(crate) fn hit(&self, idx: usize) -> (Ppn, PageSize) {
        (Ppn(self.ppns[idx]), Self::size_of(self.tags[idx]))
    }

    /// The offset within `slots` of the lowest invalid entry, if any.
    #[inline]
    pub(crate) fn first_invalid(&self, slots: Range<usize>) -> Option<usize> {
        if let Some(index) = &self.index {
            return index.first_invalid(&slots);
        }
        self.tags[slots].iter().position(|&t| t & Self::VALID == 0)
    }
}

/// The bits of 64-way word `w` that fall in `ways`.
#[inline]
fn span_bits(w: usize, ways: &Range<usize>) -> u64 {
    let lo = ways.start.saturating_sub(w * 64).min(64);
    let hi = ways.end.saturating_sub(w * 64).min(64);
    if lo >= hi {
        0
    } else {
        (u64::MAX >> (64 - (hi - lo))) << lo
    }
}

/// An exact way index for sets wider than [`WIDE_WAYS`]: per set, a
/// hash table of way bitmaps and a bitmap of the valid ways.
///
/// Each valid way sets its bit in the one bucket its key `(VPN, tag word
/// without Sec)` hashes to, so a probe visits only the ways sharing its
/// bucket, in ascending order, and checks each against the stored entry:
/// it returns the lowest matching way of any range, duplicated keys
/// included, exactly as the scan does. A way's bit is in the bucket of
/// its current key alone, so a write clears the old key's bit and sets
/// the new one's; there is nothing to rebalance or delete. Buckets
/// number at least four per way, so a probe meets a stranger's way about
/// once in four.
#[derive(Debug)]
struct WayIndex {
    sets: usize,
    ways: usize,
    /// 64-way words per bitmap.
    words: usize,
    /// `log2` of the buckets per set.
    bucket_bits: u32,
    /// `sets × buckets × words` bucket bitmaps.
    buckets: Vec<u64>,
    /// `sets × words` valid-way bitmaps.
    valid: Vec<u64>,
}

clone_in_place!(WayIndex {
    sets,
    ways,
    words,
    bucket_bits,
    buckets,
    valid
});

impl WayIndex {
    fn new(sets: usize, ways: usize) -> WayIndex {
        let words = ways.div_ceil(64);
        let bucket_bits = (4 * ways).next_power_of_two().trailing_zeros();
        WayIndex {
            sets,
            ways,
            words,
            bucket_bits,
            buckets: vec![0; (sets << bucket_bits) * words],
            valid: vec![0; sets * words],
        }
    }

    /// The set holding flat entry `idx`. A fully associative store, the
    /// common wide one, has no set to divide out.
    #[inline]
    fn set_of(&self, idx: usize) -> usize {
        if self.sets == 1 {
            0
        } else {
            idx / self.ways
        }
    }

    /// The set of a range of flat slots, and the range's ways within it.
    #[inline]
    fn ways_of(&self, slots: &Range<usize>) -> (usize, Range<usize>) {
        let set = self.set_of(slots.start);
        let base = set * self.ways;
        (set, slots.start - base..slots.end - base)
    }

    /// The offset in `buckets` of the bitmap `(vpn, key)` hashes to in
    /// `set`.
    #[inline]
    fn bucket_at(&self, set: usize, vpn: u64, key: u32) -> usize {
        let hash = (vpn ^ u64::from(key) << 40).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bucket = (hash >> (64 - self.bucket_bits)) as usize;
        ((set << self.bucket_bits) + bucket) * self.words
    }

    /// The bucket word and bit of flat entry `idx` keyed `(vpn, key)`,
    /// and its valid-bitmap word.
    fn bit_of(&self, idx: usize, vpn: u64, key: u32) -> (usize, usize, u64) {
        let set = self.set_of(idx);
        let way = idx - set * self.ways;
        let word = way / 64;
        let bucket = self.bucket_at(set, vpn, key) + word;
        (bucket, set * self.words + word, 1 << (way % 64))
    }

    fn insert(&mut self, idx: usize, vpn: u64, key: u32) {
        let (bucket, valid, bit) = self.bit_of(idx, vpn, key);
        self.buckets[bucket] |= bit;
        self.valid[valid] |= bit;
    }

    fn remove(&mut self, idx: usize, vpn: u64, key: u32) {
        let (bucket, valid, bit) = self.bit_of(idx, vpn, key);
        self.buckets[bucket] &= !bit;
        self.valid[valid] &= !bit;
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
        self.valid.fill(0);
    }

    /// The offset within `slots` of the lowest invalid way.
    #[inline]
    fn first_invalid(&self, slots: &Range<usize>) -> Option<usize> {
        let (set, ways) = self.ways_of(slots);
        let valid = &self.valid[set * self.words..(set + 1) * self.words];
        valid.iter().enumerate().find_map(|(w, &word)| {
            let free = !word & span_bits(w, &ways);
            (free != 0).then(|| w * 64 + free.trailing_zeros() as usize - ways.start)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CorruptionKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample(valid: bool, sec: bool, size: PageSize) -> TlbEntry {
        TlbEntry {
            valid,
            vpn: Vpn(0x1234),
            ppn: Ppn(0x77),
            asid: Asid(9),
            sec,
            size,
        }
    }

    #[test]
    fn entries_roundtrip() {
        let mut s = SoaStore::new(1, 70);
        for idx in [0, 1, 63, 64, 69] {
            for entry in [
                sample(true, false, PageSize::Base),
                sample(true, true, PageSize::Mega),
                sample(true, false, PageSize::Giga),
                sample(false, false, PageSize::Base),
                sample(false, true, PageSize::Giga),
            ] {
                s.set(idx, entry);
                assert_eq!(s.get(idx), entry, "entry {idx} must roundtrip");
            }
            s.invalidate(idx);
            assert_eq!(s.get(idx), TlbEntry::invalid());
        }
    }

    /// A random entry over a small key space, so duplicated keys, Sec
    /// twins and invalid entries with live-looking fields all occur.
    fn random_entry(rng: &mut SmallRng) -> TlbEntry {
        let size = PageSize::ALL[rng.gen_range(0..3)];
        TlbEntry {
            valid: rng.gen_range(0..5) != 0,
            vpn: size.align(Vpn(rng.gen_range(0..4) << size.span_shift())),
            ppn: Ppn(rng.gen_range(0..1 << 20)),
            asid: Asid(rng.gen_range(0..3)),
            sec: rng.gen_bool(0.3),
            size,
        }
    }

    /// Drives a [`SoaStore`] and a plain `Vec<TlbEntry>` through the same
    /// random sets, invalidations and clears, and after every step
    /// compares `get`, `hit`, `first_invalid` and `find` over random way
    /// ranges against a struct scan of the vector.
    fn lockstep(ways: usize, seed: u64, steps: usize) {
        let sets = 3;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = SoaStore::new(sets, ways);
        assert_eq!(store.indexed(), ways > WIDE_WAYS, "{ways} ways");
        let mut reference = vec![TlbEntry::invalid(); sets * ways];
        for step in 0..steps {
            let idx = rng.gen_range(0..sets * ways);
            match rng.gen_range(0..20) {
                0 => {
                    store.invalidate(idx);
                    reference[idx] = TlbEntry::invalid();
                }
                1 if step % 50 == 0 => {
                    store.clear();
                    reference.fill(TlbEntry::invalid());
                }
                _ => {
                    let e = random_entry(&mut rng);
                    store.set(idx, e);
                    reference[idx] = e;
                }
            }
            for (i, e) in reference.iter().enumerate() {
                assert_eq!(store.get(i), *e, "get({i}) at step {step}");
                if e.valid {
                    assert_eq!(store.hit(i), (e.ppn, e.size), "hit({i}) at step {step}");
                }
            }
            let set = rng.gen_range(0..sets);
            let lo = rng.gen_range(0..ways);
            let hi = rng.gen_range(lo + 1..=ways);
            let slots = set * ways + lo..set * ways + hi;
            assert_eq!(
                store.first_invalid(slots.clone()),
                reference[slots.clone()].iter().position(|e| !e.valid),
                "first_invalid({slots:?}) at step {step}"
            );
            let size = PageSize::ALL[rng.gen_range(0..3)];
            let vpn = Vpn(rng.gen_range(0..4u64 << size.span_shift()));
            let asid = Asid(rng.gen_range(0..3));
            assert_eq!(
                store.find(slots.clone(), asid, size.align(vpn), size),
                reference[slots.clone()]
                    .iter()
                    .position(|e| e.size == size && e.matches(asid, vpn)),
                "find({slots:?}, {asid}, {vpn}, {size:?}) at step {step}"
            );
        }
    }

    #[test]
    fn store_matches_a_struct_scan_on_every_way_count() {
        for ways in [1, 2, 3, 4, 7, 8, 9, 16, 32, 64, 128] {
            lockstep(ways, 0x50a + ways as u64, 3000);
        }
    }

    /// On a wide set the index must answer as the scan does when one key
    /// is resident in several ways: the lowest way of the probed range
    /// wins, across the index's 64-way words, with *Sec* twins, after
    /// invalidations, and for a duplicate that a tag corruption makes.
    #[test]
    fn the_lowest_way_wins_on_a_duplicated_key() {
        let key = |way: usize, sec: bool| TlbEntry {
            valid: true,
            vpn: Vpn(0x77),
            ppn: Ppn(way as u64),
            asid: Asid(1),
            sec,
            size: PageSize::Base,
        };
        let mut s = SoaStore::new(1, 128);
        assert!(s.indexed());
        for way in [100, 70, 64, 63, 3] {
            s.set(way, key(way, way == 64));
        }
        let find = |s: &SoaStore, slots: Range<usize>| {
            let offset = s.find(slots.clone(), Asid(1), Vpn(0x77), PageSize::Base);
            offset.map(|o| slots.start + o)
        };
        assert_eq!(find(&s, 0..128), Some(3));
        assert_eq!(find(&s, 4..128), Some(63));
        assert_eq!(find(&s, 64..128), Some(64), "a Sec twin matches");
        assert_eq!(find(&s, 65..100), Some(70));
        assert_eq!(find(&s, 71..100), None);
        s.invalidate(3);
        s.invalidate(63);
        assert_eq!(find(&s, 0..128), Some(64));
        s.set(64, TlbEntry::invalid());
        assert_eq!(find(&s, 0..128), Some(70));
        assert_eq!(s.first_invalid(0..128), Some(0));
        assert_eq!(s.first_invalid(70..128), Some(1));

        // The same through the array, where `corrupt_nth` makes the
        // duplicate: ways 0..128 hold pages 0..128, and flipping tag bit
        // 0 of way 5 turns its page 5 into page 4, which way 4 holds.
        let mut a = crate::array::EntryArray::new(crate::config::TlbConfig::fa(128).unwrap());
        for way in 0..128 {
            a.fill_at(
                0,
                way,
                TlbEntry {
                    vpn: Vpn(way as u64),
                    ..key(way, false)
                },
            );
        }
        let (_, way, _, after) = a.corrupt_nth(5, CorruptionKind::Tag).unwrap();
        assert_eq!((way, after.vpn), (5, Vpn(4)));
        assert_eq!(a.lookup(Asid(1), Vpn(4)), Some((0, 4)));
        a.invalidate_at(0, 4);
        assert_eq!(a.lookup(Asid(1), Vpn(4)), Some((0, 5)));
        assert_eq!(a.lookup(Asid(1), Vpn(5)), None);
    }
}
