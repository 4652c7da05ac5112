//! Struct-of-arrays entry storage for a TLB's `sets x ways` array.
//!
//! [`SoaStore`] keeps three lanes: VPNs, PPNs, and one packed tag word
//! per entry holding the valid bit, page size, ASID, and *Sec* bit. A
//! way probe compares the VPN and then the tag word (with *Sec* masked
//! off), two contiguous lanes, instead of dragging whole [`TlbEntry`]
//! structs through the cache.

use std::ops::Range;

use crate::types::{Asid, PageSize, Ppn, TlbEntry, Vpn};

/// Struct-of-arrays storage: VPN and PPN lanes plus one packed tag word
/// per entry.
///
/// Indices are flat (`set * ways + way`); geometry stays the caller's
/// concern. The store is value-faithful: `get` after `set` returns the
/// exact entry written (an invalid entry's fields included), and
/// [`SoaStore::find`] equals the field-by-field comparison documented on
/// it — entry residency is observable behavior (it is what the paper's
/// attacks measure). The tests below hold it to a plain `Vec<TlbEntry>`
/// scan.
///
/// A tag word holds the ASID in bits 0..16, the valid bit at 16, the
/// page-size code (0 base, 1 mega, 2 giga) in bits 17..19 and the *Sec*
/// bit at 19. With *Sec* masked off, two words are equal exactly when
/// the entries' valid bits, sizes and ASIDs are, so a way probe is the
/// VPN compare plus one word compare. The VPN goes first: the resident
/// entries of one address space all pass the tag compare, so it would
/// filter almost nothing, while the VPN compare rejects all but the one
/// way that can match.
#[derive(Debug, Clone)]
pub(crate) struct SoaStore {
    vpns: Vec<u64>,
    ppns: Vec<u64>,
    tags: Vec<u32>,
}

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

    /// Storage for `capacity` entries, all invalid.
    pub(crate) fn new(capacity: usize) -> SoaStore {
        SoaStore {
            vpns: vec![0; capacity],
            ppns: vec![0; capacity],
            tags: vec![0; capacity],
        }
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
        self.vpns[idx] = entry.vpn.0;
        self.ppns[idx] = entry.ppn.0;
        self.tags[idx] = Self::tag(entry.valid, entry.size, entry.asid, entry.sec);
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
        let vpns = &self.vpns[slots.clone()];
        let tags = &self.tags[slots];
        vpns.iter()
            .zip(tags)
            .position(|(&v, &t)| v == aligned.0 && t & !Self::SEC == key)
    }

    /// The translation a hit on `idx` returns: its PPN and page size.
    #[inline]
    pub(crate) fn hit(&self, idx: usize) -> (Ppn, PageSize) {
        (Ppn(self.ppns[idx]), Self::size_of(self.tags[idx]))
    }

    /// The offset within `slots` of the lowest invalid entry, if any.
    #[inline]
    pub(crate) fn first_invalid(&self, slots: Range<usize>) -> Option<usize> {
        self.tags[slots].iter().position(|&t| t & Self::VALID == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut s = SoaStore::new(70);
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
        let mut store = SoaStore::new(sets * ways);
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
}
