//! Entry storage backends: struct-of-arrays fast path and the
//! array-of-structs reference layout.
//!
//! The entry array of every TLB design (see `crate::array`) is generic
//! over how entries are stored. Two backends exist:
//!
//! - [`SoaStore`] — struct-of-arrays with three lanes: VPNs, PPNs, and
//!   one packed tag word per entry holding the valid bit, page size,
//!   ASID, and *Sec* bit. A way probe compares the tag word (with *Sec*
//!   masked off) and the VPN, two contiguous lanes, instead of dragging
//!   whole [`TlbEntry`] structs through the cache.
//! - [`AosStore`] — the original `Vec<TlbEntry>` layout, kept as the
//!   reference implementation the differential equivalence suite runs
//!   against.
//!
//! The two are bundled with a matching [`Replacement`](crate::lru::Replacement)
//! implementation by a [`StoreProfile`]: [`SoaProfile`] (SoA entries +
//! packed branchless LRU) is the default for every design alias;
//! [`AosProfile`] (entry structs + timestamp LRU) is the pre-overhaul
//! slow path, reachable through the `*Ref` design aliases.

use std::fmt;
use std::ops::Range;

use crate::lru::{PackedLru, Replacement, StampLru};
use crate::types::{Asid, PageSize, Ppn, TlbEntry, Vpn};

/// Backend storage for a TLB's `sets x ways` entry array.
///
/// Indices are flat (`set * ways + way`); geometry stays the caller's
/// concern. Implementations must be value-faithful: `get` after `set`
/// returns the exact entry written (an invalid entry's fields included),
/// and [`EntryStore::find`] must equal the field-by-field comparison
/// documented on it — entry residency is observable behavior (it is what
/// the paper's attacks measure), so the backends have to be bit-for-bit
/// interchangeable.
pub trait EntryStore: fmt::Debug + Clone {
    /// Storage for `capacity` entries, all invalid.
    fn new(capacity: usize) -> Self;

    /// The entry at `idx`, by value.
    fn get(&self, idx: usize) -> TlbEntry;

    /// Overwrites the entry at `idx`.
    fn set(&mut self, idx: usize, entry: TlbEntry);

    /// Marks the entry at `idx` invalid.
    fn invalidate(&mut self, idx: usize) {
        self.set(idx, TlbEntry::invalid());
    }

    /// Invalidates every entry.
    fn clear(&mut self);

    /// The hot-path probe over one set's slots: the offset within `slots`
    /// of the lowest entry that is valid, has page size `size`, and
    /// matches `(asid, aligned)`, where `aligned` is the requested VPN
    /// already aligned to `size`. Each slot is equivalent to
    /// `e.size == size && e.matches(asid, vpn)` on the stored entry.
    fn find(&self, slots: Range<usize>, asid: Asid, aligned: Vpn, size: PageSize) -> Option<usize>;

    /// The translation a hit on `idx` returns: its PPN and page size.
    fn hit(&self, idx: usize) -> (Ppn, PageSize);

    /// The offset within `slots` of the lowest invalid entry, if any.
    fn first_invalid(&self, slots: Range<usize>) -> Option<usize>;
}

/// The original array-of-structs layout: one [`TlbEntry`] per slot.
#[derive(Debug, Clone)]
pub struct AosStore {
    entries: Vec<TlbEntry>,
}

impl EntryStore for AosStore {
    fn new(capacity: usize) -> AosStore {
        AosStore {
            entries: vec![TlbEntry::invalid(); capacity],
        }
    }

    fn get(&self, idx: usize) -> TlbEntry {
        self.entries[idx]
    }

    fn set(&mut self, idx: usize, entry: TlbEntry) {
        self.entries[idx] = entry;
    }

    fn clear(&mut self) {
        self.entries.fill(TlbEntry::invalid());
    }

    fn find(&self, slots: Range<usize>, asid: Asid, aligned: Vpn, size: PageSize) -> Option<usize> {
        self.entries[slots]
            .iter()
            .position(|e| e.valid && e.size == size && e.vpn == aligned && e.asid == asid)
    }

    fn hit(&self, idx: usize) -> (Ppn, PageSize) {
        let e = &self.entries[idx];
        (e.ppn, e.size)
    }

    fn first_invalid(&self, slots: Range<usize>) -> Option<usize> {
        self.entries[slots].iter().position(|e| !e.valid)
    }
}

/// Struct-of-arrays storage: VPN and PPN lanes plus one packed tag word
/// per entry.
///
/// A tag word holds the ASID in bits 0..16, the valid bit at 16, the
/// page-size code (0 base, 1 mega, 2 giga) in bits 17..19 and the *Sec*
/// bit at 19. With *Sec* masked off, two words are equal exactly when
/// the entries' valid bits, sizes and ASIDs are, so a way probe is one
/// word compare plus the VPN compare.
#[derive(Debug, Clone)]
pub struct SoaStore {
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
}

impl EntryStore for SoaStore {
    fn new(capacity: usize) -> SoaStore {
        SoaStore {
            vpns: vec![0; capacity],
            ppns: vec![0; capacity],
            tags: vec![0; capacity],
        }
    }

    fn get(&self, idx: usize) -> TlbEntry {
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

    fn set(&mut self, idx: usize, entry: TlbEntry) {
        self.vpns[idx] = entry.vpn.0;
        self.ppns[idx] = entry.ppn.0;
        self.tags[idx] = Self::tag(entry.valid, entry.size, entry.asid, entry.sec);
    }

    fn clear(&mut self) {
        // Zero is the invalid entry's image in every lane.
        self.vpns.fill(0);
        self.ppns.fill(0);
        self.tags.fill(0);
    }

    #[inline]
    fn find(&self, slots: Range<usize>, asid: Asid, aligned: Vpn, size: PageSize) -> Option<usize> {
        let key = Self::tag(true, size, asid, false);
        let tags = &self.tags[slots.clone()];
        let vpns = &self.vpns[slots];
        tags.iter()
            .zip(vpns)
            .position(|(&t, &v)| t & !Self::SEC == key && v == aligned.0)
    }

    #[inline]
    fn hit(&self, idx: usize) -> (Ppn, PageSize) {
        (Ppn(self.ppns[idx]), Self::size_of(self.tags[idx]))
    }

    #[inline]
    fn first_invalid(&self, slots: Range<usize>) -> Option<usize> {
        self.tags[slots].iter().position(|&t| t & Self::VALID == 0)
    }
}

/// Bundles an [`EntryStore`] with the matching
/// [`Replacement`](crate::lru::Replacement) implementation, selecting a
/// whole storage strategy for a TLB design with one type parameter.
pub trait StoreProfile: fmt::Debug + Clone + 'static {
    /// The entry storage backend.
    type Store: EntryStore;
    /// The replacement-state representation.
    type Lru: Replacement;
}

/// The fast path: struct-of-arrays entries + packed branchless LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoaProfile;

impl StoreProfile for SoaProfile {
    type Store = SoaStore;
    type Lru = PackedLru;
}

/// The pre-overhaul reference path: entry structs + timestamp LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AosProfile;

impl StoreProfile for AosProfile {
    type Store = AosStore;
    type Lru = StampLru;
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn roundtrip<S: EntryStore>() {
        let mut s = S::new(70);
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

    #[test]
    fn both_backends_roundtrip_entries() {
        roundtrip::<AosStore>();
        roundtrip::<SoaStore>();
    }

    fn probe_agreement<S: EntryStore>() {
        let mut s = S::new(8);
        let e = TlbEntry {
            valid: true,
            vpn: Vpn(0x200),
            ppn: Ppn(1),
            asid: Asid(3),
            sec: false,
            size: PageSize::Mega,
        };
        s.set(5, e);
        // A secure twin with another ASID: the probe masks Sec off.
        s.set(
            6,
            TlbEntry {
                asid: Asid(4),
                sec: true,
                ..e
            },
        );
        for (asid, vpn, size) in [
            (Asid(3), Vpn(0x2ff), PageSize::Mega),
            (Asid(3), Vpn(0x200), PageSize::Base),
            (Asid(3), Vpn(0x2ff), PageSize::Giga),
            (Asid(4), Vpn(0x2ff), PageSize::Mega),
            (Asid(5), Vpn(0x2ff), PageSize::Mega),
            (Asid(3), Vpn(0x400), PageSize::Mega),
        ] {
            let aligned = size.align(vpn);
            let reference = (0..8).position(|i| {
                let stored = s.get(i);
                stored.size == size && stored.matches(asid, vpn)
            });
            assert_eq!(
                s.find(0..8, asid, aligned, size),
                reference,
                "probe ({asid}, {vpn}, {size:?}) must match the entry comparison"
            );
        }
        assert_eq!(s.find(0..5, Asid(3), Vpn(0x200), PageSize::Mega), None);
        assert_eq!(s.find(4..8, Asid(3), Vpn(0x200), PageSize::Mega), Some(1));
        assert_eq!(s.find(0..8, Asid(0), Vpn(0), PageSize::Base), None);
        assert_eq!(s.hit(5), (Ppn(1), PageSize::Mega));
        assert_eq!(s.first_invalid(0..8), Some(0));
        assert_eq!(s.first_invalid(5..8), Some(2));
        assert_eq!(s.first_invalid(5..7), None);
    }

    #[test]
    fn probe_agrees_with_entry_matches() {
        probe_agreement::<AosStore>();
        probe_agreement::<SoaStore>();
    }

    #[test]
    fn clear_empties_everything() {
        let mut s = SoaStore::new(100);
        for i in 0..100 {
            s.set(i, sample(true, i % 2 == 0, PageSize::Base));
        }
        s.clear();
        for i in 0..100 {
            assert_eq!(s.get(i), TlbEntry::invalid());
        }
    }
}
