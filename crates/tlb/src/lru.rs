//! True-LRU replacement state.
//!
//! Each TLB set tracks the recency of its ways with a monotonically
//! increasing timestamp per way. The least recently used way is the one
//! with the smallest timestamp; invalid ways are always preferred for
//! fills. The Static-Partition TLB maintains its LRU decisions *within a
//! subset of ways* (each partition has its own LRU policy, Section 4.1.1),
//! which [`LruSet::lru_among`] supports directly.
//!
//! Two interchangeable whole-array implementations of the same policy are
//! provided behind the [`Replacement`] trait:
//!
//! - [`StampLru`] — the original per-set timestamp representation
//!   ([`LruSet`] per set), kept as the reference implementation;
//! - [`PackedLru`] — packed per-set *rank* words updated branchlessly
//!   (one `u64` with 8-bit lanes per set when `ways <= 8`), the fast path
//!   used by the simulator hot loop.
//!
//! Both produce bit-identical victim choices for every operation
//! sequence; the property tests at the bottom of this module drive them
//! in lockstep.

use std::fmt;
use std::ops::Range;

/// LRU state for one set of `ways` entries.
#[derive(Debug, Clone)]
pub struct LruSet {
    stamps: Vec<u64>,
    clock: u64,
}

impl LruSet {
    /// Creates LRU state for a set with `ways` ways, all initially
    /// untouched (timestamp 0).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> LruSet {
        assert!(ways > 0, "a set needs at least one way");
        LruSet {
            stamps: vec![0; ways],
            clock: 0,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.stamps.len()
    }

    /// Records a use of `way` (hit or fill), making it the most recently
    /// used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: usize) {
        assert!(way < self.stamps.len(), "way {way} out of range");
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    /// The least recently used way of the whole set.
    pub fn lru(&self) -> usize {
        self.lru_among(0..self.stamps.len())
            .expect("a nonempty set always has an LRU way")
    }

    /// The least recently used way among a subset of ways (the SP TLB's
    /// per-partition policy). Returns `None` for an empty subset.
    pub fn lru_among(&self, ways: impl IntoIterator<Item = usize>) -> Option<usize> {
        ways.into_iter().min_by_key(|&w| (self.stamps[w], w))
    }

    /// Clears the recency of `way` (used when an entry is invalidated, so
    /// the slot is reused first).
    pub fn reset(&mut self, way: usize) {
        assert!(way < self.stamps.len(), "way {way} out of range");
        self.stamps[way] = 0;
    }

    /// Clears all recency state.
    pub fn reset_all(&mut self) {
        self.stamps.fill(0);
    }
}

/// Whole-array replacement state: one LRU policy instance per TLB set.
///
/// Abstracts the representation of the per-set true-LRU state so the
/// entry array can run either the reference timestamp implementation
/// ([`StampLru`]) or the packed branchless one ([`PackedLru`]). Every
/// implementation must make *identical* victim choices for identical
/// operation sequences — the replacement policy is part of the designs'
/// observable behavior (eviction patterns are what the paper's attacks
/// measure).
pub trait Replacement: fmt::Debug + Clone {
    /// Fresh state for `sets` sets of `ways` ways, all untouched.
    fn new(sets: usize, ways: usize) -> Self;

    /// Records a use of `(set, way)`, making it the set's most recently
    /// used way.
    fn touch(&mut self, set: usize, way: usize);

    /// Clears the recency of `(set, way)` (entry invalidated; the slot is
    /// preferred for reuse).
    fn reset(&mut self, set: usize, way: usize);

    /// Clears all recency state.
    fn reset_all(&mut self);

    /// The least recently used way of `set` within the way range `ways`.
    /// Returns `None` for an empty range. Ties (untouched/reset ways)
    /// break toward the lowest way index.
    fn lru_among(&self, set: usize, ways: Range<usize>) -> Option<usize>;
}

/// The reference [`Replacement`] implementation: one [`LruSet`] (u64
/// timestamp per way plus a per-set clock) per set. This is the original
/// representation the designs shipped with; it survives as the slow-path
/// oracle the differential equivalence suite compares against.
#[derive(Debug, Clone)]
pub struct StampLru {
    sets: Vec<LruSet>,
}

impl Replacement for StampLru {
    fn new(sets: usize, ways: usize) -> StampLru {
        StampLru {
            sets: (0..sets).map(|_| LruSet::new(ways)).collect(),
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.sets[set].touch(way);
    }

    fn reset(&mut self, set: usize, way: usize) {
        self.sets[set].reset(way);
    }

    fn reset_all(&mut self) {
        for s in &mut self.sets {
            s.reset_all();
        }
    }

    fn lru_among(&self, set: usize, ways: Range<usize>) -> Option<usize> {
        self.sets[set].lru_among(ways)
    }
}

/// Packed per-set LRU rank state, updated branchlessly.
///
/// Each way carries a small recency *rank*: `0` means untouched (or
/// reset), and among touched ways a larger rank means more recently
/// used. Ranks are assigned from a per-set saturating mini-clock, so a
/// touch is just a clock increment plus one lane write — no loops and no
/// data-dependent branches on the common path. When the clock saturates
/// (once every ~250 touches of the same set) the set's ranks are
/// *renormalized*: compacted to `1 ..= k` in the same relative order,
/// which changes no comparison any query can observe.
///
/// This is order-isomorphic to [`LruSet`]'s unbounded timestamps: both
/// orderings agree on every comparison (positive ranks are always
/// distinct within a set), so victim choices are bit-identical — see the
/// `packed_matches_stamps_*` property tests, which drive both through
/// the same operation sequences in lockstep.
///
/// For `ways <= 8` each set's ranks live in one `u64` of 8-bit lanes;
/// wider sets (the paper's FA 32 and FA 128 configurations) fall back to
/// a flat `u16` rank array with the same semantics.
#[derive(Debug, Clone)]
pub struct PackedLru {
    ways: usize,
    ranks: Ranks,
}

#[derive(Debug, Clone)]
enum Ranks {
    /// One rank word per set; lane `w` (bits `8w .. 8w+8`) holds way
    /// `w`'s rank. Unused high lanes stay zero and are never selected
    /// because victim search only visits real way indices. `clocks[set]`
    /// is the last rank handed out in that set.
    Swar { words: Vec<u64>, clocks: Vec<u8> },
    /// `sets * ways` ranks, row-major by set.
    Wide { ranks: Vec<u16>, clocks: Vec<u16> },
}

/// Compacts a set's positive ranks to `1 ..= k` preserving their
/// relative order (zero lanes stay zero); returns `k`, the new clock
/// value.
///
/// Works in place without scratch space: it visits the positive ranks in
/// increasing order and hands out `1, 2, …`. A rank's new value never
/// exceeds its old one (positive ranks are distinct, so at most `old - 1`
/// of them lie below it), so every rewritten lane is at most the last
/// old rank visited and the search for the next one, which looks only
/// above it, never sees a rewritten lane.
#[cold]
#[inline(never)]
fn renormalize(row: &mut [u16]) -> u16 {
    let mut floor = 0;
    let mut next = 0;
    while let Some(w) = (0..row.len())
        .filter(|&w| row[w] > floor)
        .min_by_key(|&w| row[w])
    {
        floor = row[w];
        next += 1;
        row[w] = next;
    }
    next
}

/// [`renormalize`] on a SWAR rank word: unpacks its eight 8-bit lanes
/// onto the stack, compacts them, and packs them back.
#[cold]
#[inline(never)]
fn renormalize_word(word: &mut u64) -> u8 {
    let mut row = [0u16; 8];
    for (w, r) in row.iter_mut().enumerate() {
        *r = ((*word >> (w * 8)) & 0xff) as u16;
    }
    let clock = renormalize(&mut row);
    *word = row
        .iter()
        .enumerate()
        .fold(0, |acc, (w, &r)| acc | (u64::from(r) << (w * 8)));
    clock as u8
}

impl PackedLru {
    /// The rank of `(set, way)` — exposed for the regression tests that
    /// pin "no-fill accesses leave replacement state untouched".
    pub fn rank(&self, set: usize, way: usize) -> u16 {
        assert!(way < self.ways, "way {way} out of range");
        match &self.ranks {
            Ranks::Swar { words, .. } => ((words[set] >> (way * 8)) & 0xff) as u16,
            Ranks::Wide { ranks, .. } => ranks[set * self.ways + way],
        }
    }
}

impl Replacement for PackedLru {
    fn new(sets: usize, ways: usize) -> PackedLru {
        assert!(ways > 0, "a set needs at least one way");
        let ranks = if ways <= 8 {
            Ranks::Swar {
                words: vec![0; sets],
                clocks: vec![0; sets],
            }
        } else {
            Ranks::Wide {
                ranks: vec![0; sets * ways],
                clocks: vec![0; sets],
            }
        };
        PackedLru { ways, ranks }
    }

    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        match &mut self.ranks {
            Ranks::Swar { words, clocks } => {
                let (word, clock) = (&mut words[set], &mut clocks[set]);
                if *clock == u8::MAX {
                    // Rare: compact ranks to 1..=k in the same order.
                    *clock = renormalize_word(word);
                }
                *clock += 1;
                let shift = way * 8;
                *word = (*word & !(0xff << shift)) | (u64::from(*clock) << shift);
            }
            Ranks::Wide { ranks, clocks } => {
                let row = &mut ranks[set * self.ways..(set + 1) * self.ways];
                let clock = &mut clocks[set];
                if *clock == u16::MAX {
                    *clock = renormalize(row);
                }
                *clock += 1;
                row[way] = *clock;
            }
        }
    }

    fn reset(&mut self, set: usize, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        match &mut self.ranks {
            Ranks::Swar { words, .. } => words[set] &= !(0xff << (way * 8)),
            Ranks::Wide { ranks, .. } => ranks[set * self.ways + way] = 0,
        }
    }

    fn reset_all(&mut self) {
        match &mut self.ranks {
            Ranks::Swar { words, clocks } => {
                words.fill(0);
                clocks.fill(0);
            }
            Ranks::Wide { ranks, clocks } => {
                ranks.fill(0);
                clocks.fill(0);
            }
        }
    }

    #[inline]
    fn lru_among(&self, set: usize, ways: Range<usize>) -> Option<usize> {
        // `min_by_key` keeps the first of equal minima: the lowest way.
        match &self.ranks {
            Ranks::Swar { words, .. } => {
                let word = words[set];
                ways.min_by_key(|&w| (word >> (w * 8)) & 0xff)
            }
            Ranks::Wide { ranks, .. } => {
                let start = ways.start;
                let row = &ranks[set * self.ways..(set + 1) * self.ways];
                row[ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &r)| r)
                    .map(|(offset, _)| start + offset)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_ways_are_preferred() {
        let mut l = LruSet::new(4);
        l.touch(0);
        l.touch(1);
        // Ways 2 and 3 are untouched; the lowest index wins ties.
        assert_eq!(l.lru(), 2);
    }

    #[test]
    fn lru_follows_access_order() {
        let mut l = LruSet::new(3);
        l.touch(0);
        l.touch(1);
        l.touch(2);
        assert_eq!(l.lru(), 0);
        l.touch(0);
        assert_eq!(l.lru(), 1);
    }

    #[test]
    fn most_recently_used_is_never_evicted() {
        let mut l = LruSet::new(8);
        for w in 0..8 {
            l.touch(w);
        }
        for step in 0..100 {
            let mru = step % 8;
            l.touch(mru);
            assert_ne!(l.lru(), mru, "LRU must never pick the MRU way");
        }
    }

    #[test]
    fn subset_lru_ignores_other_ways() {
        let mut l = LruSet::new(4);
        l.touch(2); // way 2 recently used
        l.touch(0);
        l.touch(1);
        // Among the "partition" {2, 3}, way 3 is untouched.
        assert_eq!(l.lru_among([2, 3]), Some(3));
        l.touch(3);
        assert_eq!(l.lru_among([2, 3]), Some(2));
        assert_eq!(l.lru_among([]), None);
    }

    #[test]
    fn reset_makes_a_way_lru_again() {
        let mut l = LruSet::new(2);
        l.touch(0);
        l.touch(1);
        assert_eq!(l.lru(), 0);
        l.reset(1);
        assert_eq!(l.lru(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touching_out_of_range_panics() {
        LruSet::new(2).touch(2);
    }

    /// Drives a [`StampLru`] and a [`PackedLru`] through the same
    /// pseudo-random operation sequence and asserts every victim choice
    /// (full-set and subset) agrees at every step.
    fn lockstep(sets: usize, ways: usize, seed: u64, steps: usize) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference: StampLru = Replacement::new(sets, ways);
        let mut packed: PackedLru = Replacement::new(sets, ways);
        for step in 0..steps {
            let set = rng.gen_range(0..sets);
            let way = rng.gen_range(0..ways);
            match rng.gen_range(0..10) {
                0 => {
                    reference.reset(set, way);
                    packed.reset(set, way);
                }
                1 if step % 97 == 0 => {
                    reference.reset_all();
                    packed.reset_all();
                }
                _ => {
                    reference.touch(set, way);
                    packed.touch(set, way);
                }
            }
            for s in 0..sets {
                assert_eq!(
                    reference.lru_among(s, 0..ways),
                    packed.lru_among(s, 0..ways),
                    "full-set LRU diverged at step {step}, set {s} ({sets}x{ways}, seed {seed})"
                );
                // Subset queries (the SP TLB's per-partition policy).
                let split = (s % ways).max(1);
                assert_eq!(
                    reference.lru_among(s, 0..split),
                    packed.lru_among(s, 0..split),
                    "low-partition LRU diverged at step {step}, set {s}"
                );
                assert_eq!(
                    reference.lru_among(s, split..ways),
                    packed.lru_among(s, split..ways),
                    "high-partition LRU diverged at step {step}, set {s}"
                );
            }
        }
    }

    #[test]
    fn packed_matches_stamps_on_swar_geometries() {
        // All SWAR-path widths, including the security-eval 4x8.
        for ways in 1..=8 {
            lockstep(4, ways, 0xc0ffee + ways as u64, 4000);
        }
        lockstep(16, 4, 7, 4000);
    }

    #[test]
    fn packed_matches_stamps_on_wide_geometries() {
        // The fallback path: FA 32 and FA 128 (one set, many ways).
        lockstep(1, 32, 11, 4000);
        lockstep(1, 128, 13, 2000);
        lockstep(2, 9, 17, 4000);
    }

    #[test]
    fn packed_matches_stamps_on_multi_class_geometries() {
        // The MS split runs one independent replacement instance per
        // page-size class: 64x4 (realistic 4K), 8x4 / 4x4 (2M), and FA-4
        // (1G). Renormalization is per-set and must stay
        // order-preserving in every class geometry, not just the single
        // uniform security-eval array the campaigns historically used.
        lockstep(64, 4, 0x51ab, 3000);
        lockstep(8, 4, 0x51ac, 4000);
        lockstep(4, 4, 0x51ad, 4000);
        lockstep(1, 4, 0x51ae, 4000);
    }

    #[test]
    fn packed_rank_probe_reports_reset_and_mru() {
        let mut p: PackedLru = Replacement::new(2, 4);
        assert_eq!(p.rank(1, 2), 0);
        p.touch(1, 0);
        p.touch(1, 2);
        assert!(
            p.rank(1, 2) > p.rank(1, 0),
            "a fresh touch outranks earlier ones"
        );
        p.reset(1, 2);
        assert_eq!(p.rank(1, 2), 0);
    }

    #[test]
    fn packed_survives_clock_saturation() {
        // Force renormalization: far more touches per set than the 8-bit
        // (SWAR) and, with a long sequence, the lockstep already covers
        // order preservation — here we pin that saturation itself keeps
        // both implementations agreeing across the renormalize boundary.
        let mut reference: StampLru = Replacement::new(1, 4);
        let mut packed: PackedLru = Replacement::new(1, 4);
        for i in 0..2000usize {
            let way = (i * 7 + i / 3) % 4;
            reference.touch(0, way);
            packed.touch(0, way);
            if i % 11 == 0 {
                reference.reset(0, (i / 11) % 4);
                packed.reset(0, (i / 11) % 4);
            }
            assert_eq!(
                reference.lru_among(0, 0..4),
                packed.lru_among(0, 0..4),
                "diverged at touch {i}"
            );
        }
    }

    #[test]
    fn packed_tracks_access_order_like_lru_set() {
        let mut p: PackedLru = Replacement::new(1, 3);
        p.touch(0, 0);
        p.touch(0, 1);
        p.touch(0, 2);
        assert_eq!(p.lru_among(0, 0..3), Some(0));
        p.touch(0, 0);
        assert_eq!(p.lru_among(0, 0..3), Some(1));
    }
}
