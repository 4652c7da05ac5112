//! True-LRU replacement state.
//!
//! Each TLB set tracks the recency of its ways; the least recently used
//! way is the victim, and invalid ways are always preferred for fills
//! (that preference lives in the entry array, which sees validity). The
//! Static-Partition TLB keeps its LRU decisions *within a subset of
//! ways* (each partition has its own LRU policy, Section 4.1.1), which
//! [`PackedLru::lru_among`] supports directly.
//!
//! [`PackedLru`] packs per-set *rank* words updated branchlessly (one
//! `u64` with 8-bit lanes per set when `ways <= 8`). The property tests
//! at the bottom of this module drive it in lockstep with a timestamp
//! reference (`StampLru`, a `u64` stamp per way) and require identical
//! victim choices at every step.

use std::ops::Range;

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
/// This is order-isomorphic to unbounded per-way timestamps: both
/// orderings agree on every comparison (positive ranks are always
/// distinct within a set), so victim choices are bit-identical — see the
/// `packed_matches_stamps_*` property tests, which drive it and a
/// timestamp reference through the same operation sequences in lockstep.
///
/// For `ways <= 8` each set's ranks live in one `u64` of 8-bit lanes;
/// wider sets (the paper's FA 32 and FA 128 configurations) fall back to
/// a flat `u16` rank array with the same semantics.
#[derive(Debug, Clone)]
pub(crate) struct PackedLru {
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
    /// The rank of `(set, way)`, for the regression tests that pin
    /// "no-fill accesses leave replacement state untouched".
    #[cfg(test)]
    pub(crate) fn rank(&self, set: usize, way: usize) -> u16 {
        assert!(way < self.ways, "way {way} out of range");
        match &self.ranks {
            Ranks::Swar { words, .. } => ((words[set] >> (way * 8)) & 0xff) as u16,
            Ranks::Wide { ranks, .. } => ranks[set * self.ways + way],
        }
    }

    /// Fresh state for `sets` sets of `ways` ways, all untouched.
    pub(crate) fn new(sets: usize, ways: usize) -> PackedLru {
        assert!(ways > 0, "a set needs at least one way");
        // Wide rows hold `u16` ranks and number their ways in `u16`
        // offsets, with `u16::MAX` as the victim search's sentinel.
        assert!(
            ways < usize::from(u16::MAX),
            "{ways} ways exceed a wide row"
        );
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

    /// Records a use of `(set, way)`, making it the set's most recently
    /// used way.
    #[inline(always)]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
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

    /// Clears the recency of `(set, way)` (entry invalidated; the slot is
    /// preferred for reuse).
    pub(crate) fn reset(&mut self, set: usize, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        match &mut self.ranks {
            Ranks::Swar { words, .. } => words[set] &= !(0xff << (way * 8)),
            Ranks::Wide { ranks, .. } => ranks[set * self.ways + way] = 0,
        }
    }

    /// Clears all recency state.
    pub(crate) fn reset_all(&mut self) {
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

    /// The least recently used way of `set` within the way range `ways`.
    /// Returns `None` for an empty range. Ties (untouched/reset ways)
    /// break toward the lowest way index.
    #[inline]
    pub(crate) fn lru_among(&self, set: usize, ways: Range<usize>) -> Option<usize> {
        match &self.ranks {
            Ranks::Swar { words, .. } => {
                // `min_by_key` keeps the first of equal minima: the lowest
                // way.
                let word = words[set];
                ways.min_by_key(|&w| (word >> (w * 8)) & 0xff)
            }
            Ranks::Wide { ranks, .. } => {
                // Two minimum passes the compiler vectorizes, with no
                // data-dependent branch: the least rank, then the least
                // offset holding it.
                let start = ways.start;
                let row = &ranks[set * self.ways..(set + 1) * self.ways][ways];
                let min = row.iter().copied().min()?;
                let first = row
                    .iter()
                    .zip(0u16..)
                    .map(|(&r, offset)| if r == min { offset } else { u16::MAX })
                    .min()?;
                Some(start + usize::from(first))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timestamp reference [`PackedLru`] is held to: a `u64` stamp
    /// per way, handed out from a per-set clock. The least recently used
    /// way has the smallest stamp; untouched and reset ways have stamp 0
    /// and ties break toward the lowest way.
    struct StampLru {
        ways: usize,
        stamps: Vec<u64>,
        clocks: Vec<u64>,
    }

    impl StampLru {
        fn new(sets: usize, ways: usize) -> StampLru {
            StampLru {
                ways,
                stamps: vec![0; sets * ways],
                clocks: vec![0; sets],
            }
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.clocks[set] += 1;
            self.stamps[set * self.ways + way] = self.clocks[set];
        }

        fn reset(&mut self, set: usize, way: usize) {
            self.stamps[set * self.ways + way] = 0;
        }

        fn reset_all(&mut self) {
            self.stamps.fill(0);
        }

        fn lru_among(&self, set: usize, ways: Range<usize>) -> Option<usize> {
            ways.min_by_key(|&w| (self.stamps[set * self.ways + w], w))
        }
    }

    #[test]
    fn untouched_ways_are_preferred() {
        let mut l = PackedLru::new(1, 4);
        l.touch(0, 0);
        l.touch(0, 1);
        // Ways 2 and 3 are untouched; the lowest index wins ties.
        assert_eq!(l.lru_among(0, 0..4), Some(2));
    }

    #[test]
    fn lru_follows_access_order() {
        let mut l = PackedLru::new(1, 3);
        l.touch(0, 0);
        l.touch(0, 1);
        l.touch(0, 2);
        assert_eq!(l.lru_among(0, 0..3), Some(0));
        l.touch(0, 0);
        assert_eq!(l.lru_among(0, 0..3), Some(1));
    }

    #[test]
    fn most_recently_used_is_never_evicted() {
        let mut l = PackedLru::new(1, 8);
        for w in 0..8 {
            l.touch(0, w);
        }
        for step in 0..1000 {
            let mru = step % 8;
            l.touch(0, mru);
            assert_ne!(
                l.lru_among(0, 0..8),
                Some(mru),
                "LRU must never pick the MRU way"
            );
        }
    }

    #[test]
    fn subset_lru_ignores_other_ways() {
        let mut l = PackedLru::new(1, 4);
        l.touch(0, 2); // way 2 recently used
        l.touch(0, 0);
        l.touch(0, 1);
        // Among the "partition" {2, 3}, way 3 is untouched.
        assert_eq!(l.lru_among(0, 2..4), Some(3));
        l.touch(0, 3);
        assert_eq!(l.lru_among(0, 2..4), Some(2));
        assert_eq!(l.lru_among(0, 2..2), None);
    }

    #[test]
    fn reset_makes_a_way_lru_again() {
        let mut l = PackedLru::new(1, 2);
        l.touch(0, 0);
        l.touch(0, 1);
        assert_eq!(l.lru_among(0, 0..2), Some(0));
        l.reset(0, 1);
        assert_eq!(l.lru_among(0, 0..2), Some(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touching_out_of_range_panics() {
        PackedLru::new(1, 2).touch(0, 2);
    }

    #[test]
    #[should_panic(expected = "exceed a wide row")]
    fn a_row_wider_than_its_offsets_is_refused() {
        PackedLru::new(1, usize::from(u16::MAX));
    }

    /// Drives a [`StampLru`] and a [`PackedLru`] through the same
    /// pseudo-random operation sequence and asserts every victim choice
    /// (full-set and subset) agrees at every step.
    fn lockstep(sets: usize, ways: usize, seed: u64, steps: usize) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference = StampLru::new(sets, ways);
        let mut packed = PackedLru::new(sets, ways);
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
        let mut p = PackedLru::new(2, 4);
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
        let mut reference = StampLru::new(1, 4);
        let mut packed = PackedLru::new(1, 4);
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
}
