//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of `rand`'s API it actually uses:
//!
//! - [`RngCore`] / [`SeedableRng`] / [`Rng`] traits;
//! - [`rngs::SmallRng`], implemented as xoshiro256++ seeded through
//!   splitmix64 — the same algorithm family `rand 0.8` uses for its
//!   64-bit `SmallRng`;
//! - `gen_range` over integer `Range` / `RangeInclusive` bounds (unbiased
//!   via Lemire rejection sampling) and `gen_bool`.
//!
//! Streams are deterministic per seed, which is all the simulator's
//! reproducibility story requires; they are not guaranteed to match
//! upstream `rand` bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core random-number-generation trait: raw random words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Derives a full generator state from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[low, high)`; panics if the range is empty.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Samples uniformly from `[low, high]`; panics if `low > high`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Uniform `u64` in `[0, span)` by Lemire's multiply-shift with rejection
/// (unbiased for every span).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Rejection zone: the low `2^64 mod span` products are over-represented.
    // The zone lies below `span`, so only a low word below `span` needs the
    // division that finds it.
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        let low = m as u64;
        if low >= span || low >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

/// Uniform `u128` in `[0, span)` via 64-bit halves with rejection.
fn uniform_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if let Ok(small) = u64::try_from(span) {
        return u128::from(uniform_u64(rng, small));
    }
    // Wide span: mask-and-reject keeps the loop short (< 2 expected draws).
    let mask = u128::MAX >> (span - 1).leading_zeros();
    loop {
        let x = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) & mask;
        if x < span {
            return x;
        }
    }
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range {low}..{high}");
                let span = high.abs_diff(low);
                low.wrapping_add(uniform_u128(rng, u128::from(span)) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range {low}..={high}");
                let span = high.abs_diff(low);
                if u128::from(span) == u128::MAX {
                    return (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) as $t;
                }
                low.wrapping_add(uniform_u128(rng, u128::from(span) + 1) as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, u128);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range {low}..{high}");
                let span = high.abs_diff(low);
                low.wrapping_add(uniform_u128(rng, u128::from(span)) as $u as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range {low}..={high}");
                let span = high.abs_diff(low);
                low.wrapping_add(uniform_u128(rng, u128::from(span) + 1) as $u as $t)
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

impl SampleUniform for usize {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: usize, high: usize) -> usize {
        u64::sample_half_open(rng, low as u64, high as u64) as usize
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: usize, high: usize) -> usize {
        u64::sample_inclusive(rng, low as u64, high as u64) as usize
    }
}

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(rng, low, high)
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from an integer range.
    fn gen_range<T, Rge>(&mut self, range: Rge) -> T
    where
        T: SampleUniform,
        Rge: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0,1]");
        // 53 uniform mantissa bits, the standard float-from-bits recipe.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Small fast generator: xoshiro256++ (Blackman–Vigna), state seeded by
    /// splitmix64 as its authors recommend.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            SmallRng {
                s: core::array::from_fn(|_| splitmix64(&mut sm)),
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{uniform_u64, Rng, RngCore, SeedableRng};

    /// The reference for `uniform_u64`: Lemire's rejection with the zone
    /// computed before every draw.
    fn eager_uniform_u64<R: RngCore>(rng: &mut R, span: u64) -> u64 {
        if span.is_power_of_two() {
            return rng.next_u64() & (span - 1);
        }
        let zone = span.wrapping_neg() % span;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(span);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// A generator that counts the words it hands out.
    struct Counted(SmallRng, usize);

    impl RngCore for Counted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn the_lazy_zone_draws_what_the_eager_one_does() {
        // Small spans, the spans the simulator draws from, random spans,
        // and spans just past 2^63 and 2^64 * 2/3, which reject about every
        // second and third draw, so the rejection loop runs often.
        let mut spans: Vec<u64> = vec![3, 5, 6, 7, 10, 24, 31, 72, 100, 248, 1000, 4097];
        spans.extend([
            (1 << 32) + 1,
            (1 << 63) + 1,
            u64::MAX / 3 * 2 + 1,
            u64::MAX - 1,
        ]);
        let mut pick = SmallRng::seed_from_u64(0x5eed);
        spans.extend((0..64).map(|_| pick.next_u64() >> (pick.next_u64() % 63)));
        let samples = 500;
        let mut rejected = 0;
        for &span in spans.iter().filter(|s| **s > 1 && !s.is_power_of_two()) {
            for seed in 0..8 {
                let mut lazy = Counted(SmallRng::seed_from_u64(seed), 0);
                let mut eager = Counted(SmallRng::seed_from_u64(seed), 0);
                for _ in 0..samples {
                    let want = eager_uniform_u64(&mut eager, span);
                    assert_eq!(
                        uniform_u64(&mut lazy, span),
                        want,
                        "span {span} seed {seed}"
                    );
                }
                assert_eq!(
                    lazy.1, eager.1,
                    "same draws consumed: span {span} seed {seed}"
                );
                rejected += eager.1 - samples;
            }
        }
        assert!(
            rejected > 5_000,
            "the rejection loop ran only {rejected} times"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_covers_and_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let x = rng.gen_range(0u64..5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should appear");
        for _ in 0..100 {
            let x = rng.gen_range(10usize..=12);
            assert!((10..=12).contains(&x));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.gen_range(0usize..3)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits = {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn fill_bytes_fills_every_byte_eventually() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        let mut all = buf.to_vec();
        for _ in 0..8 {
            rng.fill_bytes(&mut buf);
            all.extend_from_slice(&buf);
        }
        assert!(all.iter().any(|&b| b != 0));
    }
}
