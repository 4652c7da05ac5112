//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the subset of proptest the workspace uses: integer-range, tuple,
//! mapped, weighted-union, and collection strategies, `any::<T>()`, and
//! the `proptest!` / `prop_assert!` / `prop_oneof!` macros.
//!
//! Differences from upstream, by design:
//!
//! - sampling is **deterministic**: the RNG is seeded from the test name,
//!   so a failure reproduces on every run (no regression files needed —
//!   `*.proptest-regressions` files are ignored);
//! - there is **no shrinking**: a failing case reports the exact inputs
//!   that failed instead of a minimized counterexample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use std::fmt::Debug;

    /// Size argument accepted by [`vec()`]: an exact size or a half-open
    /// range of sizes.
    pub trait IntoSizeRange {
        /// Lower bound (inclusive) and upper bound (exclusive).
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    /// Strategy producing a `Vec` of values drawn from `element`, with a
    /// length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "collection::vec: empty size range");
        VecStrategy { element, lo, hi }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.hi - self.lo) + self.lo;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a proptest-using module needs (mirrors
/// `proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Per-test configuration (mirrors the upstream struct of the same
    /// name; only `cases` is interpreted).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...)`
/// item becomes a regular test that evaluates its body over `cases`
/// deterministically sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::prelude::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::prelude::ProptestConfig = $cfg;
            let mut rng = $crate::strategy::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| { $body })
                );
                if let Err(cause) = outcome {
                    eprintln!(
                        "proptest {}: case #{case} failed with inputs: {inputs}",
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(cause);
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Picks among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::WeightedUnion::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tri {
        A(u8),
        B,
        C,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..=4, z in 1u128..) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!(z >= 1);
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (0u8..4, 10u64..20).prop_map(|(a, b)| (b, a)),
            v in crate::collection::vec(0u8..3, 1..9),
        ) {
            prop_assert!(pair.0 >= 10 && pair.1 < 4);
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&e| e < 3));
        }

        #[test]
        fn oneof_honors_arms(t in prop_oneof![
            2 => (0u8..7).prop_map(Tri::A),
            1 => Just(Tri::B),
            1 => Just(Tri::C),
        ]) {
            match t {
                Tri::A(x) => prop_assert!(x < 7),
                Tri::B | Tri::C => {}
            }
        }

        #[test]
        fn any_covers_integers(x in any::<u128>(), b in any::<bool>()) {
            let _ = (x, b);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let sample = |name: &str| {
            let mut rng = TestRng::for_test(name);
            (0..8)
                .map(|_| (0u64..1000).generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample("alpha"), sample("alpha"));
        assert_ne!(sample("alpha"), sample("beta"));
    }

    #[test]
    fn oneof_reaches_every_arm() {
        let strat = prop_oneof![
            6 => Just(Tri::B),
            1 => Just(Tri::C),
            1 => (0u8..2).prop_map(Tri::A),
        ];
        let mut rng = TestRng::for_test("arms");
        let draws: Vec<Tri> = (0..400).map(|_| strat.generate(&mut rng)).collect();
        assert!(draws.contains(&Tri::B));
        assert!(draws.contains(&Tri::C));
        assert!(draws.iter().any(|t| matches!(t, Tri::A(_))));
        let b = draws.iter().filter(|&&t| t == Tri::B).count();
        assert!(b > 200, "weight-6 arm drew only {b} of 400");
    }
}
