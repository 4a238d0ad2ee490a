//! Offline property-testing harness.
//!
//! Implements the subset of the `proptest` API this workspace's test
//! suites use: the [`proptest!`] macro,
//! [`Strategy`](strategy::Strategy) with `prop_map`, numeric-range /
//! tuple / `Just` / regex-lite string strategies, [`collection::vec`],
//! [`prop_oneof!`], and the `prop_assert*` / `prop_assume!` macros. Each property runs a fixed number of cases
//! from a deterministic per-test PRNG (seeded from the test name), so
//! failures are reproducible run to run. Shrinking is not implemented;
//! the failing case's inputs appear in the panic message instead.

pub mod test_runner {
    //! Deterministic case generation for property tests.

    /// Default number of cases generated per property when
    /// `PROPTEST_CASES` is not set.
    pub const CASES: u32 = 64;

    /// Number of cases generated per property: the `PROPTEST_CASES`
    /// environment variable if set to a positive integer (CI pins it
    /// so local and gate runs agree), else [`CASES`].
    #[must_use]
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(CASES)
    }

    /// SplitMix64-based PRNG: small, fast, and plenty for case
    /// generation (the system-under-test's own RNG is separate).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name, so every property has
        /// an independent, stable stream.
        #[must_use]
        pub fn from_name(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: hash }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let x = self.next_u64();
                let m = u128::from(x) * u128::from(bound);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed strategies (built by
    /// [`crate::prop_oneof!`]).
    pub struct OneOf<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> OneOf<V> {
        /// Builds from a non-empty arm list.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        #[must_use]
        pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    /// Boxes a strategy for [`OneOf`], pinning the arm's `Value` type
    /// so `prop_oneof!` arms unify by inference.
    pub fn one_of_arm<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(strategy)
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap, clippy::cast_lossless)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = if span > u128::from(u64::MAX) {
                        rng.next_u64()
                    } else {
                        rng.below(span as u64)
                    };
                    (self.start as i128 + i128::from(draw)) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap, clippy::cast_lossless)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let draw = if span > u128::from(u64::MAX) {
                        rng.next_u64()
                    } else {
                        rng.below(span as u64)
                    };
                    (lo as i128 + i128::from(draw)) as $t
                }
            }
        )*};
    }
    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),* $(,)?) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy!(
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, F)
    );

    /// Regex-lite string strategy: supports the `[a-z]{m,n}` /
    /// `[a-z]{n}` shapes used in this workspace's tests.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo_ch, hi_ch, min_len, max_len) = parse_char_class_repeat(self);
            let len = min_len + rng.below(max_len - min_len + 1);
            let span = u64::from(hi_ch) - u64::from(lo_ch) + 1;
            (0..len)
                .map(|_| {
                    char::from_u32(u32::from(lo_ch) + rng.below(span) as u32)
                        .expect("in-range char")
                })
                .collect()
        }
    }

    /// Parses `[a-b]{m,n}` (or `{n}`) into `(a, b, m, n)`.
    fn parse_char_class_repeat(pattern: &str) -> (char, char, u64, u64) {
        fn bad(pattern: &str) -> ! {
            panic!("unsupported string strategy pattern {pattern:?} (expected \"[a-b]{{m,n}}\")")
        }
        let Some(rest) = pattern.strip_prefix('[') else {
            bad(pattern)
        };
        let Some((class, rest)) = rest.split_once(']') else {
            bad(pattern)
        };
        let mut chars = class.chars();
        let (lo, dash, hi) = (chars.next(), chars.next(), chars.next());
        let (Some(lo), Some('-'), Some(hi), None) = (lo, dash, hi, chars.next()) else {
            bad(pattern)
        };
        let Some(counts) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
            bad(pattern)
        };
        let (min_len, max_len) = match counts.split_once(',') {
            Some((m, n)) => match (m.parse(), n.parse()) {
                (Ok(m), Ok(n)) => (m, n),
                _ => bad(pattern),
            },
            None => match counts.parse() {
                Ok(n) => (n, n),
                Err(_) => bad(pattern),
            },
        };
        (lo, hi, min_len, max_len)
    }
}

pub mod arbitrary {
    //! `any::<T>()` support for the primitive types tests draw.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Full-type-range strategy returned by [`any`].
    #[derive(Debug, Clone, Default)]
    pub struct Any<T>(PhantomData<T>);

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The `proptest::prelude::any` entry point.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            // Finite, wide-range floats; NaN/inf handling is the
            // system-under-test's job, not random noise in every test.
            (rng.unit_f64() - 0.5) * 2e12
        }
    }
}

pub mod collection {
    //! `proptest::collection::vec`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Inclusive-exclusive length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                lo: exact,
                hi: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The common import surface, mirroring `proptest::prelude::*`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    ($(
        #[$meta:meta]
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[$meta]
        fn $name() {
            let mut __proptest_rng =
                $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __proptest_case in 0..$crate::test_runner::cases() {
                let _ = __proptest_case;
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut __proptest_rng);)*
                $body
            }
        }
    )*};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Skips the current case when its inputs don't satisfy a
/// precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::one_of_arm($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -2.0f64..2.0, z in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!(z <= 4);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn exact_vec_length(v in crate::collection::vec(0.0f64..1.0, 3)) {
            prop_assert_eq!(v.len(), 3);
        }

        #[test]
        fn oneof_and_map_compose(
            k in prop_oneof![Just(1u32), Just(2u32), (10u32..20).prop_map(|x| x * 2)],
        ) {
            prop_assert!(k == 1 || k == 2 || (20..40).contains(&k));
        }

        #[test]
        fn string_pattern_shape(s in "[a-c]{2,5}") {
            prop_assert!(s.len() >= 2 && s.len() <= 5);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn assume_skips(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn tuples_generate(pair in (0u64..4, 0u32..3)) {
            prop_assert!(pair.0 < 4 && pair.1 < 3);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy as _;
        let mut r1 = crate::test_runner::TestRng::from_name("x");
        let mut r2 = crate::test_runner::TestRng::from_name("x");
        let s = 0u64..1000;
        let a: Vec<u64> = (0..32).map(|_| s.generate(&mut r1)).collect();
        let b: Vec<u64> = (0..32).map(|_| s.generate(&mut r2)).collect();
        assert_eq!(a, b);
    }
}
