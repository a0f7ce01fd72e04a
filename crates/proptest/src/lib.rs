//! Offline drop-in subset of the `proptest` API.
//!
//! The container this workspace builds in has no registry access, so the
//! real `proptest` crate cannot be downloaded. This shim implements the
//! slice of its API the workspace's property tests use — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, `Just`, `any`,
//! range/tuple/`vec` strategies, `prop_map`/`prop_flat_map`, and
//! `ProptestConfig::with_cases` — over a deterministic per-test
//! SplitMix64 generator. There is no shrinking: a failing case panics
//! with the case index, and the generator is seeded from the test's
//! module path, so every failure reproduces exactly.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator seeding each property test.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator from a test's name (FNV-1a), so runs are
    /// reproducible without any global state.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(h)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-test configuration (the subset the tests set).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A generator of random values (the object-safe core of proptest's
/// `Strategy`).
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Combinator methods on every [`Strategy`] (kept separate so the core
/// trait stays object-safe for [`prop_oneof!`]).
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` builds from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }
}

impl<T: Strategy> StrategyExt for T {}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`StrategyExt::prop_map`].
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

/// See [`StrategyExt::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Picks one of several boxed strategies uniformly (built by
/// [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Builds a [`Union`]; the coercion point for [`prop_oneof!`]'s arms.
pub fn union<T>(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    Union { arms }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}

int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.f64_unit()
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates one uniformly distributed value.
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

/// Whole-domain strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// The strategy [`any`] returns.
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_value(rng)
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_value(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// How many elements a collection strategy generates.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose length falls in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, StrategyExt, TestRng, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop` (module-path access to the
    /// sub-strategy namespaces).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// runs `ProptestConfig::cases` random cases over its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($args:tt)* ) $body:block )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $crate::__proptest_bindings!(__rng; $($args)*);
                $body
            }
        }
    )*};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bindings {
    ($rng:ident;) => {};
    ($rng:ident; $pat:pat in $strat:expr) => {
        let $pat = $crate::Strategy::generate(&$strat, &mut $rng);
    };
    ($rng:ident; $pat:pat in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::generate(&$strat, &mut $rng);
        $crate::__proptest_bindings!($rng; $($rest)*);
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Picks one strategy arm uniformly at random per generated value.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::union(vec![$(::std::boxed::Box::new($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0usize..=4).generate(&mut rng);
            assert!(w <= 4);
            let f = (1.5f64..2.5).generate(&mut rng);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_the_size_range() {
        let mut rng = TestRng::from_name("vec");
        for _ in 0..200 {
            let v = prop::collection::vec(any::<u8>(), 1..6).generate(&mut rng);
            assert!((1..6).contains(&v.len()));
            let exact = prop::collection::vec(any::<bool>(), 64).generate(&mut rng);
            assert_eq!(exact.len(), 64);
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::from_name("combo");
        let s = (0u8..4).prop_flat_map(|n| (Just(n), 0u8..(n + 1)));
        for _ in 0..500 {
            let (n, m) = s.generate(&mut rng);
            assert!(m <= n);
        }
        let one = prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|x| x)];
        for _ in 0..100 {
            let v = one.generate(&mut rng);
            assert!(v == 1 || v == 2 || v == 5 || v == 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_binds_patterns((a, b) in (0u32..10, 0u32..10), flag in any::<bool>()) {
            prop_assert!(a < 10 && b < 10);
            if flag {
                prop_assert_eq!(a + b, b + a);
            }
        }
    }
}
