//! Vendored, dependency-free subset of the `proptest` API.
//!
//! Provides exactly what this workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, integer-range and
//! tuple strategies, [`any`], [`Just`], weighted [`prop_oneof!`] unions,
//! [`collection::vec`], and `prop_assert*` macros.
//!
//! Differences from upstream: cases are generated from a fixed deterministic
//! seed (plus the case index), and failing cases are reported by panic
//! without shrinking. That trades minimal counterexamples for a zero-dep
//! build; the fixed seed keeps CI runs reproducible, and a failure names
//! its test and case index, so `TestRng::deterministic(case)` regenerates
//! the failing inputs.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng as _, RngCore, SeedableRng};
use std::cell::Cell;
use std::ops::{Range, RangeInclusive};

/// The deterministic generator driving value generation for one test.
#[derive(Clone, Debug)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// A deterministic generator for case number `case` of a test.
    pub fn deterministic(case: u64) -> Self {
        TestRng(SmallRng::seed_from_u64(
            0xC0FF_EE00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Raw access for strategies.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.0
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

thread_local! {
    static LAST_FAILURE: Cell<Option<(&'static str, u64)>> = const { Cell::new(None) };
}

/// Reports the running case of a [`proptest!`] test if it fails: dropped
/// while its thread panics, the guard prints the test name and case index
/// (and records them for [`last_failure`]). Created by the macro for
/// every case.
#[doc(hidden)]
pub struct CaseGuard {
    name: &'static str,
    case: u64,
}

impl CaseGuard {
    /// A guard for case `case` of test `name`.
    pub fn new(name: &'static str, case: u64) -> Self {
        CaseGuard { name, case }
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: `{}` failed at case {}; TestRng::deterministic({}) regenerates its inputs",
                self.name, self.case, self.case
            );
            LAST_FAILURE.with(|f| f.set(Some((self.name, self.case))));
        }
    }
}

/// `(test name, case index)` of the last [`proptest!`] case that failed on
/// this thread.
#[doc(hidden)]
pub fn last_failure() -> Option<(&'static str, u64)> {
    LAST_FAILURE.with(Cell::get)
}

/// Generation configuration; only `cases` is honoured by this shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each `#[test]` runs.
    pub cases: u32,
    /// Accepted for source compatibility; unused (no shrinking).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
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

/// Always yields a clone of the wrapped value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform values over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    ArbitraryStrategy(std::marker::PhantomData)
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy produced by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct ArbitraryStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty => $m:ident),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.$m() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                    u64 => next_u64, usize => next_u64,
                    i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Weighted union of boxed strategies — the engine behind [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        let total: u64 = options.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! requires a positive total weight");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut roll = rng.rng().random_range(0..self.total);
        for (w, s) in &self.options {
            let w = u64::from(*w);
            if roll < w {
                return s.generate(rng);
            }
            roll -= w;
        }
        unreachable!("weights summed incorrectly")
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.rng().random_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),)+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),)+
        ])
    };
}

/// Declares property tests: each `fn` runs `config.cases` deterministic
/// cases with its arguments drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($config:expr);
        $(
            // `#[test]` itself is captured as one of the metas (matching it
            // literally next to `$meta:meta` would be ambiguous), so the
            // source's own `#[test]` attribute is re-emitted verbatim.
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..u64::from(config.cases) {
                    let _guard = $crate::CaseGuard::new(stringify!($name), case);
                    let mut rng = $crate::TestRng::deterministic(case);
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic(0);
        for _ in 0..100 {
            let (a, b) = (0u64..5, 10usize..=12).generate(&mut rng);
            assert!(a < 5 && (10..=12).contains(&b));
        }
    }

    #[test]
    fn oneof_covers_all_branches() {
        let s = prop_oneof![4 => 0u64..8, 1 => Just(u64::MAX)];
        let mut rng = crate::TestRng::deterministic(1);
        let mut saw_max = false;
        let mut saw_small = false;
        for _ in 0..200 {
            match s.generate(&mut rng) {
                u64::MAX => saw_max = true,
                v if v < 8 => saw_small = true,
                v => panic!("out of domain: {v}"),
            }
        }
        assert!(saw_max && saw_small);
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let s = crate::collection::vec(0u8..3, 2..5);
        let mut rng = crate::TestRng::deterministic(2);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Fails on every multiple of five; driven by the test below, not
        /// run on its own.
        fn fails_on_multiples_of_five(x in any::<u64>()) {
            prop_assert!(!x.is_multiple_of(5), "{x} is a multiple of five");
        }
    }

    #[test]
    fn a_failing_case_reports_its_index() {
        let caught = std::panic::catch_unwind(fails_on_multiples_of_five);
        assert!(caught.is_err(), "some case must fail");
        let expected = (0..64)
            .find(|&case| {
                any::<u64>()
                    .generate(&mut crate::TestRng::deterministic(case))
                    .is_multiple_of(5)
            })
            .expect("a multiple of five within 64 cases");
        assert_eq!(
            crate::last_failure(),
            Some(("fails_on_multiples_of_five", expected))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The macro itself: bindings, map, and assertions.
        #[test]
        fn macro_end_to_end(x in 0u64..100, flag in any::<bool>()) {
            prop_assert!(x < 100);
            let y = (0u64..10).prop_map(|v| v * 2).generate(&mut crate::TestRng::deterministic(x));
            prop_assert!(y % 2 == 0, "flag was {flag}");
        }
    }
}
