//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators and macros this repository's
//! property tests use, driven by a seeded SplitMix64 generator. Each
//! `proptest!` test runs a fixed number of cases; case seeds derive
//! deterministically from the test name, so failures reproduce exactly.
//! Shrinking is not implemented — a failing case reports its inputs via
//! the panic message of the assertion that tripped.

use std::ops::Range;

/// Deterministic generator (SplitMix64), self-contained so the shim has no
/// dependencies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A value generator. `generate` must be deterministic in the rng stream.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
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

/// `strategy.prop_map(f)`.
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for MapStrategy<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `any::<T>()` marker.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Types `any::<T>()` can produce.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
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

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Uniform choice among boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    pub options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.options.is_empty(), "empty prop_oneof");
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Size specification for [`vec()`]: an exact length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
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

    impl From<Range<i32>> for SizeRange {
        fn from(r: Range<i32>) -> Self {
            Self::from(r.start as usize..r.end as usize)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, size)` — a vector of `size` elements.
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
            let n = self.size.lo + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Cases per property; 64 keeps the suite fast while covering the small
/// state spaces these properties quantify over.
pub const CASES: u64 = 64;

/// Run `f` for [`CASES`] seeds derived from `name`. Used by `proptest!`.
pub fn run_cases(name: &str, mut f: impl FnMut(&mut TestRng)) {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    for case in 0..CASES {
        let mut rng = TestRng::new(h ^ (case.wrapping_mul(0x9E3779B97F4A7C15)));
        f(&mut rng);
    }
}

/// Define property tests. Mirrors proptest's surface:
/// `proptest! { #[test] fn name(x in strategy, ...) { body } ... }`.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                $body
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union {
            options: vec![$(Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>),+],
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

pub mod prelude {
    pub use crate::collection::vec;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        /// The shim's own smoke test: ranges respect bounds, vec respects
        /// sizes, oneof picks only listed options.
        #[test]
        fn shim_generates_within_bounds(
            x in 3u8..10,
            v in vec(0u64..5, 0..20),
            d in prop_oneof![Just(1i64), 10i64..20, any::<i64>().prop_map(|v| v & 3)],
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&e| e < 5));
            prop_assert!(d == 1 || (10i64..20).contains(&d) || (0i64..4).contains(&d));
        }

        #[test]
        fn exact_size_vec(v in vec(any::<u32>(), 4)) {
            prop_assert_eq!(v.len(), 4);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = Vec::new();
        super::run_cases("x", |rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        super::run_cases("x", |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }
}
