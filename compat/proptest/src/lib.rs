//! Offline, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the property-testing surface its test suites use: the [`proptest!`]
//! macro, [`Strategy`] with [`Strategy::prop_map`], integer-range and
//! [`any`] strategies, [`collection::vec`], [`prop_oneof!`], [`Just`], and
//! the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **Deterministic**: each test derives its RNG seed from the test name
//!   and case index, so a failure reproduces on every run and in CI.
//! * **No shrinking**: the failing input is printed verbatim instead.
//!   Shrunk counterexamples from the upstream engine are preserved by
//!   committing them as explicit regression tests (see
//!   `tests/crash_consistency.rs`), which this crate cannot re-derive from
//!   `proptest-regressions` seed hashes.
//! * `.proptest-regressions` files are ignored (their `cc` lines are RNG
//!   seeds of the upstream engine).

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic generator used by strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed ^ 0x5851_f42d_4c95_7f2d }
    }

    /// Derives the deterministic per-case generator for `test`/`case`.
    pub fn for_case(test: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Self::new(h.wrapping_add(u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot draw from an empty range");
        self.next_u64() % n
    }
}

/// Error carried by a failing property: the formatted assertion message.
pub type TestCaseError = String;

/// Result type of one property-test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of test inputs.
///
/// Unlike upstream proptest there is no value tree / shrinking: a strategy
/// simply samples a value from a [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Samples one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Weighted union of same-valued strategies (the [`prop_oneof!`] backend).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Creates a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! requires a positive total weight");
        Self { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut roll = rng.below(u64::from(self.total)) as u32;
        for (w, s) in &self.arms {
            if roll < *w {
                return s.generate(rng);
            }
            roll -= w;
        }
        unreachable!("weights sum to total")
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy: an arbitrary value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case loop driving each property.

    use super::{Strategy, TestCaseResult, TestRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Subset of upstream `ProptestConfig`: the number of cases to run.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Runs `body` against `cases` deterministic samples of `strategy`,
    /// panicking with the offending input on the first failure.
    pub fn run<S: Strategy>(
        name: &str,
        config: &Config,
        strategy: &S,
        body: impl Fn(S::Value) -> TestCaseResult,
    ) {
        for case in 0..config.cases {
            let mut rng = TestRng::for_case(name, case);
            let value = strategy.generate(&mut rng);
            let repr = format!("{value:?}");
            let outcome = catch_unwind(AssertUnwindSafe(|| body(value)));
            let failure = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(msg)) => Some(msg),
                Err(panic) => Some(
                    panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "test panicked".to_string()),
                ),
            };
            if let Some(msg) = failure {
                panic!(
                    "property '{name}' failed at case {case}/{total}:\n  {msg}\n  input: {repr}",
                    total = config.cases,
                );
            }
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude::*`.

    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, Strategy,
    };
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Asserts two values are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `left != right`\n  both: {:?}",
            l
        );
    }};
}

/// Weighted choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!($crate::test_runner::Config::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let strategy = ($($strategy,)+);
            $crate::test_runner::run(
                stringify!($name),
                &config,
                &strategy,
                |($($arg,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn generation_is_deterministic() {
        use crate::{Strategy, TestRng};
        let s = crate::collection::vec(0u64..100, 1..10);
        let a = s.generate(&mut TestRng::for_case("t", 3));
        let b = s.generate(&mut TestRng::for_case("t", 3));
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_respect_bounds() {
        use crate::{Strategy, TestRng};
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (5u64..10).generate(&mut rng);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    fn union_picks_every_positive_arm() {
        use crate::{Strategy, TestRng};
        let s = prop_oneof![1 => Just(1u8), 1 => Just(2u8)];
        let mut rng = TestRng::new(9);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_smoke(xs in crate::collection::vec(any::<u8>(), 1..20), flag in any::<bool>()) {
            prop_assert!(!xs.is_empty());
            prop_assert_eq!(xs.len(), xs.len());
            let _ = flag;
        }
    }

    #[test]
    #[should_panic(expected = "property 'failing' failed")]
    fn failures_report_input() {
        use crate::test_runner::{run, Config};
        run("failing", &Config::with_cases(5), &(0u64..10), |v| {
            prop_assert!(v > 100, "v was {v}");
            Ok(())
        });
    }
}
