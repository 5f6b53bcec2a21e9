//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this shim implements
//! the slice of the proptest API used by the workspace's property tests:
//! range and tuple strategies, [`Strategy::prop_map`],
//! `prop::collection::vec`, the [`proptest!`] macro with an optional
//! `#![proptest_config(...)]` header, and the `prop_assert*` macros.
//!
//! Differences from real proptest: no shrinking (a failing case reports its
//! inputs via `Debug` where available but is not minimized), and the RNG
//! seed is a deterministic function of the test-function name, so failures
//! always reproduce and CI replays the same cases every run. To explore
//! instead, set `PROPTEST_SEED` (mixed into every test's name-derived
//! seed) and `PROPTEST_CASES` (overrides every test's case count); a
//! failing property prints the pair that replays it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration; only `cases` is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A failed `prop_assert*` inside a property body.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Source of random values for strategies (wraps the deterministic
/// [`StdRng`] from the rand shim).
pub struct TestRunner {
    rng: StdRng,
    /// The `PROPTEST_SEED` this runner was seeded with, if any.
    seed: Option<u64>,
}

/// An environment override as an unsigned integer. A value that does not
/// parse is a usage error, never "unset": a soak that silently ran the
/// fixed cases would look green.
fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => panic!("{var}={raw:?} is not an unsigned integer"),
    }
}

impl TestRunner {
    /// The runner of one [`proptest!`] function: seeded from its name,
    /// and from `PROPTEST_SEED` when that is set.
    pub fn from_env(test_name: &str) -> Self {
        Self::seeded(test_name, env_u64("PROPTEST_SEED"))
    }

    /// Runner seeded deterministically from a test-identifying string,
    /// with `seed` mixed in after the name: `None` is the fixed stream CI
    /// runs, and one seed gives every test a stream of its own.
    pub fn seeded(test_name: &str, seed: Option<u64>) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let extra = seed.map(u64::to_le_bytes);
        for b in test_name.as_bytes().iter().chain(extra.iter().flatten()) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            rng: StdRng::seed_from_u64(h),
            seed,
        }
    }

    /// How many cases to run: `PROPTEST_CASES`, else the test's own count.
    pub fn cases(&self, configured: u32) -> u32 {
        env_u64("PROPTEST_CASES").map_or(configured, |c| c.min(u32::MAX as u64) as u32)
    }

    /// The environment that replays a run of `cases` cases of this runner.
    pub fn replay(&self, cases: u32) -> String {
        match self.seed {
            Some(seed) => format!("PROPTEST_SEED={seed} PROPTEST_CASES={cases}"),
            None => format!("PROPTEST_CASES={cases} with PROPTEST_SEED unset (name-derived seed)"),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A recipe for generating random values of type `Value`.
pub trait Strategy {
    /// The type this strategy produces.
    type Value;

    /// Draw one value.
    fn new_value(&self, runner: &mut TestRunner) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn new_value(&self, runner: &mut TestRunner) -> U {
        (self.f)(self.inner.new_value(runner))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, runner: &mut TestRunner) -> $t {
                use rand::Rng;
                runner.rng().gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, runner: &mut TestRunner) -> $t {
                use rand::Rng;
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.new_value(runner),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Namespace mirror of `proptest::prop`.
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use super::super::{Strategy, TestRunner};
        use rand::Rng;
        use std::ops::Range;

        /// Strategy for `Vec`s whose length is drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Generate vectors of values from `element` with length in `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
                let len = runner.rng().gen_range(self.size.clone());
                (0..len).map(|_| self.element.new_value(runner)).collect()
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Run properties against many random inputs. Mirrors proptest's macro of
/// the same name for the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..10, v in prop::collection::vec(0i64..5, 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config); $($rest)*);
    };
    (@run ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut runner = $crate::TestRunner::from_env(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let cases = runner.cases(config.cases);
            for case in 0..cases {
                $(let $arg = $crate::Strategy::new_value(&$strategy, &mut runner);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} for `{}` failed: {}\nreplay: {}",
                        case + 1,
                        cases,
                        stringify!($name),
                        e,
                        runner.replay(cases)
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{} (left: `{:?}`, right: `{:?}`)",
            format!($($fmt)*), l, r
        );
    }};
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 2u32..9, y in -4i64..=4, f in 0.25f64..0.75) {
            prop_assert!((2..9).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        #[should_panic(expected = "replay: PROPTEST_")]
        fn a_failure_says_how_to_replay_it(x in 0u32..10) {
            prop_assert!(x > 10);
        }

        #[test]
        fn map_and_vec(v in prop::collection::vec((0u32..10, 0u32..10), 1..5)) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            for &(a, b) in &v {
                prop_assert!(a < 10 && b < 10);
            }
        }
    }

    /// `PROPTEST_SEED` moves every test to a new stream that is again a
    /// function of (name, seed) alone; unset, the stream is the fixed one.
    #[test]
    fn a_seed_override_is_its_own_deterministic_stream() {
        let strat = (0u64..1_000_000, 0u64..1_000_000);
        let draw = |name: &str, seed: Option<u64>| {
            let mut r = crate::TestRunner::seeded(name, seed);
            (0..8).map(|_| strat.new_value(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw("t", Some(7)), draw("t", Some(7)));
        assert_ne!(draw("t", Some(7)), draw("t", None));
        assert_ne!(draw("t", Some(7)), draw("t", Some(8)));
        assert_ne!(draw("t", Some(7)), draw("u", Some(7)));
        let replay = crate::TestRunner::seeded("t", Some(7)).replay(64);
        assert_eq!(replay, "PROPTEST_SEED=7 PROPTEST_CASES=64");
    }

    #[test]
    fn deterministic_across_runs() {
        let strat = (0u64..1_000_000, 0u64..1_000_000);
        let mut a = crate::TestRunner::seeded("t", None);
        let mut b = crate::TestRunner::seeded("t", None);
        for _ in 0..16 {
            assert_eq!(strat.new_value(&mut a), strat.new_value(&mut b));
        }
    }
}
