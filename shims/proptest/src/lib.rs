//! Offline stand-in for `proptest`.
//!
//! The build environment has no crate-registry access, so the workspace
//! points `proptest` at this shim. It implements the subset of the proptest
//! API the workspace's property tests use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `Just`, `any`, range/tuple strategies,
//! `prop_map`/`prop_flat_map`, and `proptest::collection::vec` — with a
//! deterministic per-test RNG (seeded from the test name), so failures are
//! reproducible. Unlike real proptest there is no shrinking: a failing case
//! reports its inputs verbatim.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Number-of-elements range for [`vec()`]; end-exclusive.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: vectors with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi.saturating_sub(self.size.lo).max(1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The conventional `use proptest::prelude::*` import set.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (with its sampled inputs echoed) rather than panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            a, b, stringify!($a), stringify!($b)
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{:?}` != `{:?}`: {}",
                    a, b, format!($($fmt)*)
                ),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            a,
            b,
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, as in real
/// proptest) that samples and checks `cases` inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            let run_case = |seed: u64, label: &str| {
                let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                let values = ( $($crate::strategy::Strategy::sample(&$strat, &mut rng)),+ ,);
                let rendered = format!("{:?}", values);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        let ( $($pat),+ ,) = values;
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed: {}\n  inputs: {}\n  \
                         persist in proptest-regressions/ as: cc {} {}",
                        label, e, rendered, test_name, seed
                    );
                }
            };
            // Persisted historical failures replay before fresh sampling.
            for (line, seed) in $crate::test_runner::persisted_seeds(
                env!("CARGO_MANIFEST_DIR"), file!(), test_name
            ) {
                run_case(seed, &format!("regression (file line {line})"));
            }
            let mut rng = $crate::test_runner::TestRng::for_test(test_name);
            for case in 0..cfg.cases {
                let seed = rng.state();
                run_case(seed, &format!("case {}/{}", case + 1, cfg.cases));
                // Advance past this case's draws by replaying the sampling.
                $(let _ = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}
