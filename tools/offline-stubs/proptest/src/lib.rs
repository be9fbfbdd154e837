//! std-only stand-in for the `proptest` crate: random sampling of the
//! strategy subset this repository's tests use, a fixed number of cases
//! per test, **no shrinking** — a failure prints the case number and the
//! seed is the test's name, so it repeats. Only reached through
//! `tools/offline-test.sh`.

pub mod test_runner {
    /// SplitMix64, seeded from the test's name so every run draws the
    /// same cases.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn from_name(name: &str) -> TestRng {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// What a failing `prop_assert!` returns from the test body.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::Range;
    use std::sync::Arc;

    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// `depth` levels of `recurse` stacked on the leaf strategy, each
        /// level choosing between going deeper and stopping.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut cur = self.boxed();
            for _ in 0..depth {
                let deeper = recurse(cur.clone()).boxed();
                cur = Union::new(vec![(2, cur), (1, deeper)]).boxed();
            }
            cur
        }
    }

    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between strategies (what `prop_oneof!` builds).
    pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

    impl<T> Union<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(arms.iter().any(|(w, _)| *w > 0), "prop_oneof! needs a weighted arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.0.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.0 {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("pick is below the total weight")
        }
    }

    macro_rules! int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let v = self.start as f64 + rng.unit() * (self.end as f64 - self.start as f64);
                    (v as $t).clamp(self.start, self.end)
                }
            }
        )*};
    }
    float_range!(f32, f64);

    /// `"[class]{m,n}"` (or a bare `"[class]"` = one char): strings of
    /// `m..=n` characters drawn from the class.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let (class, lo, hi) = parse_pattern(self);
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len).map(|_| class[rng.below(class.len() as u64) as usize]).collect()
        }
    }

    fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
        let parsed =
            pat.strip_prefix('[').and_then(|rest| rest.split_once(']')).and_then(|(body, tail)| {
                if tail.is_empty() {
                    return Some((body, 1, 1));
                }
                let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
                let (lo, hi) = counts.split_once(',').unwrap_or((counts, counts));
                Some((body, lo.trim().parse().ok()?, hi.trim().parse().ok()?))
            });
        let Some((body, lo, hi)) = parsed else { panic!("unsupported regex strategy {pat:?}") };
        let chars: Vec<char> = body.chars().collect();
        let mut class = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                class.extend(chars[i]..=chars[i + 2]);
                i += 3;
            } else {
                class.push(chars[i]);
                i += 1;
            }
        }
        assert!(!class.is_empty() && lo <= hi, "unsupported regex strategy {pat:?}");
        (class, lo, hi)
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                /// One draw in eight is an edge value, as real proptest
                /// biases towards them.
                fn arbitrary(rng: &mut TestRng) -> $t {
                    match rng.below(32) {
                        0 => <$t>::MIN,
                        1 => <$t>::MAX,
                        2 => 0,
                        3 => 1,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            (rng.unit() - 0.5) * 2.0e18
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// `prop::collection::vec(..)` as the real prelude spells it.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        $crate::prop_assert_eq!($a, $b, "values differ")
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            a,
            b
        );
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            let strategies = ($($strat,)+);
            for case in 0..cfg.cases {
                let ($($pat,)+) = $crate::strategy::Strategy::sample(&strategies, &mut rng);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("{} failed at case {case}: {}", stringify!($name), e.0);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}
