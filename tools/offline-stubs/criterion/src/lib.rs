//! std-only stand-in for the `criterion` crate: runs each bench body
//! twice as a smoke test and prints the faster wall time. No statistics.
//! Only reached through `tools/offline-test.sh --benches`.

use std::time::Instant;

pub use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

#[derive(Default)]
pub struct Criterion;

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into() }
    }
}

pub struct BenchmarkGroup {
    name: String,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher { best_ns: u128::MAX };
        f(&mut b);
        println!("{}/{}: {} ns (best of 2)", self.name, id.into(), b.best_ns);
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    best_ns: u128,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..2 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.best_ns = self.best_ns.min(t.elapsed().as_nanos());
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
