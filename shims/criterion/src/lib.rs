//! Offline stand-in for `criterion`.
//!
//! With no crates.io access, this shim keeps the workspace's benchmark
//! targets compiling and runnable: each `bench_function` closure is timed
//! iteration by iteration over `sample_size` iterations (after one warm-up
//! call), and the mean wall-clock time per iteration is printed with the
//! median and the interquartile range beside it, so that a difference can
//! be told from the spread. There is no outlier detection or HTML report —
//! it is a smoke-capable harness, not a measurement instrument.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work. Forwards to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Set how many timed iterations each benchmark runs.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<N: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        f: F,
    ) -> &mut Self {
        run_one(name.as_ref(), self.sample_size, f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group<N: AsRef<str>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.as_ref().to_string(),
            sample_size,
        }
    }

    /// Print the closing summary (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set how many timed iterations each benchmark in the group runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<N: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, name.as_ref()),
            self.sample_size,
            f,
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    sample_size: usize,
    /// The time of each timed iteration.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` over the configured number of iterations, each on
    /// its own.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine()); // warm-up, untimed
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// `(mean, q1, median, q3)` of `samples`, sorted ascending; quartiles
/// interpolate linearly between neighbouring samples. All 0 when empty.
fn spread(samples: &[f64]) -> (f64, f64, f64, f64) {
    let Some(last) = samples.len().checked_sub(1) else {
        return (0.0, 0.0, 0.0, 0.0);
    };
    let quantile = |p: f64| {
        let at = p * last as f64;
        let (below, frac) = (at.floor() as usize, at.fract());
        let above = (below + 1).min(last);
        samples[below] + frac * (samples[above] - samples[below])
    };
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (mean, quantile(0.25), quantile(0.5), quantile(0.75))
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    let mut micros: Vec<f64> = b.samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    micros.sort_by(f64::total_cmp);
    let (mean, q1, median, q3) = spread(&micros);
    println!(
        "bench {name:<40} {mean:>12.3} µs/iter  (median {median:.3}, q1-q3 {q1:.3}-{q3:.3}; {} iters)",
        micros.len()
    );
}

/// Declare a group of benchmark functions, in either criterion form:
/// `criterion_group!(name, target, ...)` or
/// `criterion_group! { name = n; config = expr; targets = t, ... }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(c: &mut Criterion) {
        let mut g = c.benchmark_group("probe");
        g.sample_size(3);
        let mut count = 0u64;
        g.bench_function("count", |b| b.iter(|| count += 1));
        g.finish();
        // warm-up + 3 timed iterations
        assert_eq!(count, 4);
    }

    #[test]
    fn spread_reads_mean_and_quartiles_of_sorted_samples() {
        assert_eq!(spread(&[]), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(spread(&[4.0]), (4.0, 4.0, 4.0, 4.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), (3.0, 2.0, 3.0, 4.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0, 10.0]), (4.0, 1.75, 2.5, 4.75));
    }

    #[test]
    fn group_runs_closures() {
        let mut c = Criterion::default().sample_size(5);
        probe(&mut c);
        c.bench_function("top", |b| b.iter(|| black_box(1 + 1)));
    }
}
