//! Offline in-tree stub of the `criterion` benchmarking API surface this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so `cargo bench`
//! targets link against this minimal re-implementation instead of the real
//! Criterion. It keeps the same call shapes (`criterion_group!`,
//! `criterion_main!`, `Criterion::bench_function`, `benchmark_group`,
//! `Bencher::iter`/`iter_batched`, [`black_box`]) and performs honest
//! wall-clock measurement — warm-up plus a configurable number of sample
//! batches, reporting the min, median and max per-iteration time, so every
//! figure carries its run-to-run spread — but none of the
//! statistical machinery, HTML reports, or baseline storage of the real
//! crate. Numbers printed by this stub are comparable run-to-run on the
//! same machine, which is all the repo's BENCH_*.json trajectory needs.
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimizer from deleting a computation
/// whose result is otherwise unused.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost. The stub runs every variant the
/// same way (setup excluded from timing, one routine call per setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One routine invocation per batch.
    PerIteration,
}

/// One timing measurement for a named benchmark.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full benchmark id, `group/function` when inside a group.
    pub id: String,
    /// Fastest per-iteration time across sample batches.
    pub min: Duration,
    /// Median per-iteration time across sample batches.
    pub median: Duration,
    /// Slowest per-iteration time across sample batches.
    pub max: Duration,
    /// Total iterations measured.
    pub iterations: u64,
}

/// The timing driver handed to `bench_function` closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_count: usize,
    iters_per_sample: u64,
}

impl Bencher<'_> {
    /// Times `routine`, called `iters_per_sample` times per sample batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed / self.iters_per_sample as u32);
        }
    }

    /// Times `routine` on a fresh `setup()` value per invocation; setup time
    /// is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_count {
            let mut total = Duration::ZERO;
            for _ in 0..self.iters_per_sample {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed();
            }
            self.samples.push(total / self.iters_per_sample as u32);
        }
    }
}

/// Subset of `criterion::Criterion`: configures and runs benchmarks,
/// printing one line per benchmark.
pub struct Criterion {
    sample_count: usize,
    iters_per_sample: u64,
    /// All samples recorded so far (exposed so harness code can persist
    /// them, e.g. into a BENCH_*.json file).
    pub results: Vec<Sample>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_count: 10,
            iters_per_sample: 3,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed sample batches per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_count = n.max(2);
        self
    }

    /// Accepted for compatibility; the stub has no global time budget.
    #[must_use]
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Accepted for compatibility; the stub's warm-up is fixed.
    #[must_use]
    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    fn run_one(&mut self, id: String, f: &mut dyn FnMut(&mut Bencher<'_>)) {
        let mut samples = Vec::with_capacity(self.sample_count);
        // One untimed warm-up pass so cold caches do not dominate.
        {
            let mut warmup = Vec::with_capacity(1);
            let mut bencher = Bencher {
                samples: &mut warmup,
                sample_count: 1,
                iters_per_sample: 1,
            };
            f(&mut bencher);
        }
        let mut bencher = Bencher {
            samples: &mut samples,
            sample_count: self.sample_count,
            iters_per_sample: self.iters_per_sample,
        };
        f(&mut bencher);
        samples.sort_unstable();
        let at = |i: usize| samples.get(i).copied().unwrap_or(Duration::ZERO);
        let (min, median, max) = (
            at(0),
            at(samples.len() / 2),
            at(samples.len().saturating_sub(1)),
        );
        let iterations = (samples.len() as u64) * self.iters_per_sample;
        println!(
            "bench: {id:<48} median {median:>12.3?} [min {min:.3?}, max {max:.3?}] ({iterations} iters)"
        );
        self.results.push(Sample {
            id,
            min,
            median,
            max,
            iterations,
        });
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        self.run_one(name.to_string(), &mut f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// Subset of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one named benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        self.criterion.run_one(id, &mut f);
        self
    }

    /// Accepted for compatibility; the stub reports raw times only.
    pub fn throughput(&mut self, _elements: Throughput) -> &mut Self {
        self
    }

    /// Closes the group.
    pub fn finish(&mut self) {}
}

/// Subset of `criterion::Throughput` (accepted, not used by the stub).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Declares a benchmark group, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
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

/// Declares the bench entry point, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_sample() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.results.len(), 1);
        let sample = &c.results[0];
        assert_eq!(sample.id, "noop");
        assert!(sample.iterations > 0);
        assert!(sample.min <= sample.median && sample.median <= sample.max);
    }

    #[test]
    fn groups_prefix_ids() {
        let mut c = Criterion::default().sample_size(2);
        {
            let mut g = c.benchmark_group("g");
            g.bench_function("f", |b| {
                b.iter_batched(|| 21u64, |x| x * 2, BatchSize::SmallInput);
            });
            g.finish();
        }
        assert_eq!(c.results[0].id, "g/f");
    }
}
