//! Offline shim for `criterion`: wall-clock micro-benchmark timing with
//! criterion's macro/builder surface.
//!
//! Each `bench_function` warms up, then takes `sample_size` samples (each
//! a calibrated batch of iterations) and prints the **median ns/iter**
//! (medians are robust to scheduler noise on shared CI runners). Nothing
//! is written to disk: the repository's committed numbers come from its
//! `benchmark/` package.

use std::time::{Duration, Instant};

/// Benchmark runner configuration (builder style, like upstream).
#[derive(Debug, Clone)]
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up: Duration::from_millis(500),
            measurement: Duration::from_secs(2),
            sample_size: 20,
        }
    }
}

impl Criterion {
    /// Time spent running the closure before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Total time budget for measurement samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Number of samples (the median of which is reported).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: None,
        }
    }

    /// Benchmark a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_bench(&id, self.warm_up, self.measurement, self.sample_size, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = Some(n);
        self
    }

    /// Benchmark one function under `group/id`.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_bench(
            &full,
            self.criterion.warm_up,
            self.criterion.measurement,
            samples,
            f,
        );
        self
    }

    /// Finish the group (prints nothing extra; kept for API parity).
    pub fn finish(self) {}
}

/// Passed to the benchmarked closure; `iter` runs the workload.
pub struct Bencher {
    mode: BenchMode,
    /// Measured duration of the last `iter` call (batch total).
    elapsed: Duration,
    iters: u64,
}

enum BenchMode {
    /// Run once (calibration/warmup probing).
    Probe,
    /// Run a timed batch.
    Timed,
}

impl Bencher {
    /// Run `f` for the configured number of iterations, timing the batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        match self.mode {
            BenchMode::Probe => {
                let t0 = Instant::now();
                std::hint::black_box(f());
                self.elapsed = t0.elapsed();
            }
            BenchMode::Timed => {
                let t0 = Instant::now();
                for _ in 0..self.iters {
                    std::hint::black_box(f());
                }
                self.elapsed = t0.elapsed();
            }
        }
    }
}

/// Time `f` and print its median ns/iter under `id`; returns the median.
fn run_bench<F: FnMut(&mut Bencher)>(
    id: &str,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    mut f: F,
) -> f64 {
    // Warm-up + calibration: probe single-iteration cost until the warm-up
    // budget is spent.
    let mut probe = Bencher {
        mode: BenchMode::Probe,
        elapsed: Duration::ZERO,
        iters: 1,
    };
    let warm_start = Instant::now();
    let mut per_iter = Duration::from_nanos(1);
    let mut probes = 0u32;
    while warm_start.elapsed() < warm_up || probes < 3 {
        f(&mut probe);
        per_iter = probe.elapsed.max(Duration::from_nanos(1));
        probes += 1;
        if probes > 1_000_000 {
            break;
        }
    }

    // Size each sample so that sample_size samples fill the measurement
    // budget, with at least one iteration per sample.
    let budget_per_sample = measurement / sample_size as u32;
    let iters = (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).max(1) as u64;

    let mut samples_ns: Vec<f64> = Vec::with_capacity(sample_size);
    let mut bench = Bencher {
        mode: BenchMode::Timed,
        elapsed: Duration::ZERO,
        iters,
    };
    for _ in 0..sample_size {
        f(&mut bench);
        samples_ns.push(bench.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples_ns[samples_ns.len() / 2];

    println!(
        "  {id:<50} median {:>12}  ({iters} iters/sample, {sample_size} samples)",
        fmt_ns(median)
    );
    median
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Prevent the optimizer from discarding a value (upstream re-export).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Define a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Define the benchmark binary's `main`.
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

    #[test]
    fn measures_a_cheap_closure() {
        let median = run_bench(
            "unit/noop_sum",
            Duration::from_millis(5),
            Duration::from_millis(50),
            5,
            |b| b.iter(|| (0..100u64).sum::<u64>()),
        );
        assert!(median > 0.0 && median.is_finite());
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
    }
}
