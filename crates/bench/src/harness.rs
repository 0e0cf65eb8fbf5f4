//! Minimal std-only measurement harness for the `benches/` targets.
//!
//! The workspace builds offline, so Criterion is unavailable; this
//! module provides the small subset the bench files need — named
//! measurements with warmup, repeated samples and median/mean reporting.
//! Sample counts adapt to the cost of one iteration so quick stages get
//! tight statistics while full flows stay affordable.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured result.
#[derive(Clone, PartialEq, Debug)]
pub struct Sample {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Median seconds per iteration.
    pub median: f64,
    /// Mean seconds per iteration.
    pub mean: f64,
    /// Iterations measured.
    pub iters: usize,
}

/// A named group of measurements, printed as they complete.
pub struct Harness {
    /// Target wall-clock budget per benchmark.
    budget: Duration,
    results: Vec<Sample>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// Creates a harness with the default per-benchmark budget (~3 s,
    /// override with the `BENCH_BUDGET_SECS` environment variable).
    pub fn new() -> Harness {
        let budget = std::env::var("BENCH_BUDGET_SECS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(3.0);
        Harness {
            budget: Duration::from_secs_f64(budget.max(0.1)),
            results: Vec::new(),
        }
    }

    /// Measures `f`, printing a one-line summary.
    #[expect(
        clippy::print_stdout,
        reason = "the harness owns the bench terminal output"
    )]
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Warmup + calibration: one untimed run tells us the scale.
        let t0 = Instant::now();
        black_box(f());
        let one = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (self.budget.as_secs_f64() / one.as_secs_f64()).clamp(3.0, 10_000.0) as usize;
        let mut times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            times.push(t.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "{name:<40} median {:>12} mean {:>12} ({iters} iters)",
            pretty(median),
            pretty(mean),
        );
        self.results.push(Sample {
            name: name.to_string(),
            median,
            mean,
            iters,
        });
    }

    /// Like [`Harness::bench`] but with a per-iteration untimed setup
    /// (Criterion's `iter_batched`).
    #[expect(
        clippy::print_stdout,
        reason = "the harness owns the bench terminal output"
    )]
    pub fn bench_batched<S, T, Setup, F>(&mut self, name: &str, mut setup: Setup, mut f: F)
    where
        Setup: FnMut() -> S,
        F: FnMut(S) -> T,
    {
        // Calibrate on one run.
        let input = setup();
        let t0 = Instant::now();
        black_box(f(input));
        let one = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (self.budget.as_secs_f64() / one.as_secs_f64()).clamp(3.0, 10_000.0) as usize;
        let mut times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let input = setup();
            let t = Instant::now();
            black_box(f(input));
            times.push(t.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "{name:<40} median {:>12} mean {:>12} ({iters} iters)",
            pretty(median),
            pretty(mean),
        );
        self.results.push(Sample {
            name: name.to_string(),
            median,
            mean,
            iters,
        });
    }

    /// All samples measured so far.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }
}

/// Formats seconds with an adaptive unit.
fn pretty(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_results() {
        std::env::set_var("BENCH_BUDGET_SECS", "0.1");
        let mut h = Harness::new();
        let mut n = 0u64;
        h.bench("test/sum", || {
            n += 1;
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(h.results().len(), 1);
        let s = &h.results()[0];
        assert!(s.median >= 0.0 && s.mean >= 0.0);
        assert!(s.iters >= 3);
        assert!(n as usize >= s.iters);
    }

    #[test]
    fn pretty_units() {
        assert!(pretty(2.0).ends_with(" s"));
        assert!(pretty(2e-3).ends_with(" ms"));
        assert!(pretty(2e-6).ends_with(" µs"));
        assert!(pretty(2e-9).ends_with(" ns"));
    }
}
