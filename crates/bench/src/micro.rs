//! A dependency-free micro-benchmark harness (Criterion is unavailable in
//! the offline build environment).
//!
//! Each benchmark runs a warm-up call followed by a fixed number of timed
//! samples and prints the minimum / mean / maximum wall-clock time per
//! sample. No statistics beyond that: the numbers are for spotting
//! order-of-magnitude regressions, not microsecond-level noise.
//!
//! # Examples
//!
//! ```
//! use provp_bench::micro::{black_box, Group};
//! let mut g = Group::new("demo").samples(3);
//! g.bench("sum", || black_box((0..1000u64).sum::<u64>()));
//! ```

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// A named group of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct Group {
    name: String,
    samples: u32,
    per: Option<(u64, &'static str)>,
}

impl Group {
    /// A group with the default sample count (10).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            samples: 10,
            per: None,
        }
    }

    /// Overrides the number of timed samples.
    #[must_use]
    pub fn samples(mut self, samples: u32) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
        self
    }

    /// Also prints the mean time per item, for calls that each process
    /// `items` units (e.g. `per(trace.len() as u64, "event")`).
    #[must_use]
    pub fn per(mut self, items: u64, unit: &'static str) -> Self {
        assert!(items > 0, "need at least one item per call");
        self.per = Some((items, unit));
        self
    }

    /// Times `f` and prints `group/id: min … mean … max` per sample.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        black_box(f()); // warm-up
        let mut times = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            times.push(start.elapsed());
        }
        let min = *times.iter().min().expect("samples > 0");
        let max = *times.iter().max().expect("samples > 0");
        let mean = times.iter().sum::<Duration>() / self.samples;
        let per = self.per.map_or(String::new(), |(items, unit)| {
            format!(" | {:.1} ns/{unit}", mean.as_nanos() as f64 / items as f64)
        });
        println!(
            "{}/{id}: min {} | mean {} | max {}{per} ({} samples)",
            self.name,
            fmt(min),
            fmt(mean),
            fmt(max),
            self.samples
        );
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_prints() {
        let mut g = Group::new("test").samples(2);
        let mut calls = 0u32;
        g.bench("noop", || calls += 1);
        assert_eq!(calls, 3); // warm-up + 2 samples
        let mut g = Group::new("test").samples(1).per(100, "event");
        g.bench("noop", || calls += 1);
        assert_eq!(calls, 5);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt(Duration::from_micros(1500)), "1.500 ms");
        assert_eq!(fmt(Duration::from_secs(2)), "2.000 s");
    }
}
