//! Typed counters, gauges and histograms under static string keys.
//!
//! Handles are cheap clones of `Arc`ed cells in the global
//! [`crate::Registry`]; look one up once per phase (never per simulated
//! instruction) and update it with relaxed atomics.
//!
//! Counters **saturate** at `u64::MAX` instead of wrapping: a counter
//! that has been incremented past the end reads as `u64::MAX`, which is
//! unambiguous in an exported manifest, whereas a wrapped counter would
//! silently masquerade as a small value.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vp_stats::DecileHistogram;

use crate::registry::global;

/// A monotonic, saturating counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Publishes an externally-tracked monotone total, raising the
    /// counter to `v` if `v` is larger and never lowering it.
    ///
    /// Use this when a subsystem keeps its own internally-consistent
    /// totals (e.g. the trace store's stats block, snapshotted under one
    /// lock) and republishing must be *idempotent*: publishing the same
    /// totals twice never double counts, which `add` would do.
    pub fn record_absolute(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge with a monotonic-max helper.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A decile histogram over percentage values in `[0, 100]`, backed by
/// [`vp_stats::DecileHistogram`] (the paper's ten intervals).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<DecileHistogram>>);

impl Histogram {
    /// Records one percentage sample (clamped to `[0, 100]`).
    pub fn record(&self, pct: f64) {
        self.0.lock().expect("histogram poisoned").add(pct);
    }

    /// A copy of the current bins.
    #[must_use]
    pub fn get(&self) -> DecileHistogram {
        *self.0.lock().expect("histogram poisoned")
    }
}

/// The global counter named `key` (registered on first use).
#[must_use]
pub fn counter(key: &'static str) -> Counter {
    Counter(global().counter_cell(key))
}

/// The global gauge named `key`.
#[must_use]
pub fn gauge(key: &'static str) -> Gauge {
    Gauge(global().gauge_cell(key))
}

/// The global histogram named `key`.
#[must_use]
pub fn histogram(key: &'static str) -> Histogram {
    Histogram(global().histogram_cell(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_handles() {
        counter("metrics-test-acc").add(2);
        counter("metrics-test-acc").inc();
        assert_eq!(counter("metrics-test-acc").get(), 3);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = counter("metrics-test-sat");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX, "stays pinned at the ceiling");
    }

    #[test]
    fn record_absolute_is_idempotent_and_monotone() {
        let c = counter("metrics-test-abs");
        c.record_absolute(10);
        c.record_absolute(10);
        assert_eq!(c.get(), 10, "republishing the same total is a no-op");
        c.record_absolute(7);
        assert_eq!(c.get(), 10, "never lowers");
        c.record_absolute(25);
        assert_eq!(c.get(), 25);
    }

    #[test]
    fn gauge_set_and_peak() {
        let g = gauge("metrics-test-gauge");
        g.set(10);
        g.set_max(5);
        assert_eq!(g.get(), 10, "set_max never lowers");
        g.set_max(20);
        assert_eq!(g.get(), 20);
        g.set(1);
        assert_eq!(g.get(), 1, "set overwrites");
    }

    #[test]
    fn histogram_uses_paper_bins() {
        let h = histogram("metrics-test-hist");
        h.record(5.0);
        h.record(95.0);
        let bins = h.get();
        assert_eq!(bins.count(0), 1);
        assert_eq!(bins.count(9), 1);
    }

    #[test]
    fn concurrent_counter_adds_are_lossless() {
        let c = counter("metrics-test-conc");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter("metrics-test-conc").inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
