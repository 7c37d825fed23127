//! Mid-run time-series sampling of the metric registry.
//!
//! End-of-run aggregates say *that* throughput regressed; a time series
//! says *when*. The [`Sampler`] runs one background thread that
//! periodically copies every counter and gauge out of a [`Registry`]
//! into a [`Sample`], producing the `samples` array embedded in the run
//! manifest.
//!
//! Sampling follows the same rules as the rest of the layer: it never
//! writes to stdout, never feeds back into experiment results, and is
//! bounded — at most [`Sampler::MAX_SAMPLES`] snapshots are retained
//! (the sampler stops recording and warns once beyond that, rather than
//! growing without limit).
//!
//! A *pre-sample hook* runs before every snapshot on the sampler
//! thread. The bench harness uses it to publish the trace store's
//! internally-consistent counter block (`TraceStore::stats` snapshots
//! all fields under one lock) into the registry right before the copy,
//! so invariants like `memory_hits + misses == requests` hold in every
//! sample, not just at end of run. Sample timestamps share the event
//! stream's monotonic epoch ([`crate::events::now_ns`]), so a sample at
//! `t_ms` lines up with the Chrome trace at the same instant.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::Registry;

/// One point-in-time copy of the counter/gauge registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// Milliseconds since the process event epoch (monotonic; shared
    /// with Chrome-trace timestamps).
    pub t_ms: f64,
    /// Every counter at sample time.
    pub counters: BTreeMap<String, u64>,
    /// Every gauge at sample time.
    pub gauges: BTreeMap<String, u64>,
}

/// Stop/wake plumbing shared by every background observation thread
/// (the [`Sampler`] here and the [`crate::profiler::Profiler`]): a
/// mutex-guarded stop flag plus a condvar so `stop()` interrupts the
/// inter-tick sleep immediately instead of waiting out the interval.
pub(crate) struct StopSignal {
    stop: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    pub(crate) fn new() -> Arc<StopSignal> {
        Arc::new(StopSignal {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        })
    }

    /// Requests shutdown and wakes any thread sleeping in [`wait`].
    ///
    /// [`wait`]: StopSignal::wait
    pub(crate) fn signal(&self) {
        if let Ok(mut stop) = self.stop.lock() {
            *stop = true;
        }
        self.wake.notify_all();
    }

    /// Sleeps for up to `interval` (woken early by [`signal`]); returns
    /// `true` once shutdown has been requested.
    ///
    /// [`signal`]: StopSignal::signal
    pub(crate) fn wait(&self, interval: Duration) -> bool {
        let stop = self.stop.lock().expect("stop flag poisoned");
        if *stop {
            return true;
        }
        let (stop, _) = self
            .wake
            .wait_timeout(stop, interval)
            .expect("stop flag poisoned");
        *stop
    }
}

/// A background registry sampler; collect the series with
/// [`Sampler::stop`].
pub struct Sampler {
    shared: Arc<StopSignal>,
    handle: Option<JoinHandle<Vec<Sample>>>,
}

impl Sampler {
    /// Upper bound on retained samples (~2 hours at 1 s cadence); the
    /// sampler stops recording beyond it so manifests stay bounded.
    pub const MAX_SAMPLES: usize = 7_200;

    /// Starts sampling `registry` every `interval`. One sample is taken
    /// immediately and one more at [`Sampler::stop`], so a series always
    /// holds at least two points.
    #[must_use]
    pub fn start(interval: Duration, registry: &'static Registry) -> Sampler {
        Sampler::start_with_hook(interval, registry, || {})
    }

    /// Like [`Sampler::start`], with `hook` invoked on the sampler
    /// thread immediately before every snapshot (see the module docs).
    #[must_use]
    pub fn start_with_hook(
        interval: Duration,
        registry: &'static Registry,
        hook: impl Fn() + Send + 'static,
    ) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        let shared = StopSignal::new();
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("vp-obs-sampler".to_owned())
            .spawn(move || run(&thread_shared, interval, registry, &hook))
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Stops the sampler, takes one final sample and returns the series.
    #[must_use]
    pub fn stop(mut self) -> Vec<Sample> {
        self.shared.signal();
        match self.handle.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // A dropped (not `stop`ped) sampler must not leave a thread
        // spinning; the series is discarded.
        self.shared.signal();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run(
    shared: &StopSignal,
    interval: Duration,
    registry: &Registry,
    hook: &(impl Fn() + ?Sized),
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut warned = false;
    loop {
        if samples.len() < Sampler::MAX_SAMPLES {
            samples.push(take_sample(registry, hook));
        } else {
            // Count every discard so the loss is visible in the manifest
            // and the --metrics-table footer, not only in the log.
            registry
                .counter_cell("sampler.discarded_samples")
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if !warned {
                warned = true;
                crate::obs_warn!(
                    "sampler reached {} samples; later samples are discarded \
                     (raise --sample-ms to cover longer runs)",
                    Sampler::MAX_SAMPLES
                );
            }
        }
        if shared.wait(interval) {
            break;
        }
    }
    // Final sample so the series always covers the end of the run (and
    // a short run still yields >= 2 points).
    if samples.len() < Sampler::MAX_SAMPLES + 1 {
        samples.push(take_sample(registry, hook));
    }
    samples
}

fn take_sample(registry: &Registry, hook: &(impl Fn() + ?Sized)) -> Sample {
    hook();
    let snapshot = registry.snapshot();
    Sample {
        t_ms: crate::events::now_ns() as f64 / 1e6,
        counters: snapshot.counters,
        gauges: snapshot.gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn collects_at_least_first_and_final_samples() {
        let registry = leaked_registry();
        registry.counter_cell("s.work").store(3, Ordering::Relaxed);
        let sampler = Sampler::start(Duration::from_millis(5), registry);
        std::thread::sleep(Duration::from_millis(20));
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "got {}", samples.len());
        for s in &samples {
            assert_eq!(s.counters.get("s.work"), Some(&3));
        }
        for pair in samples.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms, "series must be monotone");
        }
    }

    #[test]
    fn immediate_stop_still_yields_two_points() {
        let registry = leaked_registry();
        let sampler = Sampler::start(Duration::from_millis(500), registry);
        let samples = sampler.stop();
        assert!(samples.len() >= 2);
    }

    #[test]
    fn hook_runs_before_every_snapshot() {
        let registry = leaked_registry();
        let cell = registry.counter_cell("s.hooked");
        let calls = Arc::new(AtomicU64::new(0));
        let hook_calls = Arc::clone(&calls);
        let sampler = Sampler::start_with_hook(Duration::from_millis(5), registry, move || {
            let n = hook_calls.fetch_add(1, Ordering::Relaxed) + 1;
            cell.store(n, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(25));
        let samples = sampler.stop();
        assert_eq!(calls.load(Ordering::Relaxed), samples.len() as u64);
        // Each sample observes the value its own hook published: the
        // hook happens-before the snapshot on the sampler thread.
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.counters.get("s.hooked"), Some(&(i as u64 + 1)));
        }
    }

    #[test]
    fn dropped_sampler_shuts_down_cleanly() {
        let registry = leaked_registry();
        let sampler = Sampler::start(Duration::from_millis(1), registry);
        drop(sampler); // must join, not detach or hang
    }
}
