//! Trace-once / analyze-many memoisation of simulation traces.
//!
//! Every experiment in the evaluation re-executes the same small set of
//! `(workload, input set, limits)` runs — the reference input alone is
//! consumed by the characterisation tables, every predictor configuration
//! and every ILP machine. A [`TraceStore`] runs the functional simulation
//! **once** per key, keeps the retirement trace ([`vp_sim::Trace`]) in an
//! in-memory LRU keyed by [`TraceKey`], and optionally spills traces to
//! disk in the compact `vp_sim::record` binary format (`provptr3`, one
//! `write_all` per file, read back with one `fs::read` and a slice
//! decode) so later processes can skip the simulation entirely.
//!
//! Correctness rests on one ISA property: prediction *directives* never
//! change architectural semantics. A trace captured from the bare program
//! therefore replays bit-identically against any directive-annotated
//! variant of the same program, which is exactly the decoupling the
//! evaluation needs — simulate once, then replay into profilers,
//! predictors and the ILP machine under any annotation threshold.
//!
//! ## Residency
//!
//! [`TraceStore::get`] and [`TraceStore::replay_into`] make every trace
//! they produce resident, for the next consumer. A trace with one consumer
//! per process goes through [`TraceStore::replay_transient`] instead: it
//! is captured and spilled, or decoded from its spill file, replayed, and
//! dropped. `provp_core::Suite` does this for training inputs when it has
//! a spill directory, so under `--trace-cache` only the reference traces
//! stay in memory; each training trace is replayed once into its profile
//! collector, whose image is what the suite memoises.
//!
//! The store is fully thread-safe: concurrent requests for the *same* key
//! deduplicate in flight (one thread simulates, the rest wait on a
//! condition variable), and requests for different keys proceed in
//! parallel because the lock is never held across a simulation.
//!
//! ## Observability
//!
//! Usage counters live *inside* the store's mutex and are updated under
//! the same lock acquisitions the request path already takes, so a
//! [`TraceStore::stats`] snapshot is always internally consistent — at
//! any instant `requests == memory_hits + misses` holds exactly, even
//! while worker threads are mid-request. Captures are additionally
//! wrapped in a `vp_obs` span (`capture`) so manifest phase timings show
//! where simulation wall-clock goes, and the store emits instant events
//! (`trace_store.evict` / `trace_store.spill` / `trace_store.disk_hit`,
//! each carrying the trace's approximate byte size) into the
//! `vp_obs::events` stream so a Chrome trace shows *when* cache churn
//! happened. Event emission is lock-free and a no-op unless a
//! `--trace-out` run enabled the stream.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use vp_isa::Program;
use vp_sim::{RunLimits, SimError, Trace, Tracer};
use vp_workloads::{InputSet, Workload, WorkloadKind};

/// Identity of one memoised simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// The workload.
    pub kind: WorkloadKind,
    /// The input set it ran under.
    pub input: InputSet,
    /// The run budget (part of the key: a truncated run has a different
    /// trace).
    pub max_instructions: u64,
}

impl TraceKey {
    /// The key for `kind` run under `input` with `limits`.
    #[must_use]
    pub fn new(kind: WorkloadKind, input: InputSet, limits: RunLimits) -> Self {
        TraceKey {
            kind,
            input,
            max_instructions: limits.max_instructions,
        }
    }

    /// The spill file name for this key (stable across processes).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}.trace",
            self.kind.name(),
            self.input,
            self.max_instructions
        )
    }
}

impl fmt::Display for TraceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}@{}",
            self.kind.name(),
            self.input,
            self.max_instructions
        )
    }
}

/// Why a trace could not be produced or replayed.
///
/// Carries the [`TraceKey`] so a faulting workload reports *which* run
/// went wrong instead of poisoning worker threads with an anonymous
/// panic.
#[derive(Debug)]
pub enum TraceError {
    /// The functional simulation faulted while capturing the trace
    /// (well-formed workloads never fault; this indicates a generator
    /// bug — but the report should still name the key).
    Capture {
        /// The run that faulted.
        key: TraceKey,
        /// The simulator fault.
        source: SimError,
    },
    /// A memoised trace failed to replay against the supplied program
    /// (the program does not match the trace's architectural history).
    Replay {
        /// The run whose trace failed to replay.
        key: TraceKey,
        /// The replay failure.
        source: io::Error,
    },
}

impl TraceError {
    /// The key of the failing run.
    #[must_use]
    pub fn key(&self) -> TraceKey {
        match self {
            TraceError::Capture { key, .. } | TraceError::Replay { key, .. } => *key,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Capture { key, source } => {
                write!(f, "{key} faulted while tracing: {source}")
            }
            TraceError::Replay { key, source } => {
                write!(f, "{key} failed to replay: {source}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Capture { source, .. } => Some(source),
            TraceError::Replay { source, .. } => Some(source),
        }
    }
}

/// Counters describing how the store has been used.
///
/// Produced only by [`TraceStore::stats`], which snapshots every field
/// under one lock acquisition: the invariant
/// `requests == memory_hits + misses` holds in every snapshot, no matter
/// how many threads are mid-`get`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Total requests presented to the store.
    pub requests: u64,
    /// Requests served from the in-memory LRU.
    pub memory_hits: u64,
    /// Requests that missed memory (and went to disk or simulation).
    pub misses: u64,
    /// Misses served by deserialising a spilled trace from disk.
    pub disk_hits: u64,
    /// Misses that ran the functional simulation.
    pub captures: u64,
    /// Traces dropped from memory by the LRU byte budget.
    pub evictions: u64,
    /// Traces written to the spill directory.
    pub spills: u64,
    /// Spill attempts that failed (IO errors; memory-only fallback).
    pub spill_failures: u64,
    /// Requests that slept waiting for another thread's in-flight
    /// production of the same key.
    pub dedup_waits: u64,
    /// Traces resident in memory at snapshot time.
    pub resident: u64,
    /// Approximate bytes resident in memory at snapshot time.
    pub resident_bytes: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CounterBlock {
    requests: u64,
    memory_hits: u64,
    misses: u64,
    disk_hits: u64,
    captures: u64,
    evictions: u64,
    spills: u64,
    spill_failures: u64,
    dedup_waits: u64,
}

/// Where a freshly produced trace came from (folded into the counters at
/// publish time, under the state lock).
#[derive(Debug, Clone, Copy)]
enum Provenance {
    Disk,
    Captured { spilled: bool, spill_failed: bool },
}

struct Entry {
    trace: Arc<Trace>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<TraceKey, Entry>,
    in_flight: HashSet<TraceKey>,
    bytes: usize,
    tick: u64,
    counters: CounterBlock,
}

/// A thread-safe, byte-budgeted LRU of simulation traces with optional
/// disk spill.
///
/// # Examples
///
/// ```
/// use provp_core::trace_store::TraceStore;
/// use vp_sim::{InstrMix, RunLimits};
/// use vp_workloads::{InputSet, Workload, WorkloadKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = TraceStore::new();
/// let kind = WorkloadKind::Compress;
/// let trace = store.get(kind, InputSet::reference(), RunLimits::default())?;
/// // Second request: served from memory, no simulation.
/// let again = store.get(kind, InputSet::reference(), RunLimits::default())?;
/// assert_eq!(store.stats().captures, 1);
/// assert_eq!(store.stats().memory_hits, 1);
///
/// // Replay substitutes for re-simulation.
/// let program = Workload::new(kind).program(&InputSet::reference());
/// let mut mix = InstrMix::new();
/// trace.replay(&program, &mut mix)?;
/// assert_eq!(mix.total() as usize, again.len());
/// # Ok(())
/// # }
/// ```
pub struct TraceStore {
    max_bytes: usize,
    spill_dir: Option<PathBuf>,
    state: Mutex<State>,
    available: Condvar,
}

impl TraceStore {
    /// Default in-memory budget: 1 GiB of resident trace data.
    pub const DEFAULT_MAX_BYTES: usize = 1 << 30;

    /// An in-memory store with the default byte budget and no disk spill.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::with_max_bytes(TraceStore::DEFAULT_MAX_BYTES)
    }

    /// An in-memory store with an explicit byte budget.
    ///
    /// The budget is advisory per entry: a single trace larger than the
    /// budget is still admitted (and evicted as soon as another arrives).
    #[must_use]
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        TraceStore {
            max_bytes,
            spill_dir: None,
            state: Mutex::new(State::default()),
            available: Condvar::new(),
        }
    }

    /// Enables disk spill under `dir` (created on first write). Spilled
    /// traces survive eviction and process restarts; `get` checks the
    /// directory before falling back to simulation.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// The spill directory, if any.
    #[must_use]
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    /// A consistent snapshot of every usage counter, taken under one
    /// lock acquisition. `requests == memory_hits + misses` holds in
    /// every snapshot.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        let state = self.state.lock().expect("trace store poisoned");
        let c = state.counters;
        TraceStoreStats {
            requests: c.requests,
            memory_hits: c.memory_hits,
            misses: c.misses,
            disk_hits: c.disk_hits,
            captures: c.captures,
            evictions: c.evictions,
            spills: c.spills,
            spill_failures: c.spill_failures,
            dedup_waits: c.dedup_waits,
            resident: state.entries.len() as u64,
            resident_bytes: state.bytes as u64,
        }
    }

    /// Number of traces currently resident in memory.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.state
            .lock()
            .expect("trace store poisoned")
            .entries
            .len()
    }

    /// Approximate bytes currently resident in memory.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().expect("trace store poisoned").bytes
    }

    /// The retirement trace of `kind` under `input` and `limits`,
    /// simulating at most once per key per process (and, with a spill
    /// directory, at most once ever).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Capture`] (naming the key) if the workload
    /// faults during simulation — well-formed workloads never fault, so
    /// a fault indicates a generator bug, but it is reported instead of
    /// panicking inside worker threads.
    pub fn get(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        limits: RunLimits,
    ) -> Result<Arc<Trace>, TraceError> {
        let key = TraceKey::new(kind, input, limits);
        match self.lookup_or_claim(&key) {
            Ok(trace) => Ok(trace),
            Err(claim) => {
                let (trace, provenance) = self.load_or_capture(&key)?;
                let trace = Arc::new(trace);
                self.publish(claim, provenance, Some(Arc::clone(&trace)));
                Ok(trace)
            }
        }
    }

    /// Replays the trace for `(kind, input, limits)` into `tracer`,
    /// fetching instructions from `program` — which may be a
    /// directive-annotated variant of the workload binary, since
    /// directives never change architectural semantics.
    ///
    /// On a cache miss this runs the functional simulation **once**,
    /// feeding `tracer` while recording, so the first consumer of a trace
    /// pays a single pass (not capture *plus* replay). Subsequent
    /// consumers replay from memory or disk.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Capture`] if the workload faults during
    /// simulation, or [`TraceError::Replay`] if the memoised trace does
    /// not replay against `program` — both indicate generator bugs, and
    /// both name the key instead of poisoning worker threads.
    pub fn replay_into(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        limits: RunLimits,
        program: &Program,
        tracer: &mut impl Tracer,
    ) -> Result<Arc<Trace>, TraceError> {
        let key = TraceKey::new(kind, input, limits);
        match self.lookup_or_claim(&key) {
            Ok(trace) => {
                trace
                    .replay(program, tracer)
                    .map_err(|source| TraceError::Replay { key, source })?;
                Ok(trace)
            }
            Err(claim) => {
                // Simulate once, feeding the caller's tracer while
                // recording (`Trace::capture_with`); a disk hit replays.
                let (trace, provenance) = self.load_or_capture_with(&key, program, tracer)?;
                let trace = Arc::new(trace);
                self.publish(claim, provenance, Some(Arc::clone(&trace)));
                Ok(trace)
            }
        }
    }

    /// Replays the trace for `(kind, input, limits)` into `tracer` like
    /// [`TraceStore::replay_into`], but never makes a trace it produces
    /// resident: a capture is spilled (with a spill directory) and a
    /// disk hit is decoded, replayed and dropped. This is for traces with
    /// one consumer per process, such as training runs, whose spill file
    /// is what later processes reuse.
    ///
    /// A resident trace is still served from memory, concurrent requests
    /// for the key still wait for one producer, and every counter
    /// advances as under [`TraceStore::replay_into`]. A waiter finds no
    /// resident trace once the producer is done, so it produces again: a
    /// disk hit with a spill directory, a second capture without one.
    ///
    /// # Errors
    ///
    /// As [`TraceStore::replay_into`].
    pub fn replay_transient(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        limits: RunLimits,
        program: &Program,
        tracer: &mut impl Tracer,
    ) -> Result<(), TraceError> {
        let key = TraceKey::new(kind, input, limits);
        match self.lookup_or_claim(&key) {
            Ok(trace) => trace
                .replay(program, tracer)
                .map_err(|source| TraceError::Replay { key, source }),
            Err(claim) => {
                let (_, provenance) = self.load_or_capture_with(&key, program, tracer)?;
                self.publish(claim, provenance, None);
                Ok(())
            }
        }
    }

    /// Returns the memoised trace, or an in-flight claim obliging the
    /// caller to produce it (and [`publish`](Self::publish) it).
    fn lookup_or_claim(&self, key: &TraceKey) -> Result<Arc<Trace>, InFlightGuard<'_>> {
        let mut state = self.state.lock().expect("trace store poisoned");
        let mut waited = false;
        loop {
            if state.entries.contains_key(key) {
                state.tick += 1;
                let tick = state.tick;
                // Request and hit are counted under the same lock hold,
                // so snapshots never observe one without the other.
                state.counters.requests += 1;
                state.counters.memory_hits += 1;
                let entry = state.entries.get_mut(key).expect("just checked");
                entry.last_used = tick;
                return Ok(Arc::clone(&entry.trace));
            }
            if state.in_flight.insert(*key) {
                // We are the producer for this key; the guard keeps
                // waiters from deadlocking if production fails.
                state.counters.requests += 1;
                state.counters.misses += 1;
                return Err(InFlightGuard {
                    store: self,
                    key: *key,
                });
            }
            if !waited {
                waited = true;
                state.counters.dedup_waits += 1;
            }
            state = self.available.wait(state).expect("trace store poisoned");
        }
    }

    /// Counts a production, makes `trace` (if given) resident and releases
    /// the claim.
    fn publish(&self, claim: InFlightGuard<'_>, provenance: Provenance, trace: Option<Arc<Trace>>) {
        let key = claim.key;
        let mut state = self.state.lock().expect("trace store poisoned");
        match provenance {
            Provenance::Disk => state.counters.disk_hits += 1,
            Provenance::Captured {
                spilled,
                spill_failed,
            } => {
                state.counters.captures += 1;
                state.counters.spills += u64::from(spilled);
                state.counters.spill_failures += u64::from(spill_failed);
            }
        }
        if let Some(trace) = trace {
            let bytes = trace.approx_bytes();
            state.tick += 1;
            let tick = state.tick;
            state.bytes += bytes;
            state.entries.insert(
                key,
                Entry {
                    trace,
                    bytes,
                    last_used: tick,
                },
            );
            self.evict_over_budget(&mut state, key);
        }
        drop(state);
        drop(claim); // removes the in-flight mark and wakes waiters
    }

    /// Loads from the spill directory (replaying into `tracer` if given)
    /// or captures by simulation, feeding `tracer` during the pass.
    fn load_or_capture_with(
        &self,
        key: &TraceKey,
        program: &Program,
        tracer: &mut impl Tracer,
    ) -> Result<(Trace, Provenance), TraceError> {
        if let Some(trace) = self.try_disk_load(key) {
            vp_obs::events::instant("trace_store.disk_hit", trace.approx_bytes() as u64);
            trace
                .replay(program, tracer)
                .map_err(|source| TraceError::Replay { key: *key, source })?;
            return Ok((trace, Provenance::Disk));
        }
        let limits = RunLimits::with_max(key.max_instructions);
        let trace = {
            let _span = vp_obs::span("capture");
            Trace::capture_with(program, limits, tracer)
                .map_err(|source| TraceError::Capture { key: *key, source })?
        };
        let provenance = self.try_disk_store(key, &trace);
        Ok((trace, provenance))
    }

    /// Loads from the spill directory or captures by simulation.
    fn load_or_capture(&self, key: &TraceKey) -> Result<(Trace, Provenance), TraceError> {
        if let Some(trace) = self.try_disk_load(key) {
            vp_obs::events::instant("trace_store.disk_hit", trace.approx_bytes() as u64);
            return Ok((trace, Provenance::Disk));
        }
        let program = Workload::new(key.kind).program(&key.input);
        let limits = RunLimits::with_max(key.max_instructions);
        let trace = {
            let _span = vp_obs::span("capture");
            Trace::capture(&program, limits)
                .map_err(|source| TraceError::Capture { key: *key, source })?
        };
        let provenance = self.try_disk_store(key, &trace);
        Ok((trace, provenance))
    }

    fn try_disk_load(&self, key: &TraceKey) -> Option<Trace> {
        let dir = self.spill_dir.as_ref()?;
        let path = dir.join(key.file_name());
        // One read syscall, then parse from the in-memory slice — much
        // faster than pulling the file through a buffered reader.
        let bytes = fs::read(&path).ok()?;
        match Trace::read_from(&bytes) {
            Ok(trace) => Some(trace),
            Err(_) => {
                // Corrupt, truncated or stale-format spill file: drop it
                // and re-simulate.
                vp_obs::obs_warn!("dropping corrupt trace spill file {path:?}");
                vp_obs::counter("trace_store.spill_rejects").inc();
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Best-effort spill; IO failures silently fall back to memory-only.
    /// Returns the capture provenance (whether the spill stuck).
    fn try_disk_store(&self, key: &TraceKey, trace: &Trace) -> Provenance {
        let Some(dir) = self.spill_dir.as_ref() else {
            return Provenance::Captured {
                spilled: false,
                spill_failed: false,
            };
        };
        if fs::create_dir_all(dir).is_err() {
            return Provenance::Captured {
                spilled: false,
                spill_failed: true,
            };
        }
        let tmp = dir.join(format!("{}.tmp", key.file_name()));
        let finished = dir.join(key.file_name());
        // The encoder hands the whole file over in one `write_all`.
        let write = || -> io::Result<()> {
            trace.write_to(fs::File::create(&tmp)?)?;
            fs::rename(&tmp, &finished)
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
            Provenance::Captured {
                spilled: false,
                spill_failed: true,
            }
        } else {
            vp_obs::events::instant("trace_store.spill", trace.approx_bytes() as u64);
            Provenance::Captured {
                spilled: true,
                spill_failed: false,
            }
        }
    }

    /// Evicts least-recently-used entries (never `just_inserted`) until
    /// the budget holds.
    fn evict_over_budget(&self, state: &mut State, just_inserted: TraceKey) {
        while state.bytes > self.max_bytes && state.entries.len() > 1 {
            let victim = state
                .entries
                .iter()
                .filter(|(k, _)| **k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(entry) = state.entries.remove(&victim) {
                state.bytes = state.bytes.saturating_sub(entry.bytes);
                state.counters.evictions += 1;
                // Lock-free push into the (possibly disabled) event
                // stream; cheap enough to emit under the state lock.
                vp_obs::events::instant("trace_store.evict", entry.bytes as u64);
            }
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("max_bytes", &self.max_bytes)
            .field("spill_dir", &self.spill_dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Clears the in-flight mark for `key` even if production failed or
/// panicked, so waiting threads retry instead of deadlocking.
struct InFlightGuard<'a> {
    store: &'a TraceStore,
    key: TraceKey,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut state = match self.store.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.in_flight.remove(&self.key);
        drop(state);
        self.store.available.notify_all();
    }
}
