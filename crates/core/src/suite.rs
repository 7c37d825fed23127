//! Memoised experiment context.
//!
//! The evaluation section re-uses the same expensive artifacts — five
//! training-run profile images per workload, merged profiles, annotated
//! binaries — across many tables and figures. A [`Suite`] computes each
//! artifact once and hands out clones.
//!
//! Since the trace-cache rework every method takes `&self`: caches live
//! behind mutexes, the underlying simulations are memoised as retirement
//! traces in a shared [`TraceStore`], and independent grid points can be
//! fanned out over threads with [`Suite::par_map`] while keeping output
//! order (and therefore rendered experiment output) byte-identical to a
//! serial run.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

use vp_compiler::{annotate, AnnotationSummary, ThresholdPolicy};
use vp_ilp::{IlpConfig, IlpPlan, IlpResult};
use vp_isa::Program;
use vp_predictor::{AttributionTable, PredictorConfig, PredictorStats};
use vp_profile::{merge, ProfileCollector, ProfileImage};
use vp_sim::{run, RunLimits, Trace};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::exec::parallel_map;
use crate::replay::{ReplayRequest, SweepPlan};
use crate::trace_store::{TraceError, TraceKey, TraceStore, TraceStoreStats};

/// Threshold key with stable hashing (per-mille accuracy).
fn th_key(threshold: f64) -> u32 {
    (threshold * 1000.0).round() as u32
}

/// Identity of one sweep-matrix cell: configuration × annotation
/// threshold, for one workload's reference trace.
type CellKey = (WorkloadKind, PredictorConfig, Option<u32>);

/// The memoised result of one sweep-matrix cell. Attribution is captured
/// at compute time (when the process has it enabled) so later requests
/// for the same cell can record their run without replaying.
#[derive(Clone)]
struct CellResult {
    stats: PredictorStats,
    occupancy: usize,
    attribution: Option<Arc<AttributionTable>>,
}

/// A thread-safe get-or-compute cache with in-flight deduplication: when
/// two threads request the same missing key, one computes while the other
/// waits, and the value is computed without holding the lock.
struct Memo<K, V> {
    state: Mutex<MemoState<K, V>>,
    available: Condvar,
}

struct MemoState<K, V> {
    done: HashMap<K, V>,
    running: HashSet<K>,
}

impl<K: Eq + Hash + Copy, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            state: Mutex::new(MemoState {
                done: HashMap::new(),
                running: HashSet::new(),
            }),
            available: Condvar::new(),
        }
    }

    fn get_or_compute(&self, key: K, mut compute: impl FnMut() -> V) -> V {
        self.get_or_compute_all(&[key], |_| vec![compute()])
            .pop()
            .expect("one key returns one value")
    }

    /// Batch get-or-compute: claims every key of `keys` that nobody has
    /// computed or claimed, computes the claimed keys with one `compute`
    /// call (which returns their values in order), and waits for keys
    /// claimed by other threads. Returns the values in `keys` order;
    /// duplicate keys are computed once. Panic-safe: a claimer that dies
    /// releases its claims and waiters re-claim.
    fn get_or_compute_all(&self, keys: &[K], mut compute: impl FnMut(&[K]) -> Vec<V>) -> Vec<V> {
        let mut values: Vec<Option<V>> = vec![None; keys.len()];
        loop {
            // Under the lock: harvest finished keys, then claim every
            // remaining key that is neither done nor running. Wait only
            // when something is missing and there is nothing to claim.
            let mut claimed = Vec::new();
            {
                let mut state = self.state.lock().expect("memo poisoned");
                loop {
                    let mut missing = false;
                    for (value, key) in values.iter_mut().zip(keys) {
                        if value.is_some() {
                            continue;
                        }
                        if let Some(v) = state.done.get(key) {
                            *value = Some(v.clone());
                            continue;
                        }
                        missing = true;
                        if state.running.insert(*key) {
                            claimed.push(*key);
                        }
                    }
                    if !missing {
                        return values.into_iter().map(|v| v.expect("filled")).collect();
                    }
                    if !claimed.is_empty() {
                        break;
                    }
                    state = self.available.wait(state).expect("memo poisoned");
                }
            }
            let guard = RunningGuard {
                memo: self,
                keys: claimed,
            };
            let computed = compute(&guard.keys);
            assert_eq!(computed.len(), guard.keys.len(), "one value per claim");
            let mut state = self.state.lock().expect("memo poisoned");
            state.done.extend(guard.keys.iter().copied().zip(computed));
            drop(state);
            drop(guard);
        }
    }
}

/// Clears a batch of running marks even if the compute panicked, so
/// waiters retry (re-claim) instead of deadlocking.
struct RunningGuard<'a, K: Eq + Hash + Copy, V: Clone> {
    memo: &'a Memo<K, V>,
    keys: Vec<K>,
}

impl<K: Eq + Hash + Copy, V: Clone> Drop for RunningGuard<'_, K, V> {
    fn drop(&mut self) {
        let mut state = match self.memo.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for key in &self.keys {
            state.running.remove(key);
        }
        drop(state);
        self.memo.available.notify_all();
    }
}

/// A memoising context for the whole evaluation.
///
/// All methods take `&self` (caches use interior mutability, so a single
/// suite can be shared across worker threads) and return owned values;
/// profile images and programs are small enough that cloning is negligible
/// next to simulation. Functional simulations run at most once per
/// `(workload, input, limits)` key — every consumer replays the memoised
/// retirement trace from the embedded [`TraceStore`].
pub struct Suite {
    limits: RunLimits,
    train_runs: u32,
    jobs: usize,
    streaming: Option<usize>,
    traces: TraceStore,
    train_images: Memo<WorkloadKind, Vec<ProfileImage>>,
    reference_images: Memo<WorkloadKind, ProfileImage>,
    phase_images: Memo<WorkloadKind, (ProfileImage, ProfileImage)>,
    annotated: Memo<(WorkloadKind, u32), (Program, AnnotationSummary)>,
    sweep: Memo<CellKey, CellResult>,
    /// `(counter, kind)` pairs already counted by [`Suite::count_first_pass`].
    first_passes: Mutex<HashSet<(&'static str, WorkloadKind)>>,
}

impl Suite {
    /// A suite with the paper's parameters (5 training runs), serial
    /// execution and an in-memory trace cache.
    #[must_use]
    pub fn new() -> Self {
        Suite::with_train_runs(Workload::PAPER_TRAIN_RUNS)
    }

    /// A suite with an abbreviated number of training runs (for tests).
    #[must_use]
    pub fn with_train_runs(train_runs: u32) -> Self {
        assert!(train_runs >= 1, "at least one training run required");
        Suite {
            limits: RunLimits::default(),
            train_runs,
            jobs: 1,
            streaming: None,
            traces: TraceStore::new(),
            train_images: Memo::new(),
            reference_images: Memo::new(),
            phase_images: Memo::new(),
            annotated: Memo::new(),
            sweep: Memo::new(),
            first_passes: Mutex::new(HashSet::new()),
        }
    }

    /// Sets the number of worker threads used by [`Suite::par_map`]
    /// (1 = serial; output is byte-identical either way).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Spills captured traces under `dir` and reloads them from there in
    /// later processes, skipping the functional simulation entirely.
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.traces = TraceStore::new().with_spill_dir(dir);
        self
    }

    /// Runs predictor sweeps in **streaming** mode with a `blocks`-buffer
    /// block pool: the reference simulation feeds the fused replay
    /// kernel through a bounded channel ([`crate::replay::stream`]) and
    /// the trace is never materialised, so peak RSS stays independent of
    /// trace length. Results are bit-identical to batch mode. Consumers
    /// that need a full trace (profiling, ILP, trace export) still
    /// capture one through the [`TraceStore`] as before — full traces
    /// become an optional cache policy, not a requirement of the sweep.
    #[must_use]
    pub fn with_streaming(mut self, blocks: usize) -> Self {
        self.streaming = Some(blocks.max(crate::replay::stream::MIN_BLOCK_POOL));
        self
    }

    /// Number of training runs per workload.
    #[must_use]
    pub fn train_runs(&self) -> u32 {
        self.train_runs
    }

    /// Worker threads used by [`Suite::par_map`].
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Usage counters of the embedded trace store.
    #[must_use]
    pub fn trace_stats(&self) -> TraceStoreStats {
        self.traces.stats()
    }

    /// Maps `f` over `items` on up to [`Suite::jobs`] threads, returning
    /// results in input order — the building block every experiment grid
    /// uses to fan out per-workload work deterministically.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        parallel_map(self.jobs, items, f)
    }

    /// The memoised retirement trace of `kind` under `input` (simulating
    /// at most once per key).
    ///
    /// # Panics
    ///
    /// Panics if the underlying simulation faults or a spilled trace is
    /// unreadable; the message carries the offending trace key.
    pub fn trace(&self, kind: WorkloadKind, input: InputSet) -> Arc<Trace> {
        self.traces
            .get(kind, input, self.limits)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn profile_once(&self, kind: WorkloadKind, input: &InputSet) -> ProfileImage {
        let _span = vp_obs::span("profile");
        let workload = Workload::new(kind);
        let program = workload.program(input);
        let mut collector = ProfileCollector::new(format!("{}/{input}", workload.name()));
        if input.is_reference() {
            // Reference traces have many consumers (profilers, predictor
            // configurations, ILP models): memoise them.
            self.traces
                .replay_into(kind, *input, self.limits, &program, &mut collector)
                .unwrap_or_else(|e| panic!("{e}"));
        } else if self.traces.spill_dir().is_some() {
            // A training trace has one consumer per process, but its spill
            // file lets later processes skip the simulation: spill it (or
            // read it back), replay it, and keep nothing resident.
            self.traces
                .replay_transient(kind, *input, self.limits, &program, &mut collector)
                .unwrap_or_else(|e| panic!("{e}"));
        } else {
            // A training trace is consumed exactly once (its profile image
            // is what gets memoised), so recording it would cost memory
            // for nothing: simulate straight into the collector.
            run(&program, &mut collector, self.limits)
                .unwrap_or_else(|e| panic!("{} faulted while profiling: {e}", workload.name()));
        }
        collector.into_image()
    }

    /// Profile images of the training runs (phase 2), one per input.
    pub fn train_images(&self, kind: WorkloadKind) -> Vec<ProfileImage> {
        self.train_images.get_or_compute(kind, || {
            let inputs = InputSet::train_set(self.train_runs);
            self.par_map(&inputs, |input| self.profile_once(kind, input))
        })
    }

    /// The intersected-and-summed training profile the compiler consumes.
    pub fn merged_image(&self, kind: WorkloadKind) -> ProfileImage {
        let images = self.train_images(kind);
        let _span = vp_obs::span("merge");
        merge::intersect_and_sum(&images).image
    }

    /// A profile image of the held-out reference run (used by the
    /// Section 2 characterisation tables/figures).
    pub fn reference_image(&self, kind: WorkloadKind) -> ProfileImage {
        self.reference_images
            .get_or_compute(kind, || self.profile_once(kind, &InputSet::reference()))
    }

    /// For FP workloads: `(init, computation)` phase images of the
    /// reference run.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no phase split (only `mgrid` does).
    pub fn reference_phase_images(&self, kind: WorkloadKind) -> (ProfileImage, ProfileImage) {
        self.phase_images.get_or_compute(kind, || {
            let w = Workload::new(kind);
            let split = w
                .phase_split()
                .unwrap_or_else(|| panic!("{kind} has no phase split"));
            let program = w.program(&InputSet::reference());
            let mut collector = ProfileCollector::with_phase_split(w.name().to_owned(), split);
            self.traces
                .replay_into(
                    kind,
                    InputSet::reference(),
                    self.limits,
                    &program,
                    &mut collector,
                )
                .unwrap_or_else(|e| panic!("{e}"));
            collector.into_phase_images()
        })
    }

    /// The phase-3 annotated binary (trained on the training inputs) plus
    /// the annotation report, for one accuracy threshold.
    pub fn annotated(&self, kind: WorkloadKind, threshold: f64) -> (Program, AnnotationSummary) {
        self.annotated
            .get_or_compute((kind, th_key(threshold)), || {
                let merged = self.merged_image(kind);
                let _span = vp_obs::span("annotate");
                let base = Workload::new(kind)
                    .program(&InputSet::train(0))
                    .without_directives();
                let out = annotate(&base, &merged, &ThresholdPolicy::new(threshold));
                (out.program().clone(), *out.summary())
            })
    }

    /// The reference-input program, carrying directives from the training
    /// profile when `threshold` is given (the evaluation configuration:
    /// train on training inputs, run on the reference input).
    pub fn reference_program(&self, kind: WorkloadKind, threshold: Option<f64>) -> Program {
        let fresh = Workload::new(kind).program(&InputSet::reference());
        match threshold {
            None => fresh,
            Some(th) => {
                let (tagged, _) = self.annotated(kind, th);
                fresh.with_directives(|addr, _| tagged.text()[addr.index() as usize].directive)
            }
        }
    }

    /// Resolves each request's threshold to its annotated reference
    /// program and registers that program's directive table through `add`
    /// (once per distinct threshold), returning each request's table.
    fn directive_tables(
        &self,
        kind: WorkloadKind,
        thresholds: impl Iterator<Item = Option<f64>>,
        mut add: impl FnMut(&Program) -> usize,
    ) -> Vec<usize> {
        let mut table_of: HashMap<Option<u32>, usize> = HashMap::new();
        thresholds
            .map(|threshold| {
                *table_of
                    .entry(threshold.map(th_key))
                    .or_insert_with(|| add(&self.reference_program(kind, threshold)))
            })
            .collect()
    }

    /// Runs the reference input through a predictor configuration and
    /// returns the predictor statistics. `threshold` selects the annotated
    /// binary (profile-guided classification) or the bare one (hardware
    /// classification).
    ///
    /// Directives never change execution, so every configuration replays
    /// the same memoised reference trace instead of re-simulating.
    pub fn predictor_stats(
        &self,
        kind: WorkloadKind,
        config: PredictorConfig,
        threshold: Option<f64>,
    ) -> PredictorStats {
        self.predictor_stats_matrix(kind, &[(config, threshold)])
            .pop()
            .expect("singleton matrix returns one cell")
    }

    /// [`Suite::predictor_stats`] for a whole sweep at once: every
    /// requested `(config, threshold)` cell of `kind`'s reference trace,
    /// in request order.
    ///
    /// Missing cells are computed by **one** fused [`ReplayRequest`]
    /// pass over the reference value stream — the memoised trace, or, in
    /// [`Suite::with_streaming`] mode, a live simulation feeding the
    /// kernel through a bounded channel (duplicate cells dedupe,
    /// already-memoised cells are reused) — so a 6-configuration ×
    /// 5-threshold sweep scans the stream once instead of 30 times.
    /// Results are bit-identical to per-cell [`Suite::predictor_stats`]
    /// calls in either mode.
    ///
    /// Observability is per *request*, exactly as for the singleton path:
    /// every returned cell folds its stats into the `predictor.*`
    /// counters and (with attribution enabled) records one attribution
    /// run, whether it was a memo hit or freshly computed — so
    /// attribution run totals stay in exact 1:1 agreement with the
    /// counters.
    pub fn predictor_stats_matrix(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
    ) -> Vec<PredictorStats> {
        if cells.is_empty() {
            return Vec::new();
        }
        let results = self.sweep_cells(kind, cells);
        let mut grid = Vec::with_capacity(cells.len());
        for (&(config, threshold), result) in cells.iter().zip(&results) {
            if let Some(table) = &result.attribution {
                // Drift compares the Phase-2 training profile's promised
                // accuracy against what the reference replay observed;
                // merged_image is memoised, so this costs one lookup per
                // exported PC (outside the predict span either way).
                let top = crate::attribution::top_k().unwrap_or(0);
                let merged = self.merged_image(kind);
                crate::attribution::record(crate::attribution::run_from_table(
                    Workload::new(kind).name(),
                    &config.label(),
                    threshold,
                    table,
                    top,
                    |addr, directive| merged.get(addr).map(|p| p.profiled_accuracy(directive)),
                ));
            }
            vp_obs::gauge("predictor.occupancy.max").set_max(result.occupancy as u64);
            publish_predictor_metrics(&result.stats);
            grid.push(result.stats);
        }
        grid
    }

    /// Computes (and memoises) sweep cells for each of `kinds` without
    /// publishing any per-request observability — no `predictor.*`
    /// counters, no attribution runs. Later [`Suite::predictor_stats`] /
    /// [`Suite::predictor_stats_matrix`] requests for the primed cells
    /// become memo hits, so a driver like `repro-all` can fuse the whole
    /// paper sweep into one matrix pass per trace up front while every
    /// experiment still accounts its own requests exactly as before.
    pub fn prime_matrix(&self, kinds: &[WorkloadKind], cells: &[(PredictorConfig, Option<f64>)]) {
        if cells.is_empty() {
            return;
        }
        self.par_map(kinds, |&kind| {
            let _ = self.sweep_cells(kind, cells);
        });
    }

    /// The sweep cells of `kind`, memoised: the cells nobody has computed
    /// or claimed are computed by one fused matrix pass, and cells claimed
    /// by other threads are waited for.
    fn sweep_cells(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
    ) -> Vec<CellResult> {
        let keys: Vec<CellKey> = cells
            .iter()
            .map(|&(config, th)| (kind, config, th.map(th_key)))
            .collect();
        // A claimed key's cell as requested, with its unrounded threshold.
        let cell_of = |key: &CellKey| {
            cells[keys
                .iter()
                .position(|k| k == key)
                .expect("claimed from keys")]
        };
        self.sweep.get_or_compute_all(&keys, |claimed| {
            let plan_cells: Vec<_> = claimed.iter().map(cell_of).collect();
            self.compute_matrix(kind, &plan_cells)
        })
    }

    /// Adds 1 to `counter` the first time it is called for `kind`: the
    /// per-trace denominators (`replay.matrix_traces`, `ilp.traces`) of
    /// the CI passes-per-trace gates.
    fn count_first_pass(&self, counter: &'static str, kind: WorkloadKind) {
        let first = self
            .first_passes
            .lock()
            .expect("first-pass set poisoned")
            .insert((counter, kind));
        if first {
            vp_obs::counter(counter).add(1);
        }
    }

    /// One fused matrix pass over `kind`'s reference trace for `cells`
    /// (assumed distinct). Quiet: publishes nothing per cell — callers
    /// account requests themselves.
    fn compute_matrix(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
    ) -> Vec<CellResult> {
        // Annotation/merge cost lands in their own spans, outside
        // `predict`.
        let mut plan = SweepPlan::new();
        let tables = self.directive_tables(kind, cells.iter().map(|c| c.1), |program| {
            plan.add_directives(program)
        });
        for (&(config, _), table) in cells.iter().zip(tables) {
            plan.add_cell(config, table);
        }
        self.count_first_pass("replay.matrix_traces", kind);
        let replay_panic = |source| -> ! {
            panic!(
                "{}",
                TraceError::Replay {
                    key: TraceKey::new(kind, InputSet::reference(), self.limits),
                    source,
                }
            )
        };
        // The attributed kernel is a separate code path inside the
        // request so that with attribution off the hot loop runs the
        // exact batched instruction stream (observation-only contract:
        // byte-identical stdout, negligible wall-clock delta).
        let attribution = crate::attribution::enabled();
        let response = if let Some(pool) = self.streaming {
            // Streaming: simulate the bare reference program (directive
            // annotations never influence execution — the plan's tables
            // carry them) and predict concurrently; no resident trace.
            let program = self.reference_program(kind, None);
            let _span = vp_obs::span("predict");
            let shards = crate::replay::auto_shards(self.jobs, usize::MAX);
            ReplayRequest::stream(&program, self.limits)
                .plan(plan)
                .attribution(attribution)
                .shards(shards)
                .block_pool(pool)
                .run()
                .unwrap_or_else(|source| replay_panic(source))
        } else {
            // Materialise (or fetch) the memoised trace outside the
            // predict phase: capture cost is accounted to its own
            // `capture` span.
            let trace = self.trace(kind, InputSet::reference());
            let _span = vp_obs::span("predict");
            let shards = crate::replay::auto_shards(self.jobs, trace.len());
            ReplayRequest::batch(&trace)
                .plan(plan)
                .attribution(attribution)
                .shards(shards)
                .jobs(self.jobs)
                .run()
                .unwrap_or_else(|source| replay_panic(source))
        };
        response
            .cells
            .into_iter()
            .map(|cell| CellResult {
                stats: cell.outcome.stats,
                occupancy: cell.outcome.occupancy,
                attribution: cell.attribution.map(Arc::new),
            })
            .collect()
    }

    /// Replays the reference input through the abstract ILP machine.
    /// `threshold` selects the annotated binary the value predictor reads
    /// its directives from, as for [`Suite::predictor_stats`].
    pub fn ilp(&self, kind: WorkloadKind, config: IlpConfig, threshold: Option<f64>) -> IlpResult {
        self.ilp_plan(kind, &[(config, threshold)])
            .pop()
            .expect("one-machine plan returns one result")
    }

    /// [`Suite::ilp`] for many machines at once: every requested
    /// `(config, threshold)` machine over `kind`'s reference trace, in
    /// request order.
    ///
    /// The requests form one [`IlpPlan`], so the trace is replayed **once**
    /// whatever the number of machines, and requests that would compute
    /// the same schedule (equal configurations reading identical directive
    /// tables) share one machine. Results are identical to per-machine
    /// [`Suite::ilp`] calls.
    pub fn ilp_plan(
        &self,
        kind: WorkloadKind,
        machines: &[(IlpConfig, Option<f64>)],
    ) -> Vec<IlpResult> {
        if machines.is_empty() {
            return Vec::new();
        }
        let mut plan = IlpPlan::new();
        let tables = self.directive_tables(kind, machines.iter().map(|m| m.1), |program| {
            plan.add_directives(program)
        });
        for ((config, _), table) in machines.iter().zip(tables) {
            plan.add_machine(config.clone(), table);
        }
        self.count_first_pass("ilp.traces", kind);
        let mut bank = plan.into_bank();
        vp_obs::counter("ilp.passes").add(1);
        vp_obs::counter("ilp.machines_requested").add(bank.requests() as u64);
        vp_obs::counter("ilp.machines_run").add(bank.machines() as u64);
        // Directives never change execution: the bank reads each machine's
        // annotation from its own table, so the bare program drives the
        // replay.
        let program = self.reference_program(kind, None);
        let _span = vp_obs::span("ilp");
        self.traces
            .replay_into(
                kind,
                InputSet::reference(),
                self.limits,
                &program,
                &mut bank,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        bank.finish()
    }
}

/// Folds one run's predictor statistics into the process-wide
/// observability counters (table pressure + per-classification hit rates).
fn publish_predictor_metrics(stats: &PredictorStats) {
    vp_obs::counter("predictor.accesses").add(stats.accesses);
    vp_obs::counter("predictor.hits").add(stats.hits);
    vp_obs::counter("predictor.raw_correct").add(stats.raw_correct);
    vp_obs::counter("predictor.speculated").add(stats.speculated);
    vp_obs::counter("predictor.speculated_correct").add(stats.speculated_correct);
    vp_obs::counter("predictor.allocations").add(stats.allocations);
    vp_obs::counter("predictor.evictions").add(stats.evictions);
    vp_obs::counter("predictor.set_conflicts").add(stats.set_conflicts);
    vp_obs::counter("predictor.stride.accesses").add(stats.stride_accesses);
    vp_obs::counter("predictor.stride.correct").add(stats.stride_correct);
    vp_obs::counter("predictor.last_value.accesses").add(stats.last_value_accesses);
    vp_obs::counter("predictor.last_value.correct").add(stats.last_value_correct);
    vp_obs::counter("predictor.unclassified.accesses").add(stats.unclassified_accesses);
    vp_obs::counter("predictor.unclassified.correct").add(stats.unclassified_correct);
}

impl Default for Suite {
    fn default() -> Self {
        Suite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_images_are_memoised() {
        let s = Suite::with_train_runs(2);
        let a = s.train_images(WorkloadKind::Compress);
        let b = s.train_images(WorkloadKind::Compress);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Training profiles are simulated straight into the collector
        // (their single consumer): nothing is recorded without a spill
        // directory asking for cross-process reuse.
        assert_eq!(s.trace_stats().requests, 0);
    }

    #[test]
    fn annotated_threshold_monotonicity() {
        let s = Suite::with_train_runs(2);
        let (_, strict) = s.annotated(WorkloadKind::Ijpeg, 0.9);
        let (_, lax) = s.annotated(WorkloadKind::Ijpeg, 0.5);
        assert!(lax.tagged() >= strict.tagged());
        // At 90% ijpeg's loop machinery is tagged stride, while its sample
        // loads and accumulations stay below the threshold.
        assert!(strict.stride_tagged >= 5, "{strict}");
        assert!(strict.below_threshold > 0, "{strict}");
        assert!(strict.tagged() < strict.producers());
    }

    #[test]
    fn reference_program_carries_directives_only_when_asked() {
        let s = Suite::with_train_runs(2);
        let bare = s.reference_program(WorkloadKind::M88ksim, None);
        let tagged = s.reference_program(WorkloadKind::M88ksim, Some(0.9));
        assert_eq!(bare.directive_counts().1 + bare.directive_counts().2, 0);
        let (_, lv, st) = tagged.directive_counts();
        assert!(lv + st > 0, "m88ksim must have predictable instructions");
        // Same text modulo directives, reference data.
        assert_eq!(bare.len(), tagged.len());
        assert_eq!(bare.data(), tagged.data());
    }

    #[test]
    fn mgrid_phase_images_are_disjoint() {
        let s = Suite::with_train_runs(1);
        let (init, comp) = s.reference_phase_images(WorkloadKind::Mgrid);
        assert!(!init.is_empty() && !comp.is_empty());
        for (addr, _) in init.iter() {
            assert!(comp.get(addr).is_none(), "{addr} in both phases");
        }
    }

    #[test]
    fn reference_trace_is_simulated_once_across_consumers() {
        let s = Suite::with_train_runs(1);
        let kind = WorkloadKind::Compress;
        let _ = s.reference_image(kind);
        let _ = s.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None);
        let _ = s.predictor_stats(
            kind,
            PredictorConfig::spec_table_stride_profile(),
            Some(0.9),
        );
        let _ = s.ilp(kind, IlpConfig::paper_vp_fsm(), None);
        let stats = s.trace_stats();
        // The reference input is simulated exactly once; every further
        // consumer (predictor configurations, the ILP machine) replays
        // the memoised trace from memory.
        assert_eq!(stats.captures, 1);
        assert!(stats.memory_hits >= 3, "{stats:?}");
    }

    #[test]
    fn streaming_suite_matches_batch_suite() {
        let batch = Suite::with_train_runs(1);
        let streamed = Suite::with_train_runs(1).with_jobs(2).with_streaming(4);
        let kind = WorkloadKind::Compress;
        let cells = [
            (PredictorConfig::spec_table_stride_fsm(), None),
            (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
        ];
        assert_eq!(
            batch.predictor_stats_matrix(kind, &cells),
            streamed.predictor_stats_matrix(kind, &cells),
        );
        // Streaming sweeps never materialise the reference trace.
        assert_eq!(streamed.trace_stats().captures, 0);
    }

    #[test]
    fn parallel_suite_matches_serial_suite() {
        let serial = Suite::with_train_runs(2);
        let threaded = Suite::with_train_runs(2).with_jobs(4);
        let kind = WorkloadKind::Ijpeg;
        assert_eq!(serial.train_images(kind), threaded.train_images(kind));
        assert_eq!(
            serial.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None),
            threaded.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None),
        );
    }
}
