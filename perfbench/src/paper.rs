//! The paper pipeline as the benchmark drives it.
//!
//! [`render_repro`] is the untraced evaluation: the experiment sequence
//! `repro-all` runs, rendered to the same text. The rest of the module is
//! the same work decomposed into direct calls on each crate's public entry
//! points, every call wrapped in a [`Spans`] span, for the traced run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use provp_core::experiments::{
    classification, fig_2_2, fig_2_3, fig_4, finite_table, table_2_1, table_5_1, table_5_2,
};
use provp_core::replay::stream::DEFAULT_BLOCK_POOL;
use provp_core::{ReplayRequest, ReplayResponse, Suite, SweepPlan, TraceStore};
use vp_compiler::{annotate, ThresholdPolicy};
use vp_ilp::{IlpAnalyzer, IlpConfig, IlpResult};
use vp_isa::Program;
use vp_predictor::PredictorConfig;
use vp_profile::{merge, ProfileCollector, ProfileImage};
use vp_sim::{run, NullTracer, RunLimits, Trace};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::spans::Spans;

/// Span names: one per public entry point the traced run times.
pub mod names {
    /// `vp_sim::run` with no consumer.
    pub const SIM_RUN: &str = "vp_sim::run";
    /// `Trace::capture`.
    pub const CAPTURE: &str = "Trace::capture";
    /// `Trace::replay` with no consumer.
    pub const REPLAY: &str = "Trace::replay";
    /// `Trace::write_to` (the provptr3 encoder).
    pub const WRITE: &str = "Trace::write_to";
    /// `Trace::read_from` (the provptr3 decoder).
    pub const READ: &str = "Trace::read_from";
    /// `TraceStore::get`.
    pub const STORE_GET: &str = "TraceStore::get";
    /// `vp_sim::run` feeding a `ProfileCollector`.
    pub const COLLECT_RUN: &str = "ProfileCollector::run";
    /// `Trace::replay` feeding a `ProfileCollector`.
    pub const COLLECT_REPLAY: &str = "ProfileCollector::replay";
    /// `merge::intersect_and_sum`.
    pub const MERGE: &str = "merge::intersect_and_sum";
    /// `vp_compiler::annotate`.
    pub const ANNOTATE: &str = "vp_compiler::annotate";
    /// `ReplayRequest::batch(..).run()`, plain kernel.
    pub const BATCH: &str = "ReplayRequest::batch";
    /// `ReplayRequest::batch(..).attribution(true).run()`.
    pub const BATCH_ATTRIBUTED: &str = "ReplayRequest::batch+attribution";
    /// `ReplayRequest::stream(..).attribution(true).run()`.
    pub const STREAM: &str = "ReplayRequest::stream";
    /// `Trace::replay` feeding an `IlpAnalyzer`.
    pub const ILP: &str = "IlpAnalyzer";
}

use names::*;

/// The layer (module) a span name belongs to.
#[must_use]
pub fn layer_of(name: &str) -> &'static str {
    match name {
        SIM_RUN | CAPTURE | REPLAY => "vp-sim",
        COLLECT_RUN | COLLECT_REPLAY | MERGE => "vp-profile",
        ANNOTATE => "vp-compiler",
        BATCH | BATCH_ATTRIBUTED => "replay",
        STREAM => "replay.stream",
        ILP => "vp-ilp",
        STORE_GET | WRITE | READ => "trace_store",
        _ => "suite",
    }
}

/// Every layer, in report order; `suite` is the time no layer span covers.
pub const LAYERS: [&str; 8] = [
    "vp-sim",
    "vp-profile",
    "vp-compiler",
    "replay",
    "replay.stream",
    "vp-ilp",
    "trace_store",
    "suite",
];

/// Simulation limits every experiment uses.
#[must_use]
pub fn limits() -> RunLimits {
    RunLimits::default()
}

/// The evaluation `repro-all --jobs=1` prints, rendered by `suite`.
#[must_use]
pub fn render_repro(suite: &Suite) -> String {
    let kinds = &WorkloadKind::ALL;
    let int_kinds: Vec<WorkloadKind> = kinds.iter().copied().filter(|k| !k.is_fp()).collect();
    let fp_kinds: Vec<WorkloadKind> = kinds.iter().copied().filter(|k| k.is_fp()).collect();
    let mut out = String::new();
    let mut put = |block: String| {
        let _ = writeln!(out, "{block}\n");
    };
    put(table_2_1::run(suite, &int_kinds, &fp_kinds).render());
    put(fig_2_2::run(suite, kinds).render());
    put(fig_2_3::run(suite, kinds).render());
    let fig4 = fig_4::run(suite, kinds);
    put(fig4.render(fig_4::Which::VMax));
    put(fig4.render(fig_4::Which::VAverage));
    put(fig4.render(fig_4::Which::SAverage));
    suite.prime_matrix(kinds, &sweep_cells());
    let cls = classification::run(suite, kinds);
    put(cls.render(classification::Which::Mispredictions));
    put(cls.render(classification::Which::CorrectPredictions));
    put(table_5_1::run(suite, kinds).render());
    let ft = finite_table::run(suite, kinds);
    put(ft.render(finite_table::Which::Correct));
    put(ft.render(finite_table::Which::Incorrect));
    let _ = writeln!(out, "{}", table_5_2::run(suite, kinds).render());
    out
}

/// The paper's predictor sweep per workload: the union of the cells
/// classification, Table 5.1 and the finite-table figures request.
#[must_use]
pub fn sweep_cells() -> Vec<(PredictorConfig, Option<f64>)> {
    let mut cells = classification::matrix_cells();
    cells.extend(table_5_1::matrix_cells());
    cells.extend(finite_table::matrix_cells());
    cells
}

/// Per-mille key of an accuracy threshold.
fn th_key(threshold: f64) -> u32 {
    (threshold * 1000.0).round() as u32
}

/// The Phase-2 training profile of one input, simulating straight into
/// the collector.
///
/// # Errors
///
/// Returns a message when the workload faults.
pub fn collect_run(
    spans: &Spans,
    kind: WorkloadKind,
    input: InputSet,
) -> Result<ProfileImage, String> {
    let program = Workload::new(kind).program(&input);
    let mut collector = ProfileCollector::new(format!("{kind}/{input}"));
    spans
        .call(
            COLLECT_RUN,
            || run(&program, &mut collector, limits()),
            |r| r.as_ref().map_or(0, vp_sim::RunSummary::instructions),
        )
        .map_err(|e| format!("{kind}/{input} faulted while profiling: {e}"))?;
    Ok(collector.into_image())
}

/// The profile of a recorded trace, replayed into a collector.
///
/// # Errors
///
/// Returns a message when the trace does not replay against `program`.
pub fn collect_replay(
    spans: &Spans,
    trace: &Trace,
    program: &Program,
    mut collector: ProfileCollector,
) -> Result<ProfileCollector, String> {
    spans
        .call(
            COLLECT_REPLAY,
            || trace.replay(program, &mut collector),
            |_| trace.len() as u64,
        )
        .map_err(|e| format!("profile replay failed: {e}"))?;
    Ok(collector)
}

/// The Phase-3 inputs of one workload's reference evaluation: the bare
/// reference program, the program annotated at each paper threshold, and
/// the fused sweep plan over them.
pub struct SweepSetup {
    /// Workload.
    pub kind: WorkloadKind,
    /// The reference-input program without trained directives.
    pub bare: Program,
    /// `(threshold, reference program carrying that threshold's directives)`.
    pub annotated: Vec<(f64, Program)>,
    /// Every requested sweep cell over the directive tables above.
    pub plan: SweepPlan,
    /// Cells requested (before the kernel dedupes them).
    pub requested: usize,
}

/// Merges the training images and annotates the reference program at
/// every paper threshold. With `merge_per_threshold` the merge repeats
/// before each annotation, as `Suite::annotated` does.
#[must_use]
pub fn sweep_setup(
    spans: &Spans,
    kind: WorkloadKind,
    images: &[ProfileImage],
    merge_per_threshold: bool,
) -> SweepSetup {
    let workload = Workload::new(kind);
    let base = workload.program(&InputSet::train(0)).without_directives();
    let bare = workload.program(&InputSet::reference());
    let do_merge = || {
        spans.call(
            MERGE,
            || merge::intersect_and_sum(images).image,
            |_| images.len() as u64,
        )
    };
    let mut merged = if merge_per_threshold {
        None
    } else {
        Some(do_merge())
    };
    let mut annotated = Vec::new();
    for &th in &ThresholdPolicy::PAPER_SWEEP {
        let image = if merge_per_threshold {
            merged.insert(do_merge())
        } else {
            merged.as_ref().expect("merged once up front")
        };
        let out = spans.call(
            ANNOTATE,
            || annotate(&base, image, &ThresholdPolicy::new(th)),
            |_| base.len() as u64,
        );
        let tagged = out.program();
        let program =
            bare.with_directives(|addr, _| tagged.text()[addr.index() as usize].directive);
        annotated.push((th, program));
    }
    let mut plan = SweepPlan::new();
    let mut tables: HashMap<Option<u32>, usize> = HashMap::new();
    tables.insert(None, plan.add_directives(&bare));
    for (th, program) in &annotated {
        tables.insert(Some(th_key(*th)), plan.add_directives(program));
    }
    let cells = sweep_cells();
    for &(config, th) in &cells {
        plan.add_cell(config, tables[&th.map(th_key)]);
    }
    SweepSetup {
        kind,
        bare,
        annotated,
        plan,
        requested: cells.len(),
    }
}

/// Runs one fused sweep request inside a span named `name`, counting the
/// deduped cells it replayed. `value_events` is the number of value
/// events of the input the request covers.
///
/// # Errors
///
/// Returns a message when the replay fails.
pub fn sweep_request(
    spans: &Spans,
    name: &'static str,
    request: ReplayRequest<'_>,
    value_events: u64,
) -> Result<ReplayResponse, String> {
    let fused = vp_obs::counter("replay.fused_cells");
    let blocks = vp_obs::counter("stream.blocks");
    let stalls = vp_obs::counter("stream.stalls");
    let waited = vp_obs::counter("stream.producer_wait_ms");
    let before = [fused.get(), blocks.get(), stalls.get(), waited.get()];
    let response = spans.call(
        name,
        || request.run(),
        |_| (fused.get() - before[0]) * value_events,
    );
    spans.count("replay.cells_fused", fused.get() - before[0]);
    if name == STREAM {
        spans.count("replay.stream.blocks", blocks.get() - before[1]);
        spans.count("replay.stream.stalls", stalls.get() - before[2]);
        spans.count("replay.stream.producer_wait_ms", waited.get() - before[3]);
    }
    response.map_err(|e| format!("{name} failed: {e}"))
}

/// The ILP configurations Table 5.2 evaluates, with the threshold whose
/// directives each reads.
fn ilp_runs() -> Vec<(IlpConfig, Option<f64>)> {
    let mut runs = vec![
        (IlpConfig::paper_no_vp(), None),
        (IlpConfig::paper_vp_fsm(), None),
    ];
    runs.extend(
        ThresholdPolicy::PAPER_SWEEP
            .iter()
            .map(|&th| (IlpConfig::paper_vp_profile(), Some(th))),
    );
    runs
}

/// Replays `trace` into one ILP machine.
///
/// # Errors
///
/// Returns a message when the trace does not replay against `program`.
pub fn ilp_replay(
    spans: &Spans,
    trace: &Trace,
    program: &Program,
    config: IlpConfig,
) -> Result<IlpResult, String> {
    let mut analyzer = IlpAnalyzer::new(config);
    spans
        .call(
            ILP,
            || trace.replay(program, &mut analyzer),
            |_| trace.len() as u64,
        )
        .map_err(|e| format!("ILP replay failed: {e}"))?;
    spans.count("vp-ilp.replays", 1);
    Ok(analyzer.finish())
}

/// Where the traced evaluation gets a trace from.
pub enum TraceSource<'a> {
    /// `Trace::capture`, kept in memory only.
    Capture,
    /// `Trace::capture`, then `Trace::write_to` into a spill file in the
    /// directory, named as `TraceStore` names it.
    CaptureAndSpill(&'a Path),
    /// `TraceStore::get` (a disk hit when the spill file exists).
    Store(&'a TraceStore),
}

impl TraceSource<'_> {
    /// The trace of `kind` under `input`.
    ///
    /// # Errors
    ///
    /// Returns a message when simulation or the store fails.
    pub fn get(
        &self,
        spans: &Spans,
        kind: WorkloadKind,
        input: InputSet,
    ) -> Result<std::sync::Arc<Trace>, String> {
        let capture = || {
            let program = Workload::new(kind).program(&input);
            spans
                .call(
                    CAPTURE,
                    || Trace::capture(&program, limits()),
                    |t| t.as_ref().map_or(0, |t| t.len() as u64),
                )
                .map_err(|e| format!("{kind}/{input} faulted while capturing: {e}"))
        };
        match self {
            TraceSource::Capture => Ok(capture()?.into()),
            TraceSource::CaptureAndSpill(dir) => {
                let trace = capture()?;
                let key = provp_core::TraceKey::new(kind, input, limits());
                let path = dir.join(key.file_name());
                let written =
                    spans.call(WRITE, || write_spill(&trace, &path), |_| trace.len() as u64);
                match written {
                    Ok(bytes) => spans.count("trace_store.spill_bytes", bytes),
                    Err(_) => spans.count("trace_store.spill_failures", 1),
                }
                spans.count("trace_store.spill_events", trace.len() as u64);
                Ok(trace.into())
            }
            TraceSource::Store(store) => spans
                .call(
                    STORE_GET,
                    || store.get(kind, input, limits()),
                    |t| t.as_ref().map_or(0, |t| t.len() as u64),
                )
                .map_err(|e| e.to_string()),
        }
    }
}

/// Writes `trace` to `path` the way the trace store spills (temporary
/// file, then rename) and returns the file's size.
fn write_spill(trace: &Trace, path: &Path) -> io::Result<u64> {
    let tmp = path.with_extension("tmp");
    let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
    trace.write_to(&mut out)?;
    io::Write::flush(&mut out)?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(std::fs::metadata(path)?.len())
}

/// What one workload's traced evaluation produced, for checking.
pub struct KindOutcome {
    /// The reference trace, kept for the probes.
    pub trace: std::sync::Arc<Trace>,
    /// The reference-input profile.
    pub reference_image: ProfileImage,
    /// The sweep inputs.
    pub sweep: SweepSetup,
    /// Stats of every requested cell, in plan order.
    pub sweep_stats: Vec<vp_predictor::PredictorStats>,
}

/// One workload's share of the paper evaluation as direct layer calls:
/// training profiles, the reference trace and profile, merge and
/// annotation at every threshold, one fused batch sweep and the seven
/// Table 5.2 ILP replays. Training profiles simulate straight into the
/// collector when `train` is `None`, and replay a trace from it
/// otherwise.
///
/// # Errors
///
/// Returns a message when any layer call fails.
pub fn evaluate_kind(
    spans: &Spans,
    kind: WorkloadKind,
    train: Option<&TraceSource<'_>>,
    reference: &TraceSource<'_>,
) -> Result<KindOutcome, String> {
    let workload = Workload::new(kind);
    let mut images = Vec::new();
    for input in InputSet::train_set(vp_workloads::Workload::PAPER_TRAIN_RUNS) {
        let image = match train {
            None => collect_run(spans, kind, input)?,
            Some(source) => {
                let trace = source.get(spans, kind, input)?;
                let program = workload.program(&input);
                let collector = ProfileCollector::new(format!("{kind}/{input}"));
                collect_replay(spans, &trace, &program, collector)?.into_image()
            }
        };
        images.push(image);
    }
    let ref_input = InputSet::reference();
    let trace = reference.get(spans, kind, ref_input)?;
    let program = workload.program(&ref_input);
    let name = format!("{}/{ref_input}", workload.name());
    let reference_image =
        collect_replay(spans, &trace, &program, ProfileCollector::new(name.clone()))?.into_image();
    if let Some(split) = workload.phase_split() {
        let collector = ProfileCollector::with_phase_split(name, split);
        let _ = collect_replay(spans, &trace, &program, collector)?.into_phase_images();
    }
    let sweep = sweep_setup(spans, kind, &images, true);
    let value_events = trace.columns().dest_count() as u64;
    let request = ReplayRequest::batch(&trace).plan(sweep.plan.clone());
    spans.count("replay.cells_requested", sweep.requested as u64);
    let response = sweep_request(spans, BATCH, request, value_events)?;
    let sweep_stats = response.cells.iter().map(|c| c.outcome.stats).collect();
    for (config, th) in ilp_runs() {
        let program = match th {
            None => &sweep.bare,
            Some(th) => annotated_at(&sweep, th),
        };
        ilp_replay(spans, &trace, program, config)?;
    }
    Ok(KindOutcome {
        trace,
        reference_image,
        sweep,
        sweep_stats,
    })
}

fn annotated_at(sweep: &SweepSetup, th: f64) -> &Program {
    &sweep
        .annotated
        .iter()
        .find(|(t, _)| th_key(*t) == th_key(th))
        .expect("every paper threshold is annotated")
        .1
}

/// Which probe calls a workload needs beyond its own work.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeSet {
    /// Also time the ILP analyzer (for workloads that never run it).
    pub ilp: bool,
    /// Also time a reference-profile replay.
    pub collect_replay: bool,
    /// Also time a plain batch sweep.
    pub batch: bool,
    /// Also time an attributed streaming sweep.
    pub stream: bool,
    /// Also time the in-memory encoder.
    pub encode: bool,
}

/// Extra calls made only to measure per-item costs on the reference
/// input: the simulator with no consumer and with a profile collector
/// (the collector's cost is the difference), the replay loop with no
/// consumer (the baseline the ILP cost is net of), the decoder, an
/// attributed batch sweep, and whatever `extra` asks for. They run under a `probe` root, so they
/// never count towards a workload's layer shares.
///
/// # Errors
///
/// Returns a message when any probe call fails.
pub fn probe_kind(
    spans: &Spans,
    trace: &Trace,
    sweep: &SweepSetup,
    extra: ProbeSet,
) -> Result<(), String> {
    spans
        .call(
            SIM_RUN,
            || run(&sweep.bare, &mut NullTracer, limits()),
            |r| r.as_ref().map_or(0, vp_sim::RunSummary::instructions),
        )
        .map_err(|e| format!("{} faulted: {e}", sweep.kind))?;
    collect_run(spans, sweep.kind, InputSet::reference())?;
    spans
        .call(
            REPLAY,
            || trace.replay(&sweep.bare, &mut NullTracer),
            |_| trace.len() as u64,
        )
        .map_err(|e| format!("replay failed: {e}"))?;
    let mut bytes = Vec::new();
    if extra.encode {
        spans
            .call(WRITE, || trace.write_to(&mut bytes), |_| trace.len() as u64)
            .map_err(|e| format!("encode failed: {e}"))?;
        spans.count("trace_store.spill_bytes", bytes.len() as u64);
        spans.count("trace_store.spill_events", trace.len() as u64);
    } else {
        trace
            .write_to(&mut bytes)
            .map_err(|e| format!("encode failed: {e}"))?;
    }
    let decoded = spans
        .call(
            READ,
            || Trace::read_from(bytes.as_slice()),
            |_| trace.len() as u64,
        )
        .map_err(|e| format!("decode failed: {e}"))?;
    if decoded != *trace {
        return Err(format!("{}: decoded trace differs", sweep.kind));
    }
    drop(decoded);
    let value_events = trace.columns().dest_count() as u64;
    let attributed = ReplayRequest::batch(trace)
        .plan(sweep.plan.clone())
        .attribution(true);
    sweep_request(spans, BATCH_ATTRIBUTED, attributed, value_events)?;
    if extra.batch {
        let plain = ReplayRequest::batch(trace).plan(sweep.plan.clone());
        sweep_request(spans, BATCH, plain, value_events)?;
    }
    if extra.stream {
        let streamed = stream_request(&sweep.bare, &sweep.plan);
        sweep_request(spans, STREAM, streamed, value_events)?;
    }
    if extra.ilp {
        ilp_replay(spans, trace, &sweep.bare, IlpConfig::paper_vp_fsm())?;
    }
    if extra.collect_replay {
        let collector = ProfileCollector::new(sweep.kind.name());
        collect_replay(spans, trace, &sweep.bare, collector)?;
    }
    Ok(())
}

/// The attributed streaming request `sweep-stream` issues per input: one
/// producer thread and one consumer shard.
#[must_use]
pub fn stream_request<'a>(program: &'a Program, plan: &SweepPlan) -> ReplayRequest<'a> {
    ReplayRequest::stream(program, limits())
        .plan(plan.clone())
        .attribution(true)
        .shards(1)
        .block_pool(DEFAULT_BLOCK_POOL)
}
