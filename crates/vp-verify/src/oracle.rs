//! The differential oracle: one fuzzed program, every optimised layer of
//! the stack checked against its reference model.
//!
//! A single [`run_case`] performs, in order:
//!
//! 1. **Simulation differential** — the optimised [`vp_sim`] machine (with
//!    the columnar [`TraceRecorder`] attached) against the row-oriented
//!    [`ref_run`](crate::refsim::ref_run) interpreter: identical run
//!    status, retired-instruction count, retirement event stream, final
//!    register files and final memory.
//! 2. **Serialisation oracle** — the `provptr3` codec against the
//!    streaming reference codec ([`crate::refcodec`]): `write_to` must
//!    emit exactly the reference encoder's bytes, both decoders must
//!    return the original columns, and on seeded bit flips, truncations
//!    and scribbles of those bytes the two decoders must agree on the
//!    decoded columns or on the [`TraceError`] variant.
//! 3. **Predictor differential** — for a panel of predictor
//!    configurations, the naive [`ref_predict`](crate::refpred::ref_predict)
//!    models against (a) the real predictor fed directly, (b) a
//!    sequential [`ReplayRequest`] replay, and (c) a PC-sharded parallel
//!    one: identical [`PredictorStats`] and occupancy.
//! 4. **Attribution oracle** — the attributed replay
//!    ([`ReplayRequest::attribution`]) must leave the stats untouched
//!    (observation-only), and at 1 and at 3 shards its per-PC
//!    [`AttributionTable`] must equal the per-event reference: every
//!    [`vp_predictor::Access`] the directly driven predictor of stage
//!    3(a) returns, folded in with [`AttributionTable::observe`]. Its
//!    totals must reconcile *exactly* with the [`PredictorStats`]
//!    (every access accounted, every raw miss charged to one cause).
//! 5. **Matrix oracle** — the fused sweep ([`ReplayRequest`] over the
//!    whole plan) over every oracle configuration (with a duplicate cell
//!    and a second, directive-stripped annotation table in the plan)
//!    must return, at any shard count, exactly the grid that per-cell
//!    replays produce.
//! 6. **Profile oracle** — the dense Phase-2
//!    [`ProfileCollector`] against the map-based
//!    [`RefProfileCollector`], as a
//!    plain collector and with a phase split: equal [`ProfileImage`]s.
//! 7. **ILP oracle** — for a panel of abstract-machine configurations
//!    ([`ilp_oracle_configs`]) under the tagged and the
//!    directive-stripped program, the map-based
//!    [`RefIlpMachine`], one replay per
//!    configuration, against both the optimised [`IlpAnalyzer`] and the
//!    fused [`IlpPlan`] bank that runs every machine from one replay:
//!    equal [`IlpResult`]s.
//! 8. **Streaming oracle** — the bounded-memory streaming engine
//!    ([`ReplayRequest::stream`]), which re-simulates the program and
//!    predicts concurrently without a resident trace, must reproduce the
//!    batch grid bit-identically at every tested shard × block-pool
//!    combination, including attribution tables, which must also equal
//!    the per-event reference.
//!
//! Any mismatch is returned as a typed [`Divergence`]; `Ok` carries the
//! captured trace so the fuzz loop can fold it into coverage.

use std::error::Error;
use std::fmt;

use provp_core::{ReplayRequest, SweepPlan};
use vp_ilp::{BranchConfig, IlpAnalyzer, IlpConfig, IlpPlan, IlpResult};
use vp_isa::{Directive, InstrAddr, Program, Reg, RegClass};
use vp_predictor::{
    AttributionTable, ClassifierKind, PredictorConfig, PredictorStats, TableGeometry,
};
use vp_profile::{ProfileCollector, ProfileImage};
use vp_rng::Rng;
use vp_sim::record::{first_divergence, TraceDivergence, TraceRecorder};
use vp_sim::{runner, Machine, RunLimits, Trace, TraceError, Tracer};

use crate::refcodec::{ref_read_columns, ref_write_columns};
use crate::refilp::RefIlpMachine;
use crate::refpred::ref_predict;
use crate::refprof::RefProfileCollector;
use crate::refsim::ref_run;

/// A mismatch between the optimised stack and its reference model.
#[derive(Debug)]
pub enum Divergence {
    /// Run status / fault / retired-count mismatch.
    Status {
        /// Optimised outcome rendered for humans.
        optimized: String,
        /// Reference outcome rendered for humans.
        reference: String,
    },
    /// The retirement event streams differ.
    Events(Box<TraceDivergence>),
    /// A final register differs (`class` is "int" or "fp").
    Register {
        /// Register file ("int" or "fp").
        class: &'static str,
        /// Register index.
        index: u8,
        /// Optimised final value (raw bits for fp).
        optimized: u64,
        /// Reference final value.
        reference: u64,
    },
    /// A final memory word differs.
    Memory {
        /// Word address.
        addr: u64,
        /// Optimised value.
        optimized: u64,
        /// Reference value.
        reference: u64,
    },
    /// The trace did not survive a serialisation round trip.
    Serialization {
        /// What went wrong, rendered for humans.
        detail: String,
        /// The underlying codec error, when one exists (pure value
        /// mismatches have none); exposed through
        /// [`std::error::Error::source`].
        source: Option<Box<dyn Error + Send + Sync>>,
    },
    /// A predictor's statistics or occupancy differ from the reference
    /// model.
    Predictor {
        /// `PredictorConfig::label()` of the diverging configuration.
        label: String,
        /// Which path diverged: "direct", "replay" or "sharded-replay".
        mode: &'static str,
        /// Human-readable field-level detail.
        detail: String,
    },
    /// The per-PC attribution layer broke its contract: the attributed
    /// replay perturbed the stats, the table differs across shard
    /// counts, or its totals fail to reconcile with [`PredictorStats`].
    Attribution {
        /// `PredictorConfig::label()` of the diverging configuration.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The fused sweep matrix diverged from per-cell replays.
    Matrix {
        /// `PredictorConfig::label()` of the diverging cell's
        /// configuration, with its plan position and annotation table.
        label: String,
        /// Shard count the fused replay ran at.
        shards: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The Phase-2 profile collector diverged from the reference
    /// collector.
    Profile {
        /// Which collector diverged: "plain" or "phase-split".
        mode: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The abstract ILP machine diverged from the reference machine.
    Ilp {
        /// The diverging machine: its configuration and annotation.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The streaming replay engine diverged from batch replay.
    Stream {
        /// `PredictorConfig::label()` of the diverging cell's
        /// configuration, with its plan position — or "whole plan".
        label: String,
        /// Shard (consumer) count the streamed replay ran at.
        shards: usize,
        /// Block-pool size the streamed replay ran with.
        pool: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Status {
                optimized,
                reference,
            } => write!(
                f,
                "run status diverges: optimized {optimized}, reference {reference}"
            ),
            Divergence::Events(d) => write!(f, "{d}"),
            Divergence::Register {
                class,
                index,
                optimized,
                reference,
            } => write!(
                f,
                "{class} register {index} diverges: optimized {optimized:#x}, reference {reference:#x}"
            ),
            Divergence::Memory {
                addr,
                optimized,
                reference,
            } => write!(
                f,
                "memory word {addr:#x} diverges: optimized {optimized:#x}, reference {reference:#x}"
            ),
            Divergence::Serialization { detail, .. } => {
                write!(f, "trace serialisation diverges: {detail}")
            }
            Divergence::Predictor {
                label,
                mode,
                detail,
            } => write!(f, "predictor `{label}` ({mode}) diverges: {detail}"),
            Divergence::Attribution { label, detail } => {
                write!(f, "attribution for `{label}` diverges: {detail}")
            }
            Divergence::Matrix {
                label,
                shards,
                detail,
            } => write!(
                f,
                "fused matrix cell `{label}` ({shards} shards) diverges: {detail}"
            ),
            Divergence::Profile { mode, detail } => {
                write!(f, "{mode} profile collector diverges: {detail}")
            }
            Divergence::Ilp { label, detail } => {
                write!(f, "ILP machine `{label}` diverges: {detail}")
            }
            Divergence::Stream {
                label,
                shards,
                pool,
                detail,
            } => write!(
                f,
                "streamed replay of `{label}` ({shards} shards, pool {pool}) diverges: {detail}"
            ),
        }
    }
}

impl Error for Divergence {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Divergence::Events(d) => Some(&**d),
            Divergence::Serialization {
                source: Some(e), ..
            } => Some(&**e as &(dyn Error + 'static)),
            _ => None,
        }
    }
}

/// The predictor configurations every fuzz case is checked under: both
/// paper baselines, infinite tables under both classification mechanisms,
/// a small thrash-prone table, a non-power-of-two geometry (modulo set
/// indexing), and the directive-routed hybrid.
#[must_use]
pub fn oracle_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::two_bit_counter(),
        },
        PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        },
        PredictorConfig::TableLastValue {
            geometry: TableGeometry::new(8, 2),
            classifier: ClassifierKind::two_bit_counter(),
        },
        PredictorConfig::TableTwoDelta {
            geometry: TableGeometry::new(12, 2),
            classifier: ClassifierKind::Directive,
        },
        PredictorConfig::Hybrid {
            stride: TableGeometry::new(4, 2),
            last_value: TableGeometry::new(8, 2),
        },
    ]
}

/// The abstract-machine configurations every fuzz case is checked under:
/// the three §5.3 machines, a narrow window with a heavy misprediction
/// penalty, a one-entry window behind a bimodal front end, and a gshare
/// front end small enough to alias.
#[must_use]
pub fn ilp_oracle_configs() -> Vec<IlpConfig> {
    vec![
        IlpConfig::paper_no_vp(),
        IlpConfig::paper_vp_fsm(),
        IlpConfig::paper_vp_profile(),
        IlpConfig::paper_vp_fsm().with_window(4).with_penalty(8),
        IlpConfig::paper_no_vp()
            .with_window(1)
            .with_branch(BranchConfig::Bimodal { entries: 16 }, 3),
        IlpConfig::paper_vp_profile().with_penalty(0).with_branch(
            BranchConfig::Gshare {
                entries: 64,
                history_bits: 4,
            },
            8,
        ),
    ]
}

/// Replays `trace` against `program` into `tracer`, mapping a replay
/// failure to `err`.
fn replay_into<T: Tracer>(
    trace: &Trace,
    program: &Program,
    mut tracer: T,
    err: impl FnOnce(String) -> Divergence,
) -> Result<T, Divergence> {
    trace
        .replay(program, &mut tracer)
        .map_err(|e| err(format!("replay failed: {e}")))?;
    Ok(tracer)
}

/// Stage 6: the dense profile collector against the map-based one, plain
/// and phase-split.
fn check_profiles(program: &Program, trace: &Trace) -> Result<(), Divergence> {
    let profile_err = |mode| move |detail| Divergence::Profile { mode, detail };
    let mismatch = |mode, opt: &ProfileImage, reference: &ProfileImage| Divergence::Profile {
        mode,
        detail: format!("images differ:\noptimized {opt:#?}\nreference {reference:#?}"),
    };

    let opt = replay_into(
        trace,
        program,
        ProfileCollector::new("oracle"),
        profile_err("plain"),
    )?
    .into_image();
    let reference = replay_into(
        trace,
        program,
        RefProfileCollector::new("oracle"),
        profile_err("plain"),
    )?;
    if opt != *reference.image() {
        return Err(mismatch("plain", &opt, reference.image()));
    }

    let split = InstrAddr::new(u32::try_from(program.len() / 2).unwrap_or(u32::MAX));
    let (init, comp) = replay_into(
        trace,
        program,
        ProfileCollector::with_phase_split("oracle", split),
        profile_err("phase-split"),
    )?
    .into_phase_images();
    let reference = replay_into(
        trace,
        program,
        RefProfileCollector::with_phase_split("oracle", split),
        profile_err("phase-split"),
    )?;
    if init != *reference.image() {
        return Err(mismatch("phase-split", &init, reference.image()));
    }
    let ref_comp = reference
        .comp_image()
        .expect("split collector has a comp image");
    if comp != *ref_comp {
        return Err(mismatch("phase-split", &comp, ref_comp));
    }
    Ok(())
}

/// Stage 7: every ILP oracle configuration under the tagged and the
/// stripped program, against the reference machine (one replay per
/// machine): the optimised analyzer, one replay per machine, and the
/// fused [`IlpPlan`] bank, one replay for all of them (with a duplicate
/// request, which must share a machine).
fn check_ilp(program: &Program, stripped: &Program, trace: &Trace) -> Result<(), Divergence> {
    let mut plan = IlpPlan::new();
    let mut requests: Vec<(String, IlpResult)> = Vec::new();
    for (annotation, annotated) in [("tagged", program), ("stripped", stripped)] {
        let table = plan.add_directives(annotated);
        for config in ilp_oracle_configs() {
            let label = format!("{} ({annotation})", ilp_label(&config));
            let ilp_err = |detail| Divergence::Ilp {
                label: label.clone(),
                detail,
            };
            let reference =
                replay_into(trace, annotated, RefIlpMachine::new(&config), ilp_err)?.finish();
            let opt =
                replay_into(trace, annotated, IlpAnalyzer::new(config.clone()), ilp_err)?.finish();
            check_ilp_result(&label, &opt, &reference)?;
            plan.add_machine(config, table);
            requests.push((label, reference));
        }
    }
    // Request 1 (VP + SC, tagged) again: it must share its machine.
    plan.add_machine(IlpConfig::paper_vp_fsm(), 0);
    requests.push(requests[1].clone());

    let bank = replay_into(trace, stripped, plan.into_bank(), |detail| {
        Divergence::Ilp {
            label: "fused plan".into(),
            detail,
        }
    })?;
    if bank.machines() >= bank.requests() {
        return Err(Divergence::Ilp {
            label: "fused plan".into(),
            detail: format!(
                "{} requests ran {} machines: the duplicate request did not share one",
                bank.requests(),
                bank.machines()
            ),
        });
    }
    for ((label, reference), fused) in requests.iter().zip(bank.finish()) {
        check_ilp_result(&format!("{label} [fused plan]"), &fused, reference)?;
    }
    Ok(())
}

/// A short human label for an abstract-machine configuration.
fn ilp_label(config: &IlpConfig) -> String {
    format!(
        "window {}, penalty {}, {}, branch {:?} +{}",
        config.window,
        config.penalty,
        config
            .predictor
            .as_ref()
            .map_or_else(|| "no VP".to_owned(), PredictorConfig::label),
        config.branch,
        config.branch_penalty
    )
}

fn check_ilp_result(label: &str, opt: &IlpResult, reference: &IlpResult) -> Result<(), Divergence> {
    if opt == reference {
        return Ok(());
    }
    Err(Divergence::Ilp {
        label: label.to_owned(),
        detail: format!("results differ:\noptimized {opt:#?}\nreference {reference:#?}"),
    })
}

// Seeded corruptions of each case's encoded trace: single-bit flips,
// truncations and multi-byte scribbles.
const BIT_FLIPS: usize = 4;
const TRUNCATIONS: usize = 2;
const SCRIBBLES: usize = 2;

fn serialization(detail: String, source: Option<Box<dyn Error + Send + Sync>>) -> Divergence {
    Divergence::Serialization { detail, source }
}

fn outcome_label(outcome: &Result<Trace, TraceError>) -> String {
    match outcome {
        Ok(trace) => format!("Ok({} events)", trace.len()),
        Err(e) => format!("Err({e})"),
    }
}

/// Stage 2: the `provptr3` codec against the streaming reference codec.
/// The corruptions are seeded from the encoding's checksum trailer, so a
/// case always replays (and shrinks) with the same corruptions.
fn check_serialization(trace: &Trace) -> Result<(), Divergence> {
    let mut bytes = Vec::new();
    if let Err(e) = trace.write_to(&mut bytes) {
        return Err(serialization(
            format!("write failed: {e}"),
            Some(Box::new(e)),
        ));
    }
    let mut reference = Vec::new();
    if let Err(e) = ref_write_columns(&mut reference, trace.columns()) {
        return Err(serialization(
            format!("reference write failed: {e}"),
            Some(Box::new(e)),
        ));
    }
    if bytes != reference {
        let at = bytes
            .iter()
            .zip(&reference)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(reference.len()));
        return Err(serialization(
            format!(
                "encoding differs from the reference encoder's at byte {at} \
                 ({} vs {} bytes)",
                bytes.len(),
                reference.len()
            ),
            None,
        ));
    }
    let decoders: [(&str, Result<Trace, TraceError>); 2] = [
        ("decoder", Trace::read_from(bytes.as_slice())),
        (
            "reference decoder",
            ref_read_columns(bytes.as_slice()).map(Trace::from_columns),
        ),
    ];
    for (name, decoded) in decoders {
        match decoded {
            Ok(back) if back == *trace => {}
            Ok(_) => {
                return Err(serialization(
                    format!("{name} round trip decoded different columns"),
                    None,
                ))
            }
            Err(e) => {
                return Err(serialization(
                    format!("{name} read failed: {e}"),
                    Some(Box::new(e)),
                ))
            }
        }
    }

    let len = bytes.len() as u64;
    let trailer: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("8-byte trailer");
    let mut rng = Rng::seed_from_u64(u64::from_le_bytes(trailer));
    let mut corruptions: Vec<(String, Vec<u8>)> = Vec::new();
    for _ in 0..BIT_FLIPS {
        let (at, bit) = (rng.below(len) as usize, rng.below(8));
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        corruptions.push((format!("flipping bit {bit} of byte {at}"), flipped));
    }
    for _ in 0..TRUNCATIONS {
        let cut = rng.below(len) as usize;
        corruptions.push((format!("truncating to {cut} bytes"), bytes[..cut].to_vec()));
    }
    for _ in 0..SCRIBBLES {
        let mut scribbled = bytes.clone();
        let count = rng.gen_range(1..9usize);
        for _ in 0..count {
            let at = rng.below(len) as usize;
            scribbled[at] ^= rng.gen_range(1..=u8::MAX);
        }
        corruptions.push((format!("{count} scribbles"), scribbled));
    }
    for (what, corrupted) in corruptions {
        let ours = Trace::read_from(corrupted.as_slice());
        let theirs = ref_read_columns(corrupted.as_slice()).map(Trace::from_columns);
        let agree = match (&ours, &theirs) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
            _ => false,
        };
        if !agree {
            return Err(serialization(
                format!(
                    "decoders disagree after {what}: decoder {}, reference {}",
                    outcome_label(&ours),
                    outcome_label(&theirs)
                ),
                None,
            ));
        }
    }
    Ok(())
}

/// Runs the full differential oracle on one program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; `Ok` carries the captured
/// trace.
pub fn run_case(program: &Program, max_instructions: u64) -> Result<Trace, Divergence> {
    let limits = RunLimits::with_max(max_instructions);

    // --- 1. simulation differential ---
    let mut machine = Machine::for_program(program);
    let mut recorder = TraceRecorder::new();
    let optimized = runner::run_on(&mut machine, program, &mut recorder, limits);
    let reference = ref_run(program, max_instructions);

    let status_matches = match (&optimized, &reference.status) {
        (Ok(s), Ok(r)) => s.status() == *r && s.instructions() == reference.retired,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if !status_matches {
        return Err(Divergence::Status {
            optimized: match &optimized {
                Ok(s) => format!("{:?} after {} instructions", s.status(), s.instructions()),
                Err(e) => format!("fault: {e}"),
            },
            reference: match &reference.status {
                Ok(r) => format!("{:?} after {} instructions", r, reference.retired),
                Err(e) => format!("fault: {e}"),
            },
        });
    }

    let cols = recorder.into_columns();
    if let Some(d) = first_divergence(reference.events.iter().cloned(), cols.iter()) {
        return Err(Divergence::Events(Box::new(d)));
    }

    for r in 0..32u8 {
        let opt = machine.read_reg(RegClass::Int, Reg::new(r));
        let reference_value = reference.int_regs[usize::from(r)];
        if opt != reference_value {
            return Err(Divergence::Register {
                class: "int",
                index: r,
                optimized: opt,
                reference: reference_value,
            });
        }
        let opt_fp = machine.read_reg(RegClass::Fp, Reg::new(r));
        let ref_fp = reference.fp_regs[usize::from(r)];
        if opt_fp != ref_fp {
            return Err(Divergence::Register {
                class: "fp",
                index: r,
                optimized: opt_fp,
                reference: ref_fp,
            });
        }
    }

    for (&addr, &value) in &reference.memory {
        let opt = machine.memory().read(addr);
        if opt != value {
            return Err(Divergence::Memory {
                addr,
                optimized: opt,
                reference: value,
            });
        }
    }

    // --- 2. serialisation oracle ---
    let trace = Trace::from_columns(cols);
    check_serialization(&trace)?;

    // --- 3. predictor differential ---
    let directives: Vec<Directive> = program.text().iter().map(|i| i.directive).collect();
    let values: Vec<(InstrAddr, u64)> = trace.columns().value_events().collect();
    let expected_values = reference.events.iter().filter(|e| e.dest.is_some()).count();
    if values.len() != expected_values {
        return Err(Divergence::Serialization {
            detail: format!(
                "value_events yields {} events, reference saw {expected_values} dest writes",
                values.len()
            ),
            source: None,
        });
    }

    for config in oracle_configs() {
        let (ref_stats, ref_occ) = ref_predict(&directives, &values, &config);

        // (a) the real predictor, fed directly; its per-event accesses
        // also build the attribution reference for stage 4.
        let (direct_stats, direct_occ, ref_table) = direct_replay(&config, &directives, &values);
        check_predictor(
            &config,
            "direct",
            (direct_stats, direct_occ),
            (ref_stats, ref_occ),
        )?;

        // (b) sequential replay, (c) PC-sharded parallel replay.
        for (mode, shards, jobs) in [("replay", 1usize, 1usize), ("sharded-replay", 3, 2)] {
            let outcome = ReplayRequest::batch(&trace)
                .single(program, config)
                .shards(shards)
                .jobs(jobs)
                .run()
                .map_err(|e| Divergence::Predictor {
                    label: config.label(),
                    mode,
                    detail: format!("replay failed: {e}"),
                })?
                .into_single()
                .outcome;
            check_predictor(
                &config,
                mode,
                (outcome.stats, outcome.occupancy),
                (ref_stats, ref_occ),
            )?;
        }

        // --- 4. attribution oracle ---
        let attr_err = |detail: String| Divergence::Attribution {
            label: config.label(),
            detail,
        };
        let attributed = |shards: usize, jobs: usize| {
            ReplayRequest::batch(&trace)
                .single(program, config)
                .attribution(true)
                .shards(shards)
                .jobs(jobs)
                .run()
                .map(|r| {
                    let cell = r.into_single();
                    (cell.outcome, cell.attribution.expect("attribution on"))
                })
        };
        let (seq_out, seq_table) =
            attributed(1, 1).map_err(|e| attr_err(format!("attributed replay failed: {e}")))?;
        // Observation-only: attribution must not perturb the replay.
        check_predictor(
            &config,
            "attributed-replay",
            (seq_out.stats, seq_out.occupancy),
            (ref_stats, ref_occ),
        )?;
        seq_table
            .reconcile(&seq_out.stats)
            .map_err(|e| attr_err(format!("totals fail to reconcile with stats: {e}")))?;
        if seq_table != ref_table {
            return Err(attr_err(
                "per-PC table differs from the per-event reference".into(),
            ));
        }
        let (par_out, par_table) = attributed(3, 2)
            .map_err(|e| attr_err(format!("sharded attributed replay failed: {e}")))?;
        if par_out.stats != seq_out.stats {
            return Err(attr_err(
                "sharded attributed replay changed the stats".into(),
            ));
        }
        if par_table != ref_table {
            return Err(attr_err(
                "per-PC table at 3 shards differs from the per-event reference".into(),
            ));
        }
    }

    // --- 5. matrix oracle ---
    // One fused pass over every oracle configuration, with a duplicate
    // cell (exercising the dedup path) and a second annotation table
    // (the directive-stripped program), checked cell by cell against
    // independent per-cell replays at each shard count.
    let stripped = program.without_directives();
    let mut plan = SweepPlan::new();
    let tagged_table = plan.add_directives(program);
    let stripped_table = plan.add_directives(&stripped);
    let configs = oracle_configs();
    // (config, annotation table, per-cell reference program).
    let mut matrix_cells: Vec<(PredictorConfig, usize, &Program)> = configs
        .iter()
        .map(|&c| (c, tagged_table, program))
        .collect();
    matrix_cells.push((configs[0], tagged_table, program));
    matrix_cells.push((configs[0], stripped_table, &stripped));
    matrix_cells.push((configs[1], stripped_table, &stripped));
    for &(config, table, _) in &matrix_cells {
        plan.add_cell(config, table);
    }
    let expected: Vec<_> = matrix_cells
        .iter()
        .map(|(config, _, cell_program)| {
            ReplayRequest::batch(&trace)
                .single(cell_program, *config)
                .run()
                .map(|r| r.into_single().outcome)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| Divergence::Matrix {
            label: "per-cell reference".into(),
            shards: 1,
            detail: format!("replay failed: {e}"),
        })?;
    let cell_label = |i: usize| {
        let (config, table, _) = &matrix_cells[i];
        format!("{} (cell {i}, table {table})", config.label())
    };
    for shards in [1usize, 3] {
        let fused = ReplayRequest::batch(&trace)
            .plan(plan.clone())
            .shards(shards)
            .jobs(2)
            .run()
            .map(|r| r.outcomes())
            .map_err(|e| Divergence::Matrix {
                label: "whole plan".into(),
                shards,
                detail: format!("fused replay failed: {e}"),
            })?;
        if fused.len() != matrix_cells.len() {
            return Err(Divergence::Matrix {
                label: "whole plan".into(),
                shards,
                detail: format!(
                    "fused replay returned {} outcomes for {} cells",
                    fused.len(),
                    matrix_cells.len()
                ),
            });
        }
        for (i, (f, e)) in fused.iter().zip(&expected).enumerate() {
            if f.stats != e.stats {
                return Err(Divergence::Matrix {
                    label: cell_label(i),
                    shards,
                    detail: format!(
                        "stats differ:\nfused {:#?}\nper-cell {:#?}",
                        f.stats, e.stats
                    ),
                });
            }
            if f.occupancy != e.occupancy {
                return Err(Divergence::Matrix {
                    label: cell_label(i),
                    shards,
                    detail: format!(
                        "occupancy differs: fused {}, per-cell {}",
                        f.occupancy, e.occupancy
                    ),
                });
            }
        }
    }

    // --- 6. profile oracle ---
    check_profiles(program, &trace)?;

    // --- 7. ILP oracle ---
    check_ilp(program, &stripped, &trace)?;

    // --- 8. streaming oracle ---
    // The bounded-memory streaming engine re-simulates the program and
    // feeds the same fused kernel through a bounded block channel; its
    // grid must be bit-identical to the batch grid at every tested shard
    // (consumer) count × block-pool size — including a pool of 2, where
    // the producer stalls on every other block. Faulting programs are
    // excluded: a streamed replay surfaces the simulator fault as an
    // error (there is no well-defined full stream), while the batch path
    // above replays the pre-fault prefix that the recorder captured.
    if optimized.is_err() {
        return Ok(trace);
    }
    for (shards, pool) in [(1usize, 2usize), (3, 2), (3, 8)] {
        let stream_err = |label: String, detail: String| Divergence::Stream {
            label,
            shards,
            pool,
            detail,
        };
        let streamed = ReplayRequest::stream(program, limits)
            .plan(plan.clone())
            .shards(shards)
            .block_pool(pool)
            .run()
            .map_err(|e| stream_err("whole plan".into(), format!("streamed replay failed: {e}")))?;
        if streamed.cells.len() != matrix_cells.len() {
            return Err(stream_err(
                "whole plan".into(),
                format!(
                    "streamed replay returned {} outcomes for {} cells",
                    streamed.cells.len(),
                    matrix_cells.len()
                ),
            ));
        }
        for (i, (s, e)) in streamed.cells.iter().zip(&expected).enumerate() {
            if s.outcome.stats != e.stats {
                return Err(stream_err(
                    cell_label(i),
                    format!(
                        "stats differ:\nstreamed {:#?}\nbatch {:#?}",
                        s.outcome.stats, e.stats
                    ),
                ));
            }
            if s.outcome.occupancy != e.occupancy {
                return Err(stream_err(
                    cell_label(i),
                    format!(
                        "occupancy differs: streamed {}, batch {}",
                        s.outcome.occupancy, e.occupancy
                    ),
                ));
            }
        }
    }
    // Attributed streaming: tables must match batch attribution exactly.
    let attributed_of = |request: ReplayRequest<'_>| {
        request
            .plan(plan.clone())
            .attribution(true)
            .shards(3)
            .jobs(2)
            .block_pool(2)
            .run()
    };
    let batch_attr =
        attributed_of(ReplayRequest::batch(&trace)).map_err(|e| Divergence::Stream {
            label: "whole plan (attributed batch)".into(),
            shards: 3,
            pool: 2,
            detail: format!("attributed batch replay failed: {e}"),
        })?;
    let stream_attr =
        attributed_of(ReplayRequest::stream(program, limits)).map_err(|e| Divergence::Stream {
            label: "whole plan (attributed)".into(),
            shards: 3,
            pool: 2,
            detail: format!("attributed streamed replay failed: {e}"),
        })?;
    for (i, (s, b)) in stream_attr.cells.iter().zip(&batch_attr.cells).enumerate() {
        let stream_err = |detail: String| Divergence::Stream {
            label: cell_label(i),
            shards: 3,
            pool: 2,
            detail,
        };
        if s.outcome.stats != b.outcome.stats {
            return Err(stream_err(
                "attributed streamed stats differ from batch".into(),
            ));
        }
        if s.attribution != b.attribution {
            return Err(stream_err(
                "attribution table differs between streamed and batch replay".into(),
            ));
        }
        let (config, _, cell_program) = matrix_cells[i];
        let cell_directives: Vec<Directive> = cell_program
            .text()
            .iter()
            .map(|ins| ins.directive)
            .collect();
        let (_, _, ref_table) = direct_replay(&config, &cell_directives, &values);
        if s.attribution.as_ref() != Some(&ref_table) {
            return Err(Divergence::Attribution {
                label: cell_label(i),
                detail: "streamed per-PC table differs from the per-event reference".into(),
            });
        }
    }

    Ok(trace)
}

/// Feeds `values` to a fresh `config` predictor one event at a time and
/// folds every returned [`vp_predictor::Access`] into an
/// [`AttributionTable`]: the per-event reference that the block-fused
/// attributed replay must reproduce.
fn direct_replay(
    config: &PredictorConfig,
    directives: &[Directive],
    values: &[(InstrAddr, u64)],
) -> (PredictorStats, usize, AttributionTable) {
    let mut direct = config.build();
    let mut table = AttributionTable::new();
    for &(addr, value) in values {
        let d = directives
            .get(addr.index() as usize)
            .copied()
            .unwrap_or(Directive::None);
        let access = direct.access(addr, d, value);
        table.observe(addr, d, &access, value);
    }
    (*direct.stats(), direct.occupancy(), table)
}

fn check_predictor(
    config: &PredictorConfig,
    mode: &'static str,
    (opt_stats, opt_occ): (PredictorStats, usize),
    (ref_stats, ref_occ): (PredictorStats, usize),
) -> Result<(), Divergence> {
    if opt_stats != ref_stats {
        return Err(Divergence::Predictor {
            label: config.label(),
            mode,
            detail: format!("stats differ:\noptimized {opt_stats:#?}\nreference {ref_stats:#?}"),
        });
    }
    if opt_occ != ref_occ {
        return Err(Divergence::Predictor {
            label: config.label(),
            mode,
            detail: format!("occupancy differs: optimized {opt_occ}, reference {ref_occ}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen_program, GenConfig};
    use vp_rng::Rng;

    #[test]
    fn hand_written_kernels_pass_the_oracle() {
        for src in [
            // The FP loop from the workload suite's shape.
            ".f64 1.5\nli r1, 0\nli r2, 12\ntop: fld f1, (r0)\nfadd f2, f2, f1\n\
             sd r1, 5(r1)\nld r3, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
            // Faulting program: both stacks must fault identically.
            "li r1, -5\njalr r0, r1, 0\nhalt\n",
            // Budget exhaustion: both stacks must stop at the same count.
            "top: addi r8, r8, 1\nbeq r0, r0, top\nhalt\n",
        ] {
            let p = vp_isa::asm::assemble(src).unwrap();
            if let Err(d) = run_case(&p, 5_000) {
                panic!("oracle diverged on hand-written kernel: {d}\n{p}");
            }
        }
    }

    #[test]
    fn fuzzed_programs_pass_the_oracle() {
        let cfg = GenConfig::default();
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &cfg, "oracle");
            if let Err(d) = run_case(&p, 100_000) {
                panic!("oracle diverged at seed {seed}: {d}\n{p}");
            }
        }
    }

    #[test]
    fn stream_divergence_renders_with_shards_and_pool() {
        let d = Divergence::Stream {
            label: "stride (cell 1, table 0)".into(),
            shards: 3,
            pool: 2,
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("3 shards"), "{s}");
        assert!(s.contains("pool 2"), "{s}");
        assert!(s.contains("stats differ"), "{s}");
    }

    #[test]
    fn serialization_divergence_chains_its_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let d = Divergence::Serialization {
            detail: format!("read failed: {inner}"),
            source: Some(Box::new(inner)),
        };
        let source = d.source().expect("typed source must be exposed");
        assert!(source.to_string().contains("short read"));
        // Pure value mismatches have no cause.
        let bare = Divergence::Serialization {
            detail: "round trip decoded different columns".into(),
            source: None,
        };
        assert!(bare.source().is_none());
    }

    #[test]
    fn matrix_divergence_renders_with_cell_and_shards() {
        let d = Divergence::Matrix {
            label: "stride (cell 2, table 0)".into(),
            shards: 3,
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("cell 2"), "{s}");
        assert!(s.contains("3 shards"), "{s}");
        assert!(s.contains("stats differ"), "{s}");
    }

    #[test]
    fn profile_and_ilp_divergences_name_the_stage() {
        let d = Divergence::Profile {
            mode: "phase-split",
            detail: "images differ".into(),
        };
        assert!(d.to_string().contains("phase-split profile collector"));
        let d = Divergence::Ilp {
            label: ilp_label(&IlpConfig::paper_vp_fsm().with_window(4)),
            detail: "results differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("ILP machine `window 4, penalty 1"), "{s}");
        assert!(s.contains("results differ"), "{s}");
    }

    /// A directive-tagged kernel keeps the matrix oracle's two annotation
    /// tables distinct (the stripped program really differs), so the
    /// multi-table fused path is exercised, not just deduped away.
    #[test]
    fn matrix_oracle_covers_distinct_annotation_tables() {
        let src = "li r1, 0\nli r2, 9\ntop: addi.st r3, r3, 4\nsd r3, 3(r1)\n\
                   ld.lv r4, 3(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let p = vp_isa::asm::assemble(src).unwrap();
        assert_ne!(p, p.without_directives(), "kernel must carry directives");
        if let Err(d) = run_case(&p, 5_000) {
            panic!("oracle diverged on the tagged kernel: {d}\n{p}");
        }
    }

    /// The oracle must actually *catch* bugs: feed it a program pair where
    /// the "reference" is the real semantics and the optimised side is
    /// simulated with a deliberately corrupted trace.
    #[test]
    fn a_corrupted_event_stream_is_caught() {
        let p = vp_isa::asm::assemble("li r8, 7\naddi r8, r8, 1\nhalt\n").unwrap();
        let trace = run_case(&p, 1_000).expect("clean program must pass");
        let mut events: Vec<_> = trace.iter().collect();
        events[1].dest = events[1].dest.map(|(c, r, v)| (c, r, v ^ 1));
        let reference = crate::refsim::ref_run(&p, 1_000);
        let d = first_divergence(reference.events, events).expect("must detect the flip");
        assert_eq!(d.index, 1);
    }
}
