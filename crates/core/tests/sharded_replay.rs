//! Property tests for the PC-sharded parallel predictor replay: for
//! arbitrary traces, predictor configurations, shard counts and job
//! counts, the sharded replay's merged [`vp_predictor::PredictorStats`]
//! must be **bit-identical** to a sequential replay's.
//!
//! The generator deliberately produces value streams that are a mixture
//! of repeats, constant strides and noise so every classifier state
//! machine (2-bit counters, directives, always-predict) gets exercised
//! through its full transition graph, and programs whose directives vary
//! per static instruction so the directive-routed configurations do not
//! degenerate.

use provp_core::{ReplayOutcome, ReplayRequest};
use vp_isa::asm::assemble;
use vp_isa::{InstrAddr, Program, Reg, RegClass};
use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
use vp_rng::{prop, Rng};
use vp_sim::{Trace, TraceEvent};

/// A program of `n` value producers whose directives cycle
/// none → stride → last-value per static instruction, plus a `halt`.
fn program_with(n: u32) -> Program {
    let mut src = String::new();
    for i in 0..n {
        let suffix = match i % 3 {
            0 => "",
            1 => ".st",
            _ => ".lv",
        };
        src.push_str(&format!("addi{suffix} r1, r1, 1\n"));
    }
    src.push_str("halt\n");
    assemble(&src).expect("synthetic program assembles")
}

/// `len` destination-writing events over `n_static` static addresses,
/// each value a repeat, a constant-stride step or fresh noise.
fn arb_events(rng: &mut Rng, n_static: u32, len: usize) -> Vec<TraceEvent> {
    let mut last = vec![0u64; n_static as usize];
    (0..len)
        .map(|_| {
            let a = rng.gen_range(0..n_static);
            let value = match rng.gen_range(0..4u32) {
                0 => last[a as usize],
                1 | 2 => last[a as usize].wrapping_add(8),
                _ => rng.gen_u64(),
            };
            last[a as usize] = value;
            TraceEvent {
                addr: InstrAddr::new(a),
                dest: Some((RegClass::Int, Reg::new(rng.gen_range(0..32u8)), value)),
                mem: None,
                stored: None,
                taken: None,
                next_pc: InstrAddr::new((a + 1) % n_static.max(1)),
            }
        })
        .collect()
}

/// `config` replayed under `program`'s directives through a batch
/// [`ReplayRequest`] at `shards` shards / `jobs` workers.
fn replay(
    trace: &Trace,
    program: &Program,
    config: &PredictorConfig,
    shards: usize,
    jobs: usize,
) -> std::io::Result<ReplayOutcome> {
    Ok(ReplayRequest::batch(trace)
        .single(program, *config)
        .shards(shards)
        .jobs(jobs)
        .run()?
        .into_single()
        .outcome)
}

fn arb_geometry(rng: &mut Rng) -> TableGeometry {
    let ways = 1usize << rng.gen_range(0..3u32); // 1, 2 or 4 ways
    let sets = rng.gen_range(2..33usize); // incl. non-power-of-two set counts
    TableGeometry::new(sets * ways, ways)
}

fn arb_config(rng: &mut Rng) -> PredictorConfig {
    let classifier = match rng.gen_range(0..3u32) {
        0 => ClassifierKind::two_bit_counter(),
        1 => ClassifierKind::Directive,
        _ => ClassifierKind::Always,
    };
    match rng.gen_range(0..6u32) {
        0 => PredictorConfig::InfiniteStride { classifier },
        1 => PredictorConfig::InfiniteLastValue { classifier },
        2 => PredictorConfig::TableStride {
            geometry: arb_geometry(rng),
            classifier,
        },
        3 => PredictorConfig::TableLastValue {
            geometry: arb_geometry(rng),
            classifier,
        },
        4 => PredictorConfig::TableTwoDelta {
            geometry: arb_geometry(rng),
            classifier,
        },
        _ => PredictorConfig::Hybrid {
            stride: arb_geometry(rng),
            last_value: arb_geometry(rng),
        },
    }
}

#[test]
fn prop_sharded_replay_is_bit_identical_to_sequential() {
    prop::forall("sharded replay == sequential replay", |rng| {
        let n_static = rng.gen_range(4..160u32);
        let len = rng.gen_range(50..1500usize);
        let events = arb_events(rng, n_static, len);
        let config = arb_config(rng);
        let shards = rng.gen_range(2..9usize);
        let jobs = rng.gen_range(1..5usize);
        (n_static, events, config, shards, jobs)
    })
    .cases(48)
    .check(|(n_static, events, config, shards, jobs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        let seq = replay(&trace, &program, config, 1, 1).expect("sequential replay");
        let par = replay(&trace, &program, config, *shards, *jobs).expect("sharded replay");
        assert_eq!(
            par.stats,
            seq.stats,
            "{} diverged at {shards} shards / {jobs} jobs",
            config.label()
        );
        assert_eq!(par.occupancy, seq.occupancy, "{}", config.label());
        assert_eq!(par.shards, *shards);
    });
}

/// Merging per-shard statistics is order-independent: replaying the same
/// trace at different shard counts (different partition refinements of
/// the same state-partition relation) yields the same totals.
#[test]
fn prop_merge_is_shard_count_invariant() {
    prop::forall("merge totals invariant across shard counts", |rng| {
        let n_static = rng.gen_range(4..100u32);
        let len = rng.gen_range(50..800usize);
        let events = arb_events(rng, n_static, len);
        let config = arb_config(rng);
        (n_static, events, config)
    })
    .cases(24)
    .check(|(n_static, events, config)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        let outcomes: Vec<_> = [1usize, 2, 3, 5, 8]
            .iter()
            .map(|&shards| replay(&trace, &program, config, shards, 2).expect("replay"))
            .collect();
        for pair in outcomes.windows(2) {
            assert_eq!(pair[0].stats, pair[1].stats, "{}", config.label());
            assert_eq!(pair[0].occupancy, pair[1].occupancy, "{}", config.label());
        }
    });
}
