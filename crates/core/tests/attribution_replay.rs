//! Property tests for the attributed predictor replay: for arbitrary
//! traces, predictor configurations and shard/job counts, the per-PC
//! [`vp_predictor::AttributionTable`] must be **bit-identical** between
//! `jobs=1` and `jobs=8` (and any shard refinement in between), the
//! attributed replay must leave [`vp_predictor::PredictorStats`]
//! untouched (observation-only), and the table's totals must reconcile
//! *exactly* with the stats — every access accounted, every raw miss
//! charged to exactly one cause.
//!
//! The generators mirror `sharded_replay.rs`: value streams mixing
//! repeats, constant strides and noise across all six predictor
//! configuration families, with directives varying per static
//! instruction so the directive-routed causes (`class-mismatch`,
//! `uncovered`) are exercised too.

use provp_core::{ReplayOutcome, ReplayRequest};
use vp_isa::asm::assemble;
use vp_isa::{InstrAddr, Program, Reg, RegClass};
use vp_predictor::{AttributionTable, ClassifierKind, PredictorConfig, TableGeometry};
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

/// `config` replayed under `program`'s directives through a batch
/// [`ReplayRequest`] at `shards` shards / `jobs` workers, with or without
/// attribution.
fn replay(
    trace: &Trace,
    program: &Program,
    config: &PredictorConfig,
    shards: usize,
    jobs: usize,
    attribution: bool,
) -> std::io::Result<(ReplayOutcome, Option<AttributionTable>)> {
    let cell = ReplayRequest::batch(trace)
        .single(program, *config)
        .attribution(attribution)
        .shards(shards)
        .jobs(jobs)
        .run()?
        .into_single();
    Ok((cell.outcome, cell.attribution))
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

fn arb_geometry(rng: &mut Rng) -> TableGeometry {
    let ways = 1usize << rng.gen_range(0..3u32);
    let sets = rng.gen_range(2..33usize);
    TableGeometry::new(sets * ways, ways)
}

/// One configuration from each of the six families, with an arbitrary
/// classifier and geometry.
fn config_families(rng: &mut Rng) -> Vec<PredictorConfig> {
    let mut classifier = || match rng.gen_range(0..3u32) {
        0 => ClassifierKind::two_bit_counter(),
        1 => ClassifierKind::Directive,
        _ => ClassifierKind::Always,
    };
    let c0 = classifier();
    let c1 = classifier();
    let c2 = classifier();
    let c3 = classifier();
    let c4 = classifier();
    vec![
        PredictorConfig::InfiniteStride { classifier: c0 },
        PredictorConfig::InfiniteLastValue { classifier: c1 },
        PredictorConfig::TableStride {
            geometry: arb_geometry(rng),
            classifier: c2,
        },
        PredictorConfig::TableLastValue {
            geometry: arb_geometry(rng),
            classifier: c3,
        },
        PredictorConfig::TableTwoDelta {
            geometry: arb_geometry(rng),
            classifier: c4,
        },
        PredictorConfig::Hybrid {
            stride: arb_geometry(rng),
            last_value: arb_geometry(rng),
        },
    ]
}

#[test]
fn prop_attribution_is_job_count_invariant_and_reconciles() {
    prop::forall("attribution jobs=1 == jobs=8, totals reconcile", |rng| {
        let n_static = rng.gen_range(4..120u32);
        let len = rng.gen_range(50..1000usize);
        let events = arb_events(rng, n_static, len);
        let configs = config_families(rng);
        (n_static, events, configs)
    })
    .cases(12)
    .check(|(n_static, events, configs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        for config in configs {
            // Baseline: unattributed sequential replay.
            let (plain, no_table) =
                replay(&trace, &program, config, 1, 1, false).expect("plain replay");
            assert!(no_table.is_none(), "a plain replay builds no table");
            // jobs=1: one shard, one worker.
            let (seq, seq_table) =
                replay(&trace, &program, config, 1, 1, true).expect("sequential attributed replay");
            let seq_table = seq_table.expect("attribution requested");
            assert_eq!(
                seq.stats,
                plain.stats,
                "{}: attribution perturbed the replay",
                config.label()
            );
            seq_table
                .reconcile(&seq.stats)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            // jobs=8 over every shard refinement: bit-identical tables.
            for shards in [2usize, 3, 5, 8] {
                let (par, par_table) = replay(&trace, &program, config, shards, 8, true)
                    .expect("sharded attributed replay");
                assert_eq!(par.stats, seq.stats, "{}", config.label());
                assert_eq!(
                    par_table.expect("attribution requested"),
                    seq_table,
                    "{}: table diverged at {shards} shards / 8 jobs",
                    config.label()
                );
            }
        }
    });
}

/// The attribution cause partition is exhaustive and exclusive for any
/// input: summed cause counts equal the raw miss count per PC, not just
/// in aggregate.
#[test]
fn prop_per_pc_causes_partition_the_misses() {
    prop::forall("per-PC causes partition raw misses", |rng| {
        let n_static = rng.gen_range(4..80u32);
        let len = rng.gen_range(50..600usize);
        let events = arb_events(rng, n_static, len);
        let configs = config_families(rng);
        (n_static, events, configs)
    })
    .cases(12)
    .check(|(n_static, events, configs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        for config in configs {
            let (_, table) =
                replay(&trace, &program, config, 1, 1, true).expect("attributed replay");
            let table = table.expect("attribution requested");
            for (addr, pc) in table.entries() {
                let misses = pc.accesses - pc.raw_correct;
                let charged: u64 = pc.causes.iter().sum();
                assert_eq!(
                    charged,
                    misses,
                    "{} @{addr}: {charged} charged causes vs {misses} raw misses",
                    config.label()
                );
            }
        }
    });
}
