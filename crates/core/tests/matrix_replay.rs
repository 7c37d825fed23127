//! Property tests for the fused sweep-matrix replay: for arbitrary
//! traces, cell sets, shard counts and job counts, every cell of a fused
//! whole-plan [`ReplayRequest`]'s grid must be **bit-identical** to an
//! independent single-cell [`ReplayRequest`] run — including plans with
//! duplicate cells and multiple directive-annotation tables.
//!
//! The generators mirror `sharded_replay.rs`: value streams mixing
//! repeats, constant strides and noise so every classifier gets driven
//! through its transition graph, and programs whose directives vary per
//! static instruction so directive-routed cells do not degenerate.

use std::io;

use provp_core::{ReplayOutcome, ReplayRequest, Suite, SweepPlan};
use vp_isa::asm::assemble;
use vp_isa::{InstrAddr, Program, Reg, RegClass};
use vp_predictor::{AttributionTable, ClassifierKind, PredictorConfig, TableGeometry};
use vp_rng::{prop, Rng};
use vp_sim::{Trace, TraceEvent};
use vp_workloads::WorkloadKind;

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

/// Every cell of `plan` in one fused batch pass at `shards` shards /
/// `jobs` workers, with or without attribution, in plan order.
fn fused_grid(
    trace: &Trace,
    plan: &SweepPlan,
    shards: usize,
    jobs: usize,
    attribution: bool,
) -> io::Result<Vec<(ReplayOutcome, Option<AttributionTable>)>> {
    Ok(ReplayRequest::batch(trace)
        .plan(plan.clone())
        .attribution(attribution)
        .shards(shards)
        .jobs(jobs)
        .run()?
        .cells
        .into_iter()
        .map(|cell| (cell.outcome, cell.attribution))
        .collect())
}

/// The independent reference: `config` alone under `program`'s
/// directives, sequential and unsharded.
fn per_cell(
    trace: &Trace,
    program: &Program,
    config: &PredictorConfig,
    attribution: bool,
) -> io::Result<(ReplayOutcome, Option<AttributionTable>)> {
    let cell = ReplayRequest::batch(trace)
        .single(program, *config)
        .attribution(attribution)
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

/// A fixed panel spanning every configuration shape (for the
/// deterministic tests).
fn panel() -> Vec<PredictorConfig> {
    let fsm = ClassifierKind::two_bit_counter();
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::InfiniteStride { classifier: fsm },
        PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
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

/// A deterministic mixed trace + the tagged and stripped programs.
fn fixture() -> (Trace, Program, Program) {
    let mut rng = Rng::seed_from_u64(7);
    let program = program_with(60);
    let stripped = program.without_directives();
    let trace = Trace::from_events(arb_events(&mut rng, 60, 4_000));
    (trace, program, stripped)
}

#[test]
fn empty_plan_yields_an_empty_grid() {
    let (trace, program, _) = fixture();
    let mut plan = SweepPlan::new();
    plan.add_directives(&program);
    assert!(plan.is_empty());
    let grid = fused_grid(&trace, &plan, 4, 2, false).expect("matrix");
    assert!(grid.is_empty());
    let grid = fused_grid(&trace, &plan, 4, 2, true).expect("matrix");
    assert!(grid.is_empty());
}

#[test]
fn singleton_plan_matches_single_cell_replay() {
    let (trace, program, _) = fixture();
    for config in panel() {
        let mut plan = SweepPlan::new();
        let table = plan.add_directives(&program);
        plan.add_cell(config, table);
        let fused = fused_grid(&trace, &plan, 1, 1, false).expect("matrix");
        let (cell, _) = per_cell(&trace, &program, &config, false).expect("replay");
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].0.stats, cell.stats, "{}", config.label());
        assert_eq!(fused[0].0.occupancy, cell.occupancy, "{}", config.label());
    }
}

#[test]
fn duplicate_cells_all_receive_the_shared_outcome() {
    let (trace, program, _) = fixture();
    let config = PredictorConfig::spec_table_stride_fsm();
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    for _ in 0..3 {
        plan.add_cell(config, table);
    }
    // Registering an identical annotation again reuses the same table,
    // so these cells dedupe with the three above as well.
    let again = plan.add_directives(&program);
    assert_eq!(again, table, "identical annotation tables must collapse");
    plan.add_cell(config, again);
    let (expected, _) = per_cell(&trace, &program, &config, false).expect("replay");
    let fused = fused_grid(&trace, &plan, 2, 2, false).expect("matrix");
    assert_eq!(fused.len(), 4, "every requested cell gets an outcome");
    for (out, _) in &fused {
        assert_eq!(out.stats, expected.stats);
        assert_eq!(out.occupancy, expected.occupancy);
    }
}

#[test]
fn mixed_plan_is_shard_and_job_invariant() {
    let (trace, program, stripped) = fixture();
    let mut plan = SweepPlan::new();
    let tagged = plan.add_directives(&program);
    let bare = plan.add_directives(&stripped);
    assert_ne!(tagged, bare, "distinct annotations keep distinct tables");
    // (config, table, per-cell reference program) across both tables.
    let mut cells: Vec<(PredictorConfig, usize, &Program)> = Vec::new();
    for config in panel() {
        cells.push((config, tagged, &program));
        cells.push((config, bare, &stripped));
    }
    for &(config, table, _) in &cells {
        plan.add_cell(config, table);
    }
    let expected: Vec<_> = cells
        .iter()
        .map(|(config, _, p)| per_cell(&trace, p, config, false).expect("replay").0)
        .collect();
    for shards in [1usize, 2, 4, 8] {
        for jobs in [1usize, 4] {
            let fused = fused_grid(&trace, &plan, shards, jobs, false).expect("matrix");
            assert_eq!(fused.len(), cells.len());
            for (i, ((out, _), exp)) in fused.iter().zip(&expected).enumerate() {
                assert_eq!(
                    out.stats,
                    exp.stats,
                    "cell {i} ({}) diverged at {shards} shards / {jobs} jobs",
                    cells[i].0.label()
                );
                assert_eq!(out.occupancy, exp.occupancy, "cell {i}");
            }
        }
    }
}

#[test]
fn attributed_matrix_matches_attributed_per_cell_replay() {
    let (trace, program, stripped) = fixture();
    let mut plan = SweepPlan::new();
    let tagged = plan.add_directives(&program);
    let bare = plan.add_directives(&stripped);
    let cells: Vec<(PredictorConfig, usize, &Program)> = vec![
        (PredictorConfig::spec_table_stride_fsm(), tagged, &program),
        (
            PredictorConfig::spec_table_stride_profile(),
            tagged,
            &program,
        ),
        (
            PredictorConfig::spec_table_stride_profile(),
            bare,
            &stripped,
        ),
    ];
    for &(config, table, _) in &cells {
        plan.add_cell(config, table);
    }
    for shards in [1usize, 3] {
        let fused = fused_grid(&trace, &plan, shards, 2, true).expect("matrix");
        assert_eq!(fused.len(), cells.len());
        for (i, ((out, table), (config, _, p))) in fused.iter().zip(&cells).enumerate() {
            let (exp_out, exp_table) = per_cell(&trace, p, config, true).expect("replay");
            let table = table.as_ref().expect("attribution requested");
            assert_eq!(out.stats, exp_out.stats, "cell {i} at {shards} shards");
            assert_eq!(out.occupancy, exp_out.occupancy, "cell {i}");
            assert_eq!(
                Some(table),
                exp_table.as_ref(),
                "cell {i} attribution table"
            );
            table
                .reconcile(&out.stats)
                .expect("attribution totals reconcile with the fused stats");
        }
    }
}

#[test]
fn prop_fused_matrix_is_bit_identical_to_per_cell_replay() {
    prop::forall("fused matrix == per-cell replays", |rng| {
        let n_static = rng.gen_range(4..120u32);
        let len = rng.gen_range(50..1200usize);
        let events = arb_events(rng, n_static, len);
        let n_cells = rng.gen_range(1..7usize);
        let configs: Vec<PredictorConfig> = (0..n_cells).map(|_| arb_config(rng)).collect();
        // Duplicate a random cell half the time to keep dedup honest.
        let dup = (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..n_cells));
        let shards = rng.gen_range(1..9usize);
        let jobs = rng.gen_range(1..5usize);
        (n_static, events, configs, dup, shards, jobs)
    })
    .cases(32)
    .check(|(n_static, events, configs, dup, shards, jobs)| {
        let program = program_with(*n_static);
        let stripped = program.without_directives();
        let trace = Trace::from_events(events.clone());
        let mut plan = SweepPlan::new();
        let tagged = plan.add_directives(&program);
        let bare = plan.add_directives(&stripped);
        // Alternate cells between the two annotation tables.
        let mut cells: Vec<(PredictorConfig, usize, &Program)> = configs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i % 2 == 0 {
                    (c, tagged, &program)
                } else {
                    (c, bare, &stripped)
                }
            })
            .collect();
        if let Some(i) = dup {
            cells.push(cells[*i]);
        }
        for &(config, table, _) in &cells {
            plan.add_cell(config, table);
        }
        let fused = fused_grid(&trace, &plan, *shards, *jobs, false).expect("matrix");
        assert_eq!(fused.len(), cells.len());
        for ((i, (out, _)), (config, _, p)) in fused.iter().enumerate().zip(&cells) {
            let (exp, _) = per_cell(&trace, p, config, false).expect("replay");
            assert_eq!(
                out.stats,
                exp.stats,
                "cell {i} ({}) diverged at {shards} shards / {jobs} jobs",
                config.label()
            );
            assert_eq!(out.occupancy, exp.occupancy, "cell {i}");
        }
    });
}

#[test]
fn suite_matrix_matches_per_cell_requests_and_is_job_invariant() {
    let kind = WorkloadKind::Compress;
    let cells = [
        (PredictorConfig::spec_table_stride_fsm(), None),
        (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
        (PredictorConfig::spec_table_stride_profile(), Some(0.7)),
        // A duplicate request-cell: answered like its twin.
        (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
    ];
    let suite = Suite::with_train_runs(2);
    let grid = suite.predictor_stats_matrix(kind, &cells);
    assert_eq!(grid.len(), cells.len());
    assert_eq!(grid[1], grid[3], "duplicate request-cells share a result");
    for (i, &(config, threshold)) in cells.iter().enumerate() {
        // The memoised per-cell path must agree with the fused grid.
        assert_eq!(
            suite.predictor_stats(kind, config, threshold),
            grid[i],
            "cell {i}"
        );
    }
    // A parallel suite computes the identical grid.
    let parallel = Suite::with_train_runs(2).with_jobs(4);
    assert_eq!(parallel.predictor_stats_matrix(kind, &cells), grid);
    // The empty request stays empty.
    assert!(suite.predictor_stats_matrix(kind, &[]).is_empty());
}
