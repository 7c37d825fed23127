//! Property suite for the fused ILP plan: for every generated program, the
//! [`IlpBank`] of an [`IlpPlan`] — one replay feeding every distinct
//! machine — must return exactly what one [`IlpAnalyzer`] per requested
//! configuration returns, request by request.
//!
//! Case counts honour `VP_PROP_CASES`.

use vp_ilp::{BranchConfig, IlpAnalyzer, IlpConfig, IlpPlan, IlpResult};
use vp_isa::{asm::assemble, Program};
use vp_rng::{prop, Rng};
use vp_sim::{run, RunLimits, Tracer};

const WINDOWS: [usize; 3] = [1, 4, 40];
const PENALTIES: [u64; 3] = [0, 1, 8];

fn branches() -> [(BranchConfig, u64); 3] {
    [
        (BranchConfig::Perfect, 0),
        (BranchConfig::Bimodal { entries: 16 }, 3),
        (
            BranchConfig::Gshare {
                entries: 64,
                history_bits: 4,
            },
            8,
        ),
    ]
}

/// Base word addresses the generated loops store around: the low words,
/// both sides of a 4096-word page edge, and the top of the address space
/// (offsets wrap past `u64::MAX` back to word 0).
const BASES: [i64; 4] = [0, 4090, 4096 * 3 - 2, -6];

/// A random loop whose body mixes ALU work, stores and loads around one of
/// [`BASES`], a data-dependent forward branch and directive-tagged value
/// producers.
fn arb_program(rng: &mut Rng) -> Program {
    let base = *rng.choose(&BASES).unwrap();
    let iterations = rng.gen_range(2..40u32);
    let mut src = format!(
        ".data 3 1 4 1 5 9 2 6\nli r1, 0\nli r2, {iterations}\nli r9, {base}\nli r3, 7\ntop:\n"
    );
    let body = rng.gen_range(1..14usize);
    let tag = |rng: &mut Rng| *rng.choose(&["", "", ".st", ".lv"]).unwrap();
    for i in 0..body {
        let rd = rng.gen_range(3..9u8);
        let rs = rng.gen_range(1..9u8);
        let offset = rng.gen_range(0..12i64);
        match rng.gen_range(0..7u8) {
            0 => src.push_str(&format!("add{} r{rd}, r{rd}, r{rs}\n", tag(rng))),
            1 => src.push_str(&format!("addi{} r{rd}, r{rd}, {offset}\n", tag(rng))),
            2 => src.push_str(&format!("mul{} r{rd}, r{rs}, r{rs}\n", tag(rng))),
            3 => src.push_str(&format!("sd r{rs}, {offset}(r9)\n")),
            4 => src.push_str(&format!("ld{} r{rd}, {offset}(r9)\n", tag(rng))),
            5 => src.push_str(&format!("ld{} r{rd}, {}(r1)\n", tag(rng), offset % 8)),
            _ => src.push_str(&format!(
                "andi r10, r{rs}, 1\nbeq r10, r0, skip{i}\naddi r11, r11, 1\nskip{i}:\n"
            )),
        }
    }
    src.push_str("addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
    assemble(&src).unwrap_or_else(|e| panic!("generated program must assemble: {e}\n{src}"))
}

/// The full grid of machine configurations: window × penalty × branch
/// front end × {no VP, VP + SC, VP + profile}.
fn grid() -> Vec<IlpConfig> {
    let mut configs = Vec::new();
    for window in WINDOWS {
        for penalty in PENALTIES {
            for (branch, branch_penalty) in branches() {
                for base in [
                    IlpConfig::paper_no_vp(),
                    IlpConfig::paper_vp_fsm(),
                    IlpConfig::paper_vp_profile(),
                ] {
                    configs.push(
                        base.with_window(window)
                            .with_penalty(penalty)
                            .with_branch(branch, branch_penalty),
                    );
                }
            }
        }
    }
    configs
}

/// One analyzer per request, each replaying `annotated` (whose text
/// carries the directives it reads).
fn per_config(annotated: &Program, config: IlpConfig) -> IlpResult {
    let mut analyzer = IlpAnalyzer::new(config);
    run(annotated, &mut analyzer, RunLimits::with_max(100_000)).unwrap();
    analyzer.finish()
}

/// Runs the plan's bank over `replayed` (a program whose own directives the
/// bank must ignore).
fn fused(plan: IlpPlan, replayed: &Program) -> Vec<IlpResult> {
    let mut bank = plan.into_bank();
    run(replayed, &mut bank, RunLimits::with_max(100_000)).unwrap();
    bank.finish()
}

/// An analyzer fed through [`IlpAnalyzer::retire_with`] with the
/// directives of `table`, whatever directives the replayed program carries.
struct Retagged<'a> {
    analyzer: IlpAnalyzer,
    table: &'a Program,
}

impl Tracer for Retagged<'_> {
    fn retire(&mut self, ev: &vp_sim::Retirement<'_>) {
        let directive = self.table.text()[ev.addr.index() as usize].directive;
        self.analyzer.retire_with(ev, directive);
    }
}

#[test]
fn prop_bank_equals_per_config_analyzers() {
    prop::forall("fused ILP bank equals per-config analyzers", arb_program).check(|tagged| {
        let stripped = tagged.without_directives();
        let mut plan = IlpPlan::new();
        let tagged_table = plan.add_directives(tagged);
        let stripped_table = plan.add_directives(&stripped);
        let mut requests: Vec<(IlpConfig, &Program)> = Vec::new();
        for config in grid() {
            plan.add_machine(config.clone(), tagged_table);
            requests.push((config.clone(), tagged));
            if config.predictor.is_some() && config.window == 40 {
                plan.add_machine(config.clone(), stripped_table);
                requests.push((config, &stripped));
            }
        }
        let results = fused(plan, &stripped);
        assert_eq!(results.len(), requests.len());
        for (i, ((config, annotated), got)) in requests.iter().zip(&results).enumerate() {
            let want = per_config(annotated, config.clone());
            assert_eq!(*got, want, "request {i}: {config:?}");
        }
    });
}

#[test]
fn prop_retire_with_overrides_the_program_directives() {
    prop::forall("retire_with reads the given directive", arb_program).check(|tagged| {
        let stripped = tagged.without_directives();
        for config in [IlpConfig::paper_vp_profile(), IlpConfig::paper_vp_fsm()] {
            let mut retagged = Retagged {
                analyzer: IlpAnalyzer::new(config.clone()),
                table: tagged,
            };
            run(&stripped, &mut retagged, RunLimits::with_max(100_000)).unwrap();
            assert_eq!(retagged.analyzer.finish(), per_config(tagged, config));
        }
    });
}

#[test]
fn duplicate_requests_and_identical_taggings_share_machines() {
    let mut rng = Rng::seed_from_u64(7);
    let tagged = arb_program(&mut rng);
    // Two thresholds that tag identically register one table; a re-tagged
    // copy of the same program is the same annotation.
    let same_tagging =
        tagged.with_directives(|addr, _| tagged.text()[addr.index() as usize].directive);
    let stripped = tagged.without_directives();

    let mut plan = IlpPlan::new();
    let t90 = plan.add_directives(&tagged);
    let t80 = plan.add_directives(&same_tagging);
    let bare = plan.add_directives(&stripped);
    assert_eq!(t90, t80, "identical taggings must share a table");

    let requests = [
        (IlpConfig::paper_no_vp(), bare, &stripped),
        // No predictor: reads no directives, so any table shares the machine.
        (IlpConfig::paper_no_vp(), t90, &tagged),
        (IlpConfig::paper_vp_fsm(), bare, &stripped),
        (IlpConfig::paper_vp_fsm(), bare, &stripped),
        (IlpConfig::paper_vp_profile(), t90, &tagged),
        (IlpConfig::paper_vp_profile(), t80, &tagged),
        (IlpConfig::paper_vp_profile(), bare, &stripped),
    ];
    for (config, table, _) in &requests {
        plan.add_machine(config.clone(), *table);
    }
    let mut bank = plan.into_bank();
    // no-VP ×1, VP+SC ×1, VP+Prof × 2 tables.
    assert_eq!((bank.requests(), bank.machines()), (7, 4));
    run(&stripped, &mut bank, RunLimits::with_max(100_000)).unwrap();
    for ((config, _, annotated), got) in requests.iter().zip(bank.finish()) {
        assert_eq!(got, per_config(annotated, config.clone()), "{config:?}");
    }
}

#[test]
fn store_to_load_chains_across_page_edges_and_the_top_of_memory() {
    // Each iteration stores then reloads words straddling a page edge and
    // the last words of the address space, so every load must find the
    // slot of the store just before it.
    let src = "li r1, 0\nli r2, 50\nli r8, 4095\nli r9, -2\n\
               top: sd r1, 0(r8)\nsd r1, 1(r8)\nld r3, 0(r8)\nld r4, 1(r8)\n\
               sd r3, 0(r9)\nsd r4, 1(r9)\nld r5, 1(r9)\nld r6, 2(r9)\n\
               add r1, r5, r6\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
    let program = assemble(src).unwrap();
    let mut plan = IlpPlan::new();
    let table = plan.add_directives(&program);
    let configs: Vec<IlpConfig> = grid().into_iter().step_by(4).collect();
    for config in &configs {
        plan.add_machine(config.clone(), table);
    }
    let results = fused(plan, &program);
    for (config, got) in configs.iter().zip(&results) {
        assert_eq!(*got, per_config(&program, config.clone()), "{config:?}");
    }
    // The store→load chain serialises the loop: a word-1 load waits on
    // its store, so the loop cannot run faster than its memory chain.
    let base = per_config(&program, IlpConfig::paper_no_vp());
    assert!(base.cycles >= 50 * 3, "{base}");
}

#[test]
fn an_empty_plan_runs_no_machine() {
    let program = assemble("li r1, 1\nhalt\n").unwrap();
    let bank = IlpPlan::new().into_bank();
    assert_eq!((bank.requests(), bank.machines()), (0, 0));
    assert!(fused(IlpPlan::new(), &program).is_empty());
}
