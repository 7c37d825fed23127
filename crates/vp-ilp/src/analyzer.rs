//! The trace-driven dataflow analysis.

use vp_isa::{Directive, Reg, RegClass};
use vp_predictor::ValuePredictor;
use vp_sim::{Retirement, Tracer};

use crate::branch::BranchPredictor;
use crate::slots::StoreSlots;
use crate::{IlpConfig, IlpResult, SlidingWindow};

const LATENCY: u64 = 1;

/// Replays a retirement trace through the abstract machine, computing the
/// schedule each instruction would get on the paper's §5.3 machine.
///
/// Use as a `vp-sim` [`Tracer`]; call [`IlpAnalyzer::finish`] afterwards.
/// To run several configurations over one trace, submit them as one
/// [`IlpPlan`](crate::IlpPlan) instead: its bank feeds every distinct
/// machine from a single replay.
///
/// # Examples
///
/// Independent instructions dispatch together (unlimited execution units):
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::{IlpAnalyzer, IlpConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 1\nli r2, 2\nli r3, 3\nli r4, 4\nhalt\n")?;
/// let mut a = IlpAnalyzer::new(IlpConfig::paper_no_vp());
/// run(&p, &mut a, RunLimits::default())?;
/// assert!(a.finish().ilp() >= 4.0);
/// # Ok(())
/// # }
/// ```
pub struct IlpAnalyzer {
    machine: Machine,
    stores: StoreSlots,
}

impl IlpAnalyzer {
    /// Creates an analyzer for the given machine configuration.
    #[must_use]
    pub fn new(config: IlpConfig) -> Self {
        IlpAnalyzer {
            machine: Machine::new(config),
            stores: StoreSlots::new(),
        }
    }

    /// Retires `ev` as if its instruction carried `directive`, whatever
    /// directive the replayed program's text holds. One decoded event can
    /// so drive machines that read different directive annotations.
    #[inline]
    pub fn retire_with(&mut self, ev: &Retirement<'_>, directive: Directive) {
        let store_slot = ev.mem.and_then(|mem| self.stores.resolve(mem));
        self.machine.step(ev, directive, store_slot);
    }

    /// Conditional branches mispredicted by the configured front end
    /// (always 0 with the paper's perfect branch prediction).
    #[must_use]
    pub fn branch_mispredictions(&self) -> u64 {
        self.machine.branch_mispredictions
    }

    /// Finishes the analysis and returns the result.
    #[must_use]
    pub fn finish(self) -> IlpResult {
        self.machine.finish()
    }
}

impl Tracer for IlpAnalyzer {
    #[inline]
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.retire_with(ev, ev.instr.directive);
    }
}

/// The state of one abstract machine. Memory words are named by dense
/// store slots resolved outside ([`StoreSlots`]), so machines that replay
/// the same trace can share one address map.
pub(crate) struct Machine {
    penalty: u64,
    branch_penalty: u64,
    predictor: Option<Box<dyn ValuePredictor>>,
    branch: BranchPredictor,
    window: SlidingWindow,
    int_ready: [u64; vp_isa::reg::NUM_REGS],
    fp_ready: [u64; vp_isa::reg::NUM_REGS],
    /// Completion cycle of the latest store to each store slot.
    store_ready: Vec<u64>,
    fetch_stall_until: u64,
    branch_mispredictions: u64,
    instructions: u64,
    last_completion: u64,
}

impl Machine {
    pub(crate) fn new(config: IlpConfig) -> Self {
        Machine {
            penalty: config.penalty,
            branch_penalty: config.branch_penalty,
            predictor: config.predictor.as_ref().map(|c| c.build()),
            branch: BranchPredictor::new(config.branch),
            window: SlidingWindow::new(config.window),
            int_ready: [0; vp_isa::reg::NUM_REGS],
            fp_ready: [0; vp_isa::reg::NUM_REGS],
            store_ready: Vec::new(),
            fetch_stall_until: 0,
            branch_mispredictions: 0,
            instructions: 0,
            last_completion: 0,
        }
    }

    pub(crate) fn finish(self) -> IlpResult {
        IlpResult {
            instructions: self.instructions,
            cycles: self.last_completion,
            predictor: self.predictor.map(|p| *p.stats()),
        }
    }

    fn reg_ready(&self, class: RegClass, reg: Reg) -> u64 {
        match class {
            // The hardwired zero register is always ready.
            RegClass::Int if reg.is_zero() => 0,
            RegClass::Int => self.int_ready[usize::from(reg)],
            RegClass::Fp => self.fp_ready[usize::from(reg)],
        }
    }

    fn set_reg_ready(&mut self, class: RegClass, reg: Reg, cycle: u64) {
        match class {
            RegClass::Int if reg.is_zero() => {}
            RegClass::Int => self.int_ready[usize::from(reg)] = cycle,
            RegClass::Fp => self.fp_ready[usize::from(reg)] = cycle,
        }
    }

    /// Schedules one retired instruction. `directive` is what the value
    /// predictor reads for it; `store_slot` is the slot of the memory
    /// word it touches, if a store has ever written that word.
    #[inline]
    pub(crate) fn step(
        &mut self,
        ev: &Retirement<'_>,
        directive: Directive,
        store_slot: Option<usize>,
    ) {
        self.instructions += 1;

        // 1. Dispatch: bounded by window occupancy and — when the perfect
        //    front end is relaxed — by pending branch-misprediction
        //    redirects.
        let dispatch = self.window.dispatch_bound().max(self.fetch_stall_until);

        // 2. Issue: operands ready. Loads additionally wait for the latest
        //    store to the same word (true memory dependence).
        let mut operands = dispatch;
        for src in ev.instr.sources().into_iter().flatten() {
            operands = operands.max(self.reg_ready(src.0, src.1));
        }
        let store = ev.mem.is_some_and(|mem| mem.store);
        if let (Some(slot), false) = (store_slot, store) {
            // The store that allocated the slot grew this column.
            operands = operands.max(self.store_ready[slot]);
        }
        let completion = operands + LATENCY;

        // 3. Value prediction: collapse the output dependence if the
        //    predictor supplied a value the classifier trusted.
        if let Some((class, reg, actual)) = ev.dest {
            let ready = match &mut self.predictor {
                Some(p) => {
                    let access = p.access(ev.addr, directive, actual);
                    if access.speculated_correct() {
                        // Dependents read the predicted value as soon as this
                        // instruction occupies the window.
                        dispatch
                    } else if access.speculated_incorrect() {
                        completion + self.penalty
                    } else {
                        completion
                    }
                }
                None => completion,
            };
            self.set_reg_ready(class, reg, ready);
        }

        // 4. Memory effect.
        if let (Some(slot), true) = (store_slot, store) {
            if slot >= self.store_ready.len() {
                self.store_ready.resize(slot + 1, 0);
            }
            self.store_ready[slot] = completion;
        }

        // 5. Branch resolution: a mispredicted conditional branch redirects
        //    fetch once it resolves, stalling every younger dispatch.
        if let Some(taken) = ev.taken {
            if !self.branch.predict_and_update(ev.addr, taken) {
                self.branch_mispredictions += 1;
                self.fetch_stall_until =
                    self.fetch_stall_until.max(completion + self.branch_penalty);
            }
        }

        self.window.push_completion(completion);
        self.last_completion = self.last_completion.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    fn ilp_of(src: &str, config: IlpConfig) -> IlpResult {
        let p = assemble(src).unwrap();
        let mut a = IlpAnalyzer::new(config);
        run(&p, &mut a, RunLimits::default()).unwrap();
        a.finish()
    }

    /// A 1000-iteration serial accumulator chain: every addi depends on the
    /// previous one.
    const SERIAL_CHAIN: &str = "li r1, 0\nli r2, 1000\nli r3, 0\n\
top: addi r3, r3, 7\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    #[test]
    fn dataflow_limit_of_a_serial_chain() {
        let r = ilp_of(SERIAL_CHAIN, IlpConfig::paper_no_vp());
        // Two independent chains (r3 accumulator, r1 index) + branch:
        // 3 instructions per iteration, critical path 1 cycle per iteration.
        let ilp = r.ilp();
        assert!(ilp > 2.5 && ilp <= 3.5, "ilp = {ilp}");
    }

    #[test]
    fn window_bounds_parallelism() {
        // 400 fully independent li instructions: with unlimited execution
        // units, ILP is capped purely by the window size.
        let mut wide = String::new();
        for i in 0..400 {
            wide.push_str(&format!("li r{}, {i}\n", 1 + i % 31));
        }
        wide.push_str("halt\n");
        let big = ilp_of(&wide, IlpConfig::paper_no_vp()).ilp();
        let small = ilp_of(&wide, IlpConfig::paper_no_vp().with_window(4)).ilp();
        assert!(
            big > 3.0 * small,
            "larger window must expose more ILP ({big} vs {small})"
        );
        assert!(small <= 4.0 + 1e-9);
        assert!(big <= 40.0 + 1e-9);
    }

    #[test]
    fn value_prediction_exceeds_the_dataflow_limit() {
        // The r3 accumulator chain is perfectly stride-predictable; VP must
        // collapse it. This is the paper's headline claim.
        let base = ilp_of(SERIAL_CHAIN, IlpConfig::paper_no_vp());
        let vp = ilp_of(SERIAL_CHAIN, IlpConfig::paper_vp_fsm());
        assert!(
            vp.ilp() > base.ilp() * 1.5,
            "vp {} must clearly beat base {}",
            vp.ilp(),
            base.ilp()
        );
        let stats = vp.predictor.unwrap();
        assert!(stats.speculated_correct > 0);
    }

    #[test]
    fn store_to_load_dependence_is_honoured() {
        // A pointer-chase through memory written immediately before: the
        // load must wait for the store.
        let chase = "li r1, 0\nli r2, 500\n\
top: sd r1, 100(r1)\nld r3, 100(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let r = ilp_of(chase, IlpConfig::paper_no_vp());
        // store(c) -> load(c+1) is a 2-cycle chain per iteration, but the
        // index chain is 1/iter; ILP must reflect the memory serialisation:
        // 4 instrs per iter, ~1 cycle/iter critical path via index + window.
        assert!(r.ilp() < 5.0);
        // Sanity: dropping the store-load pair should raise ILP per cycle.
    }

    #[test]
    fn misprediction_penalty_hurts() {
        // An unpredictable chain (quadratic values) with an always-predict
        // classifier: every speculation is wrong and costs penalty cycles.
        let quad = "li r1, 0\nli r2, 1000\nli r3, 0\nli r4, 0\n\
top: addi r3, r3, 2\nadd r4, r4, r3\nmul r5, r4, r4\nadd r6, r5, r4\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
        let always = IlpConfig {
            penalty: 8,
            predictor: Some(PredictorConfig::TableStride {
                geometry: TableGeometry::SPEC_512_2WAY,
                classifier: ClassifierKind::Always,
            }),
            ..IlpConfig::paper_no_vp()
        };
        let base = ilp_of(quad, IlpConfig::paper_no_vp());
        let hurt = ilp_of(quad, always.clone());
        let gentle = ilp_of(
            quad,
            IlpConfig {
                penalty: 0,
                ..always
            },
        );
        assert!(
            hurt.ilp() < gentle.ilp(),
            "penalty must cost cycles ({} vs {})",
            hurt.ilp(),
            gentle.ilp()
        );
        // With a zero penalty, speculating everything can't be worse than
        // no VP on this code.
        assert!(gentle.ilp() >= base.ilp() * 0.99);
    }

    #[test]
    fn real_branch_prediction_costs_cycles_on_irregular_branches() {
        use crate::BranchConfig;
        // Data-dependent branches on pseudo-random values: a real predictor
        // must miss some of them.
        let irregular = "li r1, 0\nli r2, 2000\nli r3, 12345\n\
top: muli r3, r3, 1103515245\naddi r3, r3, 12345\nsrli r4, r3, 16\nandi r4, r4, 1\n\
beq r4, r0, even\naddi r5, r5, 1\neven: addi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let perfect = ilp_of(irregular, IlpConfig::paper_no_vp());
        let p = assemble(irregular).unwrap();
        let mut real =
            IlpAnalyzer::new(IlpConfig::paper_no_vp().with_branch(BranchConfig::bimodal_4k(), 8));
        run(&p, &mut real, RunLimits::default()).unwrap();
        let mispredictions = real.branch_mispredictions();
        let real = real.finish();
        assert!(
            mispredictions > 100,
            "irregular branch must miss ({mispredictions})"
        );
        assert!(
            real.ilp() < 0.8 * perfect.ilp(),
            "redirect stalls must cost ILP: {} vs perfect {}",
            real.ilp(),
            perfect.ilp()
        );
        // The loop-back branch itself is almost perfectly biased, so the
        // misprediction count stays well below the branch count.
        assert!(mispredictions < 2_500);
    }

    #[test]
    fn biased_branches_are_nearly_free_even_with_a_real_predictor() {
        use crate::BranchConfig;
        let loopy = "li r1, 0\nli r2, 2000\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let perfect = ilp_of(loopy, IlpConfig::paper_no_vp());
        let p = assemble(loopy).unwrap();
        let mut real =
            IlpAnalyzer::new(IlpConfig::paper_no_vp().with_branch(BranchConfig::gshare_4k(), 8));
        run(&p, &mut real, RunLimits::default()).unwrap();
        // Warm-up only: one miss per fresh gshare history pattern.
        assert!(
            real.branch_mispredictions() < 20,
            "{}",
            real.branch_mispredictions()
        );
        let real = real.finish();
        assert!(
            real.ilp() > 0.9 * perfect.ilp(),
            "{} vs perfect {}",
            real.ilp(),
            perfect.ilp()
        );
    }

    #[test]
    fn empty_trace_finishes_cleanly() {
        let a = IlpAnalyzer::new(IlpConfig::paper_no_vp());
        let r = a.finish();
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ilp(), 0.0);
    }
}
