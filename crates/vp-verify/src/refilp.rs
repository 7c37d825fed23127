//! Reference §5.3 abstract ILP machine: a map-based model the optimised
//! [`vp_ilp::IlpAnalyzer`] (and the fused ILP plans built on it) must
//! agree with.
//!
//! The model is written straight from the machine's definition: a
//! `VecDeque` of in-flight completion cycles for the instruction window,
//! a `HashMap` from word address to the completion cycle of the latest
//! store, and one trace replay per machine configuration, reading the
//! directives of whatever program the trace is replayed against. The
//! value predictor and the branch direction predictor are the real ones
//! (both are checked by their own oracles); the scheduling state and
//! rules are independent.

use std::collections::{HashMap, VecDeque};

use vp_ilp::{BranchPredictor, IlpConfig, IlpResult};
use vp_isa::{Reg, RegClass};
use vp_predictor::ValuePredictor;
use vp_sim::{Retirement, Tracer};

/// A map-based abstract ILP machine, used as a [`Tracer`].
pub struct RefIlpMachine {
    window: usize,
    penalty: u64,
    branch_penalty: u64,
    predictor: Option<Box<dyn ValuePredictor>>,
    branch: BranchPredictor,
    in_flight: VecDeque<u64>,
    int_ready: HashMap<u8, u64>,
    fp_ready: HashMap<u8, u64>,
    store_ready: HashMap<u64, u64>,
    fetch_stall_until: u64,
    instructions: u64,
    cycles: u64,
}

impl RefIlpMachine {
    /// A fresh machine for `config`.
    #[must_use]
    pub fn new(config: &IlpConfig) -> Self {
        RefIlpMachine {
            window: config.window,
            penalty: config.penalty,
            branch_penalty: config.branch_penalty,
            predictor: config.predictor.as_ref().map(|c| c.build()),
            branch: BranchPredictor::new(config.branch),
            in_flight: VecDeque::new(),
            int_ready: HashMap::new(),
            fp_ready: HashMap::new(),
            store_ready: HashMap::new(),
            fetch_stall_until: 0,
            instructions: 0,
            cycles: 0,
        }
    }

    /// The result so far.
    #[must_use]
    pub fn finish(self) -> IlpResult {
        IlpResult {
            instructions: self.instructions,
            cycles: self.cycles,
            predictor: self.predictor.map(|p| *p.stats()),
        }
    }

    fn ready(&self, class: RegClass, reg: Reg) -> u64 {
        if class == RegClass::Int && reg.is_zero() {
            return 0;
        }
        let file = match class {
            RegClass::Int => &self.int_ready,
            RegClass::Fp => &self.fp_ready,
        };
        file.get(&reg.index()).copied().unwrap_or(0)
    }
}

impl Tracer for RefIlpMachine {
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.instructions += 1;

        // The window holds the completion cycles of the last `window`
        // instructions; a full window frees the oldest slot only when
        // that instruction completes.
        let window_bound = if self.in_flight.len() == self.window {
            self.in_flight[0]
        } else {
            0
        };
        let dispatch = window_bound.max(self.fetch_stall_until);

        let mut operands = dispatch;
        for (class, reg) in ev.instr.sources().into_iter().flatten() {
            operands = operands.max(self.ready(class, reg));
        }
        if let Some(mem) = ev.mem {
            if !mem.store {
                if let Some(&t) = self.store_ready.get(&mem.addr) {
                    operands = operands.max(t);
                }
            }
        }
        let completion = operands + 1;

        if let Some((class, reg, actual)) = ev.dest {
            let mut ready = completion;
            if let Some(p) = &mut self.predictor {
                let access = p.access(ev.addr, ev.instr.directive, actual);
                if access.speculated_correct() {
                    ready = dispatch;
                } else if access.speculated_incorrect() {
                    ready = completion + self.penalty;
                }
            }
            if !(class == RegClass::Int && reg.is_zero()) {
                let file = match class {
                    RegClass::Int => &mut self.int_ready,
                    RegClass::Fp => &mut self.fp_ready,
                };
                file.insert(reg.index(), ready);
            }
        }

        if let Some(mem) = ev.mem {
            if mem.store {
                self.store_ready.insert(mem.addr, completion);
            }
        }

        if let Some(taken) = ev.taken {
            if !self.branch.predict_and_update(ev.addr, taken) {
                self.fetch_stall_until =
                    self.fetch_stall_until.max(completion + self.branch_penalty);
            }
        }

        if self.in_flight.len() == self.window {
            self.in_flight.pop_front();
        }
        self.in_flight.push_back(completion);
        self.cycles = self.cycles.max(completion);
    }
}
