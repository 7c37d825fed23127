//! Many abstract machines, one trace replay.
//!
//! Table 5.2 and the ILP ablations run several machine configurations ×
//! several directive annotations over the *same* reference trace. An
//! [`IlpPlan`] collects those requests, and its [`IlpBank`] feeds every
//! distinct machine from one replay: the event is decoded once, the
//! memory word it touches is resolved to a store slot once (the bank
//! shares one address→slot map, and each machine keeps its store-ready
//! cycles in a dense slot-indexed column), and each machine reads its
//! directive from its own annotation table.
//!
//! Requests dedupe the way the fused predictor sweep's cells do:
//! identical annotation tables register once
//! ([`IlpPlan::add_directives`]), and two requests share a machine when
//! their configurations are equal and they read the same table. A machine
//! without a value predictor reads no directives, so its table never
//! separates it from an otherwise equal request.

use std::collections::HashMap;

use vp_isa::{Directive, Program};
use vp_sim::{Retirement, Tracer};

use crate::analyzer::Machine;
use crate::slots::StoreSlots;
use crate::{IlpConfig, IlpResult};

/// The machines to run over one trace: directive tables plus
/// `(IlpConfig, table)` requests.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::{IlpConfig, IlpPlan};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 0\nli r2, 500\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")?;
/// let mut plan = IlpPlan::new();
/// let table = plan.add_directives(&p);
/// plan.add_machine(IlpConfig::paper_no_vp(), table);
/// plan.add_machine(IlpConfig::paper_vp_fsm(), table);
/// plan.add_machine(IlpConfig::paper_vp_fsm(), table); // shares a machine
///
/// let mut bank = plan.into_bank();
/// assert_eq!((bank.requests(), bank.machines()), (3, 2));
/// run(&p, &mut bank, RunLimits::default())?;
/// let results = bank.finish();
/// assert_eq!(results.len(), 3);
/// assert_eq!(results[1], results[2]);
/// assert!(results[1].ilp() > results[0].ilp());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IlpPlan {
    tables: Vec<Vec<Directive>>,
    requests: Vec<(IlpConfig, usize)>,
}

impl IlpPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        IlpPlan::default()
    }

    /// Registers `program`'s directive annotation as a table and returns
    /// its index for [`IlpPlan::add_machine`]. Identical annotations (for
    /// example two thresholds that tag the same instructions) dedupe to
    /// one table.
    pub fn add_directives(&mut self, program: &Program) -> usize {
        let table: Vec<Directive> = program.text().iter().map(|i| i.directive).collect();
        if let Some(i) = self.tables.iter().position(|t| *t == table) {
            return i;
        }
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Requests a machine running `config` that reads its directives from
    /// table `directives`. Results come back in request order.
    ///
    /// # Panics
    ///
    /// Panics if `directives` was not returned by
    /// [`IlpPlan::add_directives`] on this plan.
    pub fn add_machine(&mut self, config: IlpConfig, directives: usize) {
        assert!(
            directives < self.tables.len(),
            "directive table {directives} not registered (plan has {})",
            self.tables.len()
        );
        self.requests.push((config, directives));
    }

    /// Builds the bank of distinct machines, ready to be fed one replay.
    /// A request shares the machine of an earlier one with an equal
    /// configuration reading the same table (any table, without a value
    /// predictor).
    #[must_use]
    pub fn into_bank(self) -> IlpBank {
        let mut machines = Vec::new();
        let mut reads = Vec::new();
        let mut machine_of = Vec::with_capacity(self.requests.len());
        let mut index: HashMap<(IlpConfig, Option<usize>), usize> = HashMap::new();
        for (config, table) in self.requests {
            let read = config.predictor.is_some().then_some(table);
            let machine = *index.entry((config.clone(), read)).or_insert_with(|| {
                machines.push(Machine::new(config));
                reads.push(read);
                machines.len() - 1
            });
            machine_of.push(machine);
        }
        IlpBank {
            tables: self.tables,
            machines,
            reads,
            machine_of,
            stores: StoreSlots::new(),
        }
    }
}

/// The distinct machines of an [`IlpPlan`], used as one [`Tracer`]: every
/// retired instruction is scheduled on each machine in turn.
pub struct IlpBank {
    tables: Vec<Vec<Directive>>,
    machines: Vec<Machine>,
    /// Per machine, the directive table it reads (`None`: no predictor).
    reads: Vec<Option<usize>>,
    /// Per request, the machine that answers it.
    machine_of: Vec<usize>,
    stores: StoreSlots,
}

impl IlpBank {
    /// Number of requested machines.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.machine_of.len()
    }

    /// Number of distinct machines the bank runs.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// Finishes every machine and returns one result per request, in
    /// request order (requests sharing a machine get equal results).
    #[must_use]
    pub fn finish(self) -> Vec<IlpResult> {
        let results: Vec<IlpResult> = self.machines.into_iter().map(Machine::finish).collect();
        self.machine_of
            .iter()
            .map(|&m| results[m].clone())
            .collect()
    }
}

impl Tracer for IlpBank {
    fn retire(&mut self, ev: &Retirement<'_>) {
        let store_slot = ev.mem.and_then(|mem| self.stores.resolve(mem));
        let pc = ev.addr.index() as usize;
        for (machine, read) in self.machines.iter_mut().zip(&self.reads) {
            let directive = match read {
                Some(table) => self.tables[*table]
                    .get(pc)
                    .copied()
                    .unwrap_or(Directive::None),
                None => Directive::None,
            };
            machine.step(ev, directive, store_slot);
        }
    }
}
