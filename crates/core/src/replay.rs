//! PC-sharded parallel predictor replay.
//!
//! Both predictor families of the paper key their dynamic state purely by
//! **static instruction address** — the infinite predictors keep one cell
//! per address, the finite tables one set per `addr mod sets` (tags, LRU
//! stamps and conflict counts all live inside a set). Replaying a trace
//! through a predictor is therefore embarrassingly parallel once the
//! trace's value events are partitioned by that key: every shard replays
//! against an independent predictor instance, observes exactly the
//! accesses a sequential run would have routed to its state partition *in
//! the same order*, and the per-shard [`PredictorStats`] merge by field
//! addition ([`PredictorStats::merge`]) into totals **bit-identical** to
//! a sequential replay, at any shard count.
//!
//! The shard key is supplied by [`PredictorConfig::shard_key`]; the
//! partition itself is a zero-copy view over the columnar trace
//! ([`vp_sim::TraceColumns::shard_by_pc`]). Shards run on the same
//! deterministic worker pool as the experiment grids
//! ([`crate::exec::parallel_map`]), and [`auto_shards`] degrades to a
//! single shard inside an already-parallel grid worker so nested fan-out
//! never oversubscribes the machine.
//!
//! On top of the per-cell replay sits the **fused sweep matrix**: every
//! headline figure of the paper is a sweep — several predictor
//! configurations × several profiling thresholds over the *same* trace —
//! and replaying per cell scans the identical value stream `cells` times.
//! The fused kernel (`MatrixScanner`) streams the trace once, resolves
//! each distinct directive annotation's per-PC row once per block, and
//! feeds the block to a bank of predictors
//! ([`vp_predictor::ValuePredictor::access_batch`]), sharding by the
//! *joint* state-partition key (gcd of the cells' moduli) so every cell's
//! grid entry stays bit-identical to its sequential per-cell replay.
//! Per-PC misprediction attribution rides on the same kernel: the block
//! call folds each access outcome into a per-cell table as it goes, and
//! never changes the stats.
//!
//! ## Entry point
//!
//! All replays go through one builder, [`ReplayRequest`]: pick a source
//! ([`ReplayRequest::batch`] for a resident [`Trace`],
//! [`ReplayRequest::stream`] to simulate and predict concurrently without
//! ever materialising the trace — see [`stream`]), describe the cells
//! ([`ReplayRequest::plan`] / [`ReplayRequest::single`]), and [`run`]
//! it. Every run is one pipeline — dedupe the cells, scan each shard,
//! merge the shards, expand to plan order — and the source only decides
//! where each shard's value events come from.
//!
//! [`run`]: ReplayRequest::run

use std::collections::HashMap;
use std::io;
use std::time::Instant;

use vp_isa::{Directive, InstrAddr, Program};
use vp_predictor::{AttributionTable, PredictorConfig, PredictorStats, ValuePredictor};
use vp_sim::{RunLimits, Trace};

use crate::exec::{in_worker, parallel_map};

pub mod stream;

/// Traces below this many events are replayed unsharded: the per-shard
/// flag-column rescan and thread hand-off would cost more than they save.
pub const MIN_SHARD_EVENTS: usize = 1 << 16;

/// The result of a (possibly sharded) predictor replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOutcome {
    /// Merged predictor statistics, bit-identical to a sequential replay.
    pub stats: PredictorStats,
    /// Total occupied table entries across shards (state partitions are
    /// disjoint, so the sum equals a single predictor's occupancy).
    pub occupancy: usize,
    /// How many shards actually ran.
    pub shards: usize,
}

/// Picks a shard count for a replay: `jobs` shards when sharding can help,
/// 1 when it cannot (serial run, tiny trace) or must not (already inside a
/// [`parallel_map`] worker, where nested fan-out would oversubscribe the
/// pool). Output never depends on the choice — only wall-clock does.
///
/// For a streaming replay the event count is unknown up front; pass
/// [`usize::MAX`] to let `jobs` and worker-nesting decide alone.
#[must_use]
pub fn auto_shards(jobs: usize, events: usize) -> usize {
    if jobs <= 1 || events < MIN_SHARD_EVENTS || in_worker() {
        1
    } else {
        jobs
    }
}

/// Events per fused-kernel block: long enough to amortise the one virtual
/// `access_batch` call per (block, cell) and keep each predictor's tables
/// hot across the block, short enough that the scratch columns (addresses,
/// values, one directive row per distinct annotation) stay cache-resident.
pub(crate) const MATRIX_BLOCK: usize = 1024;

/// One cell of a [`SweepPlan`]: a predictor configuration replayed under
/// one of the plan's directive annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixCell {
    /// The predictor + classifier to replay.
    pub config: PredictorConfig,
    /// Index of the directive table (from [`SweepPlan::add_directives`])
    /// this cell reads its per-PC directives from. Cells sharing a table
    /// share its resolved directive row — the sweep's "compute each
    /// threshold's annotation once" cache.
    pub directives: usize,
}

/// The full sweep matrix for one trace: a set of directive annotations
/// (one per distinct profiling threshold, plus the bare program) and the
/// `(PredictorConfig, annotation)` cells to replay under them.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    tables: Vec<Vec<Directive>>,
    cells: Vec<MatrixCell>,
}

impl SweepPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        SweepPlan::default()
    }

    /// Registers `program`'s directive annotation as a table and returns
    /// its index for [`SweepPlan::add_cell`]. Identical annotations (e.g.
    /// two thresholds that saturate to the same tagging) dedupe to one
    /// table, so the kernel resolves their directive row once.
    pub fn add_directives(&mut self, program: &Program) -> usize {
        let table: Vec<Directive> = program.text().iter().map(|i| i.directive).collect();
        if let Some(i) = self.tables.iter().position(|t| *t == table) {
            return i;
        }
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Adds a cell replaying `config` under directive table `directives`.
    ///
    /// # Panics
    ///
    /// Panics if `directives` was not returned by
    /// [`SweepPlan::add_directives`] on this plan.
    pub fn add_cell(&mut self, config: PredictorConfig, directives: usize) {
        assert!(
            directives < self.tables.len(),
            "directive table {directives} not registered (plan has {})",
            self.tables.len()
        );
        self.cells.push(MatrixCell { config, directives });
    }

    /// The cells in request order.
    #[must_use]
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// Whether the plan has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Greatest common divisor (Euclid); used for the joint shard modulus.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// The coarsest state partition compatible with *every* cell of the plan:
/// the gcd of the finite cells' [`PredictorConfig::shard_modulus`] values.
///
/// `g` divides each finite cell's modulus `m`, so two addresses sharing
/// state in that cell (`a ≡ b mod m`) also share a shard (`a ≡ b mod g`);
/// infinite cells keep purely per-address state, which any function of the
/// address respects. `None` (an all-infinite plan) shards by raw address.
fn joint_shard_modulus(cells: &[MatrixCell]) -> Option<u64> {
    let mut joint: Option<u64> = None;
    for cell in cells {
        if let Some(m) = cell.config.shard_modulus() {
            joint = Some(match joint {
                Some(g) => gcd(g, m),
                None => m,
            });
        }
    }
    joint
}

/// Dedupes the plan's cells: returns the distinct cells (the predictor
/// bank's slots) and, per request cell, the slot it maps to.
fn dedupe_cells(cells: &[MatrixCell]) -> (Vec<MatrixCell>, Vec<usize>) {
    let mut slots = Vec::new();
    let mut slot_of = Vec::with_capacity(cells.len());
    let mut index: HashMap<MatrixCell, usize> = HashMap::new();
    for &cell in cells {
        let slot = *index.entry(cell).or_insert_with(|| {
            slots.push(cell);
            slots.len() - 1
        });
        slot_of.push(slot);
    }
    (slots, slot_of)
}

/// The distinct directive tables the slots actually read, ascending.
fn used_tables(slots: &[MatrixCell]) -> Vec<usize> {
    let mut used: Vec<usize> = slots.iter().map(|c| c.directives).collect();
    used.sort_unstable();
    used.dedup();
    used
}

/// One shard's result for one predictor-bank slot: merged stats, table
/// occupancy and, when attribution was requested, the per-PC table.
pub(crate) type SlotResult = (PredictorStats, usize, Option<AttributionTable>);

/// The push-based fused kernel: accumulates one shard's value events into
/// [`MATRIX_BLOCK`]-sized scratch columns, resolves each full block's
/// directive row once per distinct annotation and feeds the block to
/// every predictor in the bank via [`ValuePredictor::access_batch`] (one
/// virtual call per block per cell, statically dispatched inside).
///
/// With attribution on, each cell's `access_batch` also folds every
/// access outcome into that cell's [`AttributionTable`], in slice order.
/// Every cell still sees its events in trace order, and a PC's shadow
/// history depends only on that PC's own accesses, so the tables equal an
/// event-at-a-time replay's.
///
/// Both the batch scan and the streaming consumers ([`stream`]) drive
/// this same kernel, so their per-event instruction streams — and
/// therefore their results — cannot drift apart: the block boundaries a
/// consumer happens to deliver never matter, only the accumulated
/// [`MATRIX_BLOCK`] chunking here does.
struct MatrixScanner<'p> {
    banks: Vec<Box<dyn ValuePredictor>>,
    attributions: Option<Vec<AttributionTable>>,
    tables: &'p [Vec<Directive>],
    slots: &'p [MatrixCell],
    used: Vec<usize>,
    addrs: Vec<InstrAddr>,
    values: Vec<u64>,
    rows: Vec<Vec<Directive>>,
}

impl<'p> MatrixScanner<'p> {
    fn new(tables: &'p [Vec<Directive>], slots: &'p [MatrixCell], attribution: bool) -> Self {
        MatrixScanner {
            banks: slots.iter().map(|c| c.config.build()).collect(),
            attributions: attribution
                .then(|| slots.iter().map(|_| AttributionTable::new()).collect()),
            tables,
            slots,
            used: used_tables(slots),
            addrs: Vec::with_capacity(MATRIX_BLOCK),
            values: Vec::with_capacity(MATRIX_BLOCK),
            rows: tables
                .iter()
                .map(|_| Vec::with_capacity(MATRIX_BLOCK))
                .collect(),
        }
    }

    fn push(&mut self, addr: InstrAddr, value: u64) -> io::Result<()> {
        self.addrs.push(addr);
        self.values.push(value);
        if self.addrs.len() == MATRIX_BLOCK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.addrs.is_empty() {
            return Ok(());
        }
        for &t in &self.used {
            let table = &self.tables[t];
            let row = &mut self.rows[t];
            row.clear();
            for &addr in &self.addrs {
                row.push(
                    *table
                        .get(addr.index() as usize)
                        .ok_or_else(|| outside_text(addr))?,
                );
            }
        }
        for (i, (bank, cell)) in self.banks.iter_mut().zip(self.slots).enumerate() {
            let table = self.attributions.as_mut().map(|tables| &mut tables[i]);
            bank.access_batch(
                &self.addrs,
                &self.rows[cell.directives],
                &self.values,
                table,
            );
        }
        self.addrs.clear();
        self.values.clear();
        Ok(())
    }

    fn finish(mut self) -> io::Result<Vec<SlotResult>> {
        self.flush()?;
        let mut attributions = self.attributions.map(Vec::into_iter);
        Ok(self
            .banks
            .iter()
            .map(|b| {
                let table = attributions.as_mut().and_then(Iterator::next);
                (*b.stats(), b.occupancy(), table)
            })
            .collect())
    }
}

/// One fused pass over one trace, shared by every shard: the plan's
/// directive tables, the deduped predictor-bank slots, their joint shard
/// key and whether to attribute. The batch and stream sources differ only
/// in how they produce each shard's event iterator for [`FusedPass::scan`].
pub(crate) struct FusedPass<'p> {
    tables: &'p [Vec<Directive>],
    slots: &'p [MatrixCell],
    modulus: Option<u64>,
    attribution: bool,
}

impl FusedPass<'_> {
    /// The PC-shard key of `addr`: its index modulo the joint modulus
    /// (see [`joint_shard_modulus`]), or the raw index for an
    /// all-infinite plan.
    pub(crate) fn shard_key(&self, addr: InstrAddr) -> u64 {
        let index = u64::from(addr.index());
        match self.modulus {
            Some(g) => index % g,
            None => index,
        }
    }

    /// Drains one shard's `events` through a [`MatrixScanner`] and returns
    /// one result per slot.
    pub(crate) fn scan<I>(&self, events: I) -> io::Result<Vec<SlotResult>>
    where
        I: Iterator<Item = (InstrAddr, u64)>,
    {
        let mut scanner = MatrixScanner::new(self.tables, self.slots, self.attribution);
        for (addr, value) in events {
            scanner.push(addr, value)?;
        }
        scanner.finish()
    }
}

/// Folds the per-shard results slot by slot. Shards own disjoint state
/// partitions, so stats and occupancy add and the tables' PCs are
/// disjoint.
fn merge_shards(parts: Vec<Vec<SlotResult>>) -> Vec<SlotResult> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().unwrap_or_default();
    for part in parts {
        for (acc, (stats, occupancy, table)) in merged.iter_mut().zip(part) {
            acc.0.merge(&stats);
            acc.1 += occupancy;
            if let (Some(acc), Some(table)) = (&mut acc.2, table) {
                acc.merge(&table);
            }
        }
    }
    merged
}

/// The batch source: scans a resident trace under a `matrix` span. One
/// shard reads the zero-copy value-event column directly; more shards
/// scan PC-partitioned views of it on the worker pool.
fn batch_shards(
    trace: &Trace,
    pass: &FusedPass<'_>,
    shards: usize,
    jobs: usize,
) -> io::Result<Vec<Vec<SlotResult>>> {
    let _span = vp_obs::span("matrix");
    let cols = trace.columns();
    if shards == 1 {
        let per_slot = pass.scan(cols.value_events())?;
        vp_obs::counter("replay.shards").add(1);
        return Ok(vec![per_slot]);
    }

    let views = cols.shard_by_pc(shards, |addr| pass.shard_key(addr));
    let parts = parallel_map(jobs, &views, |shard| -> io::Result<_> {
        let started = Instant::now();
        let per_slot = pass.scan(shard.values())?;
        Ok((per_slot, started.elapsed().as_micros() as u64))
    });
    let mut per_shard = Vec::with_capacity(shards);
    let (mut fastest, mut slowest) = (u64::MAX, 0u64);
    for part in parts {
        let (per_slot, micros) = part?;
        per_shard.push(per_slot);
        fastest = fastest.min(micros);
        slowest = slowest.max(micros);
    }
    let skew_us = slowest.saturating_sub(fastest);
    vp_obs::counter("replay.shards").add(shards as u64);
    vp_obs::gauge("replay.shard_skew_ms").set_max(skew_us.div_ceil(1000));
    vp_obs::events::instant("replay.shard_skew", skew_us);
    Ok(per_shard)
}

/// Where a [`ReplayRequest`] reads its value events from.
#[derive(Debug, Clone, Copy)]
pub enum ReplaySource<'a> {
    /// Replay a fully materialised in-memory [`Trace`] (the classic
    /// path: capture once via [`crate::TraceStore`], replay many times).
    Batch(&'a Trace),
    /// Simulate `program` under `limits` and feed its value events
    /// straight into the predictor workers through a bounded block
    /// channel — the trace is never resident. See [`stream`].
    Stream {
        /// The program to simulate (directive annotations are irrelevant
        /// to execution; the plan's tables supply the directives).
        program: &'a Program,
        /// Instruction budget for the simulation.
        limits: RunLimits,
    },
}

/// One cell's result from a [`ReplayRequest`]: the replay outcome plus,
/// when attribution was requested, its per-PC [`AttributionTable`]
/// (duplicate cells receive clones of the shared slot's table).
#[derive(Debug, Clone)]
pub struct ReplayCellOutcome {
    /// Stats, occupancy and shard count — bit-identical to a sequential
    /// per-cell replay at any shard/job/block-pool count.
    pub outcome: ReplayOutcome,
    /// The per-PC attribution table, if [`ReplayRequest::attribution`]
    /// asked for one.
    pub attribution: Option<AttributionTable>,
}

/// The per-cell results of a [`ReplayRequest`], in plan order.
#[derive(Debug, Clone, Default)]
pub struct ReplayResponse {
    /// One entry per plan cell, in [`SweepPlan::cells`] order.
    pub cells: Vec<ReplayCellOutcome>,
}

impl ReplayResponse {
    /// The plain outcomes in plan order (convenience for callers that
    /// don't use attribution).
    #[must_use]
    pub fn outcomes(&self) -> Vec<ReplayOutcome> {
        self.cells.iter().map(|c| c.outcome).collect()
    }

    /// Unwraps a single-cell response.
    ///
    /// # Panics
    ///
    /// Panics if the response does not hold exactly one cell.
    #[must_use]
    pub fn into_single(mut self) -> ReplayCellOutcome {
        assert_eq!(
            self.cells.len(),
            1,
            "response holds {} cells",
            self.cells.len()
        );
        self.cells.pop().expect("one cell")
    }
}

/// A builder describing one replay: which cells to evaluate
/// ([`SweepPlan`]), whether to attribute mispredictions, how to shard and
/// fan out, and where the value events come from ([`ReplaySource`]).
///
/// This is the only replay entry point:
///
/// ```
/// use provp_core::replay::ReplayRequest;
/// use vp_isa::asm::assemble;
/// use vp_predictor::PredictorConfig;
/// use vp_sim::{RunLimits, Trace};
///
/// # fn main() -> std::io::Result<()> {
/// let p = assemble("li r1, 0\nli r2, 9\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n").unwrap();
/// let trace = Trace::capture(&p, RunLimits::default()).unwrap();
///
/// // Batch: replay the captured trace.
/// let batch = ReplayRequest::batch(&trace)
///     .single(&p, PredictorConfig::spec_table_stride_fsm())
///     .run()?
///     .into_single();
///
/// // Streaming: same result, no resident trace.
/// let streamed = ReplayRequest::stream(&p, RunLimits::default())
///     .single(&p, PredictorConfig::spec_table_stride_fsm())
///     .run()?
///     .into_single();
/// assert_eq!(batch.outcome.stats, streamed.outcome.stats);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplayRequest<'a> {
    plan: SweepPlan,
    source: ReplaySource<'a>,
    attribution: bool,
    shards: usize,
    jobs: usize,
    block_pool: usize,
}

impl<'a> ReplayRequest<'a> {
    /// A request reading value events from `source`.
    #[must_use]
    pub fn new(source: ReplaySource<'a>) -> Self {
        ReplayRequest {
            plan: SweepPlan::new(),
            source,
            attribution: false,
            shards: 1,
            jobs: 1,
            block_pool: stream::DEFAULT_BLOCK_POOL,
        }
    }

    /// A request replaying the materialised `trace`.
    #[must_use]
    pub fn batch(trace: &'a Trace) -> Self {
        ReplayRequest::new(ReplaySource::Batch(trace))
    }

    /// A request simulating `program` and predicting concurrently,
    /// without materialising a trace.
    #[must_use]
    pub fn stream(program: &'a Program, limits: RunLimits) -> Self {
        ReplayRequest::new(ReplaySource::Stream { program, limits })
    }

    /// Replaces the request's sweep plan wholesale.
    #[must_use]
    pub fn plan(mut self, plan: SweepPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Appends a single cell: `config` replayed under `program`'s
    /// directive annotation (registered as a plan table, deduped).
    #[must_use]
    pub fn single(mut self, program: &Program, config: PredictorConfig) -> Self {
        let table = self.plan.add_directives(program);
        self.plan.add_cell(config, table);
        self
    }

    /// Whether to additionally build a per-PC [`AttributionTable`] per
    /// cell (observation-only; stats stay bit-identical).
    #[must_use]
    pub fn attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Shard count for the state-partitioned replay (see [`auto_shards`]).
    /// Results are bit-identical at any value; only wall-clock changes.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Worker-thread cap for a batch replay's shard fan-out. A streaming
    /// replay always runs one thread per shard plus the producer (its
    /// shards *are* its workers), so pick `shards` from `jobs` there.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Block-pool size for a streaming replay: the fixed number of
    /// [`vp_sim::VALUE_BLOCK`]-event buffers circulating between producer
    /// and consumers (clamped to at least
    /// [`stream::MIN_BLOCK_POOL`]). Ignored by batch replays.
    #[must_use]
    pub fn block_pool(mut self, blocks: usize) -> Self {
        self.block_pool = blocks.max(stream::MIN_BLOCK_POOL);
        self
    }

    /// Runs the replay and returns per-cell results in plan order.
    ///
    /// Duplicate cells are deduped into one predictor-bank slot and share
    /// one replay; the results are **bit-identical** to per-cell
    /// sequential replays at any shard/job/block-pool count
    /// (property-tested and fuzzed via the vp-verify oracle, including a
    /// streaming ≡ batch stage).
    ///
    /// # Errors
    ///
    /// [`io::Error`] of kind `InvalidData` when a value event's address
    /// lies outside a used directive table (a foreign trace or program);
    /// for streaming sources, any [`vp_sim::SimError`] fault surfaces as
    /// an [`io::Error`] with the fault as its [`source`].
    ///
    /// [`source`]: std::error::Error::source
    pub fn run(self) -> io::Result<ReplayResponse> {
        if self.plan.is_empty() {
            return Ok(ReplayResponse::default());
        }
        let (slots, slot_of) = dedupe_cells(&self.plan.cells);
        vp_obs::counter("replay.matrix_passes").add(1);
        vp_obs::counter("replay.fused_cells").add(slots.len() as u64);
        let pass = FusedPass {
            tables: &self.plan.tables,
            slots: &slots,
            modulus: joint_shard_modulus(&slots),
            attribution: self.attribution,
        };
        let per_shard = match self.source {
            ReplaySource::Batch(trace) => batch_shards(trace, &pass, self.shards, self.jobs)?,
            ReplaySource::Stream { program, limits } => {
                stream::stream_shards(program, limits, &pass, self.shards, self.block_pool)?
            }
        };
        let merged = merge_shards(per_shard);
        let cells = slot_of
            .iter()
            .map(|&s| {
                let (stats, occupancy, ref attribution) = merged[s];
                ReplayCellOutcome {
                    outcome: ReplayOutcome {
                        stats,
                        occupancy,
                        shards: self.shards,
                    },
                    attribution: attribution.clone(),
                }
            })
            .collect();
        Ok(ReplayResponse { cells })
    }
}

fn outside_text(addr: vp_isa::InstrAddr) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("trace event at {addr} outside program text"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_predictor::{ClassifierKind, TableGeometry};

    fn sample() -> (Program, Trace) {
        let p = assemble(
            "li r1, 0\nli r2, 200\n\
             top: addi.st r1, r1, 1\nadd r3, r1, r1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        (p, trace)
    }

    fn single_outcome(
        trace: &Trace,
        p: &Program,
        config: &PredictorConfig,
        shards: usize,
        jobs: usize,
    ) -> ReplayOutcome {
        ReplayRequest::batch(trace)
            .single(p, *config)
            .shards(shards)
            .jobs(jobs)
            .run()
            .unwrap()
            .into_single()
            .outcome
    }

    #[test]
    fn sharded_replay_matches_sequential() {
        let (p, trace) = sample();
        for config in [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(8, 2),
                last_value: TableGeometry::new(12, 2),
            },
        ] {
            let seq = single_outcome(&trace, &p, &config, 1, 1);
            for shards in [2usize, 3, 4, 8] {
                for jobs in [1usize, 4] {
                    let par = single_outcome(&trace, &p, &config, shards, jobs);
                    assert_eq!(
                        par.stats,
                        seq.stats,
                        "{} diverged at {shards} shards / {jobs} jobs",
                        config.label()
                    );
                    assert_eq!(par.occupancy, seq.occupancy, "{}", config.label());
                    assert_eq!(par.shards, shards);
                }
            }
        }
    }

    #[test]
    fn attributed_replay_matches_plain_and_reconciles() {
        let (p, trace) = sample();
        for config in [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(8, 2),
                last_value: TableGeometry::new(12, 2),
            },
        ] {
            let plain = single_outcome(&trace, &p, &config, 1, 1);
            let seq = ReplayRequest::batch(&trace)
                .single(&p, config)
                .attribution(true)
                .run()
                .unwrap()
                .into_single();
            let seq_table = seq.attribution.expect("attribution requested");
            // Observation-only: attribution never perturbs the stats.
            assert_eq!(seq.outcome.stats, plain.stats, "{}", config.label());
            assert_eq!(seq.outcome.occupancy, plain.occupancy);
            seq_table
                .reconcile(&seq.outcome.stats)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            for shards in [2usize, 3, 8] {
                let par = ReplayRequest::batch(&trace)
                    .single(&p, config)
                    .attribution(true)
                    .shards(shards)
                    .jobs(4)
                    .run()
                    .unwrap()
                    .into_single();
                assert_eq!(par.outcome.stats, seq.outcome.stats, "{}", config.label());
                assert_eq!(
                    par.attribution.expect("attribution requested"),
                    seq_table,
                    "{} attribution diverged at {shards} shards",
                    config.label()
                );
            }
        }
    }

    #[test]
    fn foreign_traces_are_rejected() {
        let (_, trace) = sample();
        let other = assemble("halt\n").unwrap();
        let cfg = PredictorConfig::spec_table_stride_fsm();
        for shards in [1usize, 4] {
            let e = ReplayRequest::batch(&trace)
                .single(&other, cfg)
                .shards(shards)
                .jobs(2)
                .run()
                .unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn auto_shards_policy() {
        // Serial runs and tiny traces stay unsharded.
        assert_eq!(auto_shards(1, MIN_SHARD_EVENTS * 2), 1);
        assert_eq!(auto_shards(8, MIN_SHARD_EVENTS - 1), 1);
        // Parallel runs over big traces shard by jobs.
        assert_eq!(auto_shards(4, MIN_SHARD_EVENTS), 4);
        // Streaming replays (unknown event count) shard by jobs alone.
        assert_eq!(auto_shards(4, usize::MAX), 4);
        // Inside a grid worker: degrade to one shard.
        let nested = parallel_map(2, &[0u8; 4], |_| auto_shards(4, MIN_SHARD_EVENTS));
        assert!(nested.iter().all(|&n| n == 1));
    }

    #[test]
    fn empty_plan_returns_no_cells() {
        let (_, trace) = sample();
        let response = ReplayRequest::batch(&trace).run().unwrap();
        assert!(response.cells.is_empty());
    }
}
