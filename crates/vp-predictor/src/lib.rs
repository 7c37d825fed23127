#![warn(missing_docs)]

//! # vp-predictor — value predictors and classification mechanisms
//!
//! Implements the microarchitectural machinery of the paper (and of the
//! prior work it builds on, Lipasti & Shen's last-value predictor and
//! Gabbay & Mendelson's stride predictor):
//!
//! - [`entry::LastValueEntry`] / [`entry::StrideEntry`] — the two predictor
//!   cell types of the paper's Figure 2.1;
//! - [`SetAssocTable`] — the tagged, set-associative, LRU prediction table
//!   both predictors are organised as;
//! - [`SatCounter`] — the 2-bit saturating-counter **hardware classifier**
//!   baseline (§2.2);
//! - [`InfinitePredictor`] — an unbounded table, used to isolate
//!   classification accuracy from table pressure (§5.1);
//! - [`TablePredictor`] — the finite 512-entry 2-way configuration of §5.2;
//! - [`HybridPredictor`] — the stride + last-value split table the paper's
//!   conclusions propose, routed by opcode directive.
//!
//! Every predictor exposes one uniform operation, [`ValuePredictor::access`]:
//! present the dynamic instance of a value-producing instruction (static
//! address, its opcode directive, and the actual outcome value) and get back
//! what the hardware would have done — the raw prediction, the
//! classification decision, and correctness — while the predictor trains
//! itself. Cumulative [`PredictorStats`] make the experiment harness thin.
//!
//! ## Example
//!
//! ```
//! use vp_isa::{Directive, InstrAddr};
//! use vp_predictor::{PredictorConfig, ValuePredictor};
//!
//! // The paper's §5.2 baseline: 512-entry 2-way stride table + counters.
//! let mut p = PredictorConfig::spec_table_stride_fsm().build();
//! let a = InstrAddr::new(3);
//! for v in (0..100u64).map(|i| 10 + 4 * i) {
//!     p.access(a, Directive::None, v);
//! }
//! // After warm-up, the counter saturates and the strides predict correctly.
//! assert!(p.stats().speculated_correct > 90);
//! ```

pub mod attribution;
pub mod classifier;
pub mod config;
pub mod counter;
pub mod entry;
pub mod geometry;
pub mod hybrid;
pub mod infinite;
pub mod stats;
pub mod table;
pub mod table_predictor;

pub use attribution::{AttributionCause, AttributionTable, AttributionTotals, PcAttribution};
pub use classifier::ClassifierKind;
pub use config::PredictorConfig;
pub use counter::SatCounter;
pub use entry::{LastValueEntry, PredEntry, StrideEntry, TwoDeltaStrideEntry};
pub use geometry::TableGeometry;
pub use hybrid::HybridPredictor;
pub use infinite::InfinitePredictor;
pub use stats::{Access, PredictorStats};
pub use table::SetAssocTable;
pub use table_predictor::TablePredictor;

use vp_isa::{Directive, InstrAddr};

/// A value predictor plus classification mechanism, observed one dynamic
/// value-producing instruction at a time.
pub trait ValuePredictor {
    /// Presents one dynamic instance: the instruction at `addr` (carrying
    /// `directive` in its opcode) produced `actual`. Returns what the
    /// hardware did, and trains the predictor.
    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access;

    /// Presents a block of dynamic instances at once. Semantically
    /// identical to calling [`ValuePredictor::access`] in slice order.
    /// With `attribution`, each access's [`Access`] is folded into the
    /// table with [`AttributionTable::observe`] right after the access, in
    /// slice order; without it the outcomes are discarded (cumulative
    /// [`ValuePredictor::stats`] still advance).
    ///
    /// The default body is monomorphised per implementing type, so the
    /// inner `access` calls dispatch statically: fused sweep kernels pay
    /// one virtual call per *block* per predictor instead of one per
    /// event (see the fused sweep in `provp_core::replay::ReplayRequest`).
    ///
    /// # Panics
    ///
    /// Panics if the three input slices have different lengths.
    fn access_batch(
        &mut self,
        addrs: &[InstrAddr],
        directives: &[Directive],
        values: &[u64],
        attribution: Option<&mut AttributionTable>,
    ) {
        assert_eq!(addrs.len(), directives.len());
        assert_eq!(addrs.len(), values.len());
        match attribution {
            None => {
                for i in 0..addrs.len() {
                    self.access(addrs[i], directives[i], values[i]);
                }
            }
            Some(table) => {
                for i in 0..addrs.len() {
                    let access = self.access(addrs[i], directives[i], values[i]);
                    table.observe(addrs[i], directives[i], &access, values[i]);
                }
            }
        }
    }

    /// Cumulative statistics over every access so far.
    fn stats(&self) -> &PredictorStats;

    /// Forgets all dynamic state (table contents, counters, statistics).
    fn reset(&mut self);

    /// Number of currently occupied table entries (0 for predictors with
    /// no table state to report). Used by the observability layer to gauge
    /// table pressure; never consulted by the experiments themselves.
    fn occupancy(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both arms of `access_batch` must advance the predictor exactly as
    /// per-event `access` calls do, and the attributed arm must build the
    /// table that observing those calls' results in slice order builds.
    #[test]
    fn access_batch_matches_per_event_access() {
        let addrs: Vec<InstrAddr> = (0..300u32).map(|i| InstrAddr::new(i % 7)).collect();
        let directives: Vec<Directive> = addrs
            .iter()
            .map(|a| match a.index() % 3 {
                0 => Directive::None,
                1 => Directive::Stride,
                _ => Directive::LastValue,
            })
            .collect();
        let values: Vec<u64> = (0..300u64).map(|i| (i / 7) * 4 + i % 5).collect();
        for config in [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(4, 2),
                last_value: TableGeometry::new(4, 1),
            },
        ] {
            let mut single = config.build();
            let mut expected = AttributionTable::new();
            for i in 0..addrs.len() {
                let access = single.access(addrs[i], directives[i], values[i]);
                expected.observe(addrs[i], directives[i], &access, values[i]);
            }

            let mut plain = config.build();
            plain.access_batch(&addrs, &directives, &values, None);
            assert_eq!(plain.stats(), single.stats());

            let mut observed = config.build();
            let mut table = AttributionTable::new();
            observed.access_batch(&addrs, &directives, &values, Some(&mut table));
            assert_eq!(observed.stats(), single.stats());
            assert_eq!(table, expected);
        }
    }
}
