//! Table 5.2 — the ILP increase from value prediction under each
//! classification mechanism.
//!
//! The paper's bottom line: on the abstract 40-entry-window machine, the
//! ILP gained by value prediction relative to no value prediction, with
//! classification by saturating counters ("VP + SC") versus profiling at
//! thresholds 90%…50% ("VP + Prof. X%").

use vp_compiler::ThresholdPolicy;
use vp_ilp::{IlpConfig, IlpResult};
use vp_stats::{table::signed_percent, TextTable};
use vp_workloads::WorkloadKind;

use crate::Suite;

/// One workload's ILP measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub kind: WorkloadKind,
    /// The no-value-prediction baseline.
    pub base: IlpResult,
    /// Value prediction + saturating counters.
    pub vp_fsm: IlpResult,
    /// Value prediction + profiling, per threshold of
    /// [`ThresholdPolicy::PAPER_SWEEP`].
    pub vp_profile: Vec<IlpResult>,
}

impl Row {
    /// ILP increase (%) of VP + saturating counters over the baseline.
    #[must_use]
    pub fn fsm_increase(&self) -> f64 {
        self.vp_fsm.ilp_increase_over(&self.base)
    }

    /// ILP increase (%) of VP + profiling at threshold index `i`.
    #[must_use]
    pub fn profile_increase(&self, i: usize) -> f64 {
        self.vp_profile[i].ilp_increase_over(&self.base)
    }

    /// The best profiling threshold's ILP increase.
    #[must_use]
    pub fn best_profile_increase(&self) -> f64 {
        (0..self.vp_profile.len())
            .map(|i| self.profile_increase(i))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The reproduced Table 5.2.
#[derive(Debug, Clone)]
pub struct Table52 {
    /// Per-workload rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment over the given workloads.
pub fn run(suite: &Suite, kinds: &[WorkloadKind]) -> Table52 {
    let rows = suite.par_map(kinds, |&kind| {
        // One plan per workload: the trace is replayed once for all seven
        // machines.
        let mut machines = vec![
            (IlpConfig::paper_no_vp(), None),
            (IlpConfig::paper_vp_fsm(), None),
        ];
        machines.extend(
            ThresholdPolicy::PAPER_SWEEP
                .iter()
                .map(|&th| (IlpConfig::paper_vp_profile(), Some(th))),
        );
        let mut results = suite.ilp_plan(kind, &machines).into_iter();
        let base = results.next().expect("base machine");
        let vp_fsm = results.next().expect("VP + SC machine");
        let vp_profile = results.collect();
        Row {
            kind,
            base,
            vp_fsm,
            vp_profile,
        }
    });
    Table52 { rows }
}

/// Convenience: all nine workloads.
pub fn run_all(suite: &Suite) -> Table52 {
    run(suite, &WorkloadKind::ALL)
}

impl Table52 {
    /// Renders the table in the paper's layout (plus the absolute baseline
    /// ILP for context).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "benchmark",
            "base ILP",
            "VP+SC",
            "VP+Prof 90%",
            "80%",
            "70%",
            "60%",
            "50%",
        ]);
        for row in &self.rows {
            let mut cells = vec![
                row.kind.name().to_owned(),
                format!("{:.2}", row.base.ilp()),
                signed_percent(row.fsm_increase()),
            ];
            cells
                .extend((0..row.vp_profile.len()).map(|i| signed_percent(row.profile_increase(i))));
            t.row(cells);
        }
        format!(
            "Table 5.2 — ILP increase from value prediction, relative to no VP\n\
             (40-entry window, unlimited units, perfect branch prediction, 1-cycle penalty)\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m88ksim_dominates_and_profiling_is_competitive() {
        let suite = Suite::with_train_runs(2);
        let t = run(&suite, &[WorkloadKind::M88ksim, WorkloadKind::Compress]);
        let m88k = &t.rows[0];
        let compress = &t.rows[1];
        // The paper's headline: m88ksim's predictable serial chains give a
        // dramatically larger gain than compress's unpredictable hashing.
        assert!(
            m88k.fsm_increase() > 100.0,
            "m88ksim VP+SC = {:.1}%",
            m88k.fsm_increase()
        );
        assert!(
            compress.fsm_increase() < 60.0,
            "compress VP+SC = {:.1}%",
            compress.fsm_increase()
        );
        assert!(m88k.fsm_increase() > 3.0 * compress.fsm_increase().max(1.0));
        // Profiling is in the same league as the counters on its best
        // threshold.
        assert!(
            m88k.best_profile_increase() > 0.5 * m88k.fsm_increase(),
            "profile best {:.1}% vs fsm {:.1}%",
            m88k.best_profile_increase(),
            m88k.fsm_increase()
        );
        // VP never makes things slower than a sane margin on these codes.
        for row in &t.rows {
            assert!(row.fsm_increase() > -5.0);
            for i in 0..5 {
                assert!(row.profile_increase(i) > -5.0);
            }
        }
        assert!(t.render().contains("Table 5.2"));
    }
}
