//! Abstract-machine configuration.

use vp_predictor::PredictorConfig;

use crate::branch::BranchConfig;

/// Configuration of the abstract ILP machine.
///
/// [`IlpConfig::paper_no_vp`] and the `paper_vp_*` constructors produce
/// exactly the §5.3 machines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IlpConfig {
    /// Instruction-window size in entries (the paper uses 40).
    pub window: usize,
    /// Extra cycles charged to dependents of a used-but-wrong prediction
    /// (the paper uses 1).
    pub penalty: u64,
    /// The value predictor + classifier, or `None` for the no-VP baseline.
    pub predictor: Option<PredictorConfig>,
    /// Branch prediction front end (the paper's machine uses
    /// [`BranchConfig::Perfect`]).
    pub branch: BranchConfig,
    /// Dispatch-stall cycles charged after a mispredicted branch (only
    /// relevant with a non-perfect [`IlpConfig::branch`]).
    pub branch_penalty: u64,
}

impl IlpConfig {
    /// The paper's window size.
    pub const PAPER_WINDOW: usize = 40;

    /// The §5.3 baseline: no value prediction at all.
    #[must_use]
    pub fn paper_no_vp() -> Self {
        IlpConfig {
            window: Self::PAPER_WINDOW,
            penalty: 1,
            predictor: None,
            branch: BranchConfig::Perfect,
            branch_penalty: 0,
        }
    }

    /// The §5.3 "VP + SC" machine: value prediction with the 512-entry
    /// 2-way stride table and saturating-counter classification.
    #[must_use]
    pub fn paper_vp_fsm() -> Self {
        IlpConfig {
            predictor: Some(PredictorConfig::spec_table_stride_fsm()),
            ..Self::paper_no_vp()
        }
    }

    /// The §5.3 "VP + Prof." machine: the same table, admission and use
    /// controlled by opcode directives (run it on a phase-3 annotated
    /// binary).
    #[must_use]
    pub fn paper_vp_profile() -> Self {
        IlpConfig {
            predictor: Some(PredictorConfig::spec_table_stride_profile()),
            ..Self::paper_no_vp()
        }
    }

    /// Replaces the perfect front end with a real branch predictor that
    /// stalls dispatch `penalty` cycles per misprediction.
    #[must_use]
    pub fn with_branch(mut self, branch: BranchConfig, penalty: u64) -> Self {
        self.branch = branch;
        self.branch_penalty = penalty;
        self
    }

    /// Overrides the window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        self.window = window;
        self
    }

    /// Overrides the misprediction penalty.
    #[must_use]
    pub fn with_penalty(mut self, penalty: u64) -> Self {
        self.penalty = penalty;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machines_match_section_5_3() {
        let base = IlpConfig::paper_no_vp();
        assert_eq!(base.window, 40);
        assert_eq!(base.penalty, 1);
        assert!(base.predictor.is_none());
        assert!(IlpConfig::paper_vp_fsm().predictor.is_some());
        assert!(IlpConfig::paper_vp_profile().predictor.is_some());
    }

    #[test]
    fn builders_override() {
        let c = IlpConfig::paper_no_vp().with_window(8).with_penalty(3);
        assert_eq!((c.window, c.penalty), (8, 3));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let _ = IlpConfig::paper_no_vp().with_window(0);
    }
}
