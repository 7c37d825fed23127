//! ILP measurement results.

use std::fmt;

use vp_predictor::PredictorStats;

/// Outcome of replaying one trace through the abstract machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IlpResult {
    /// Instructions analysed.
    pub instructions: u64,
    /// Cycles the abstract machine needed (max completion cycle).
    pub cycles: u64,
    /// Predictor statistics, when value prediction was enabled.
    pub predictor: Option<PredictorStats>,
}

impl IlpResult {
    /// Instruction-level parallelism: instructions per cycle.
    ///
    /// Returns 0 for an empty trace.
    #[must_use]
    pub fn ilp(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Percentage ILP increase of `self` over a `baseline` run
    /// (the quantity Table 5.2 reports).
    ///
    /// # Panics
    ///
    /// Panics if the baseline analysed zero instructions.
    #[must_use]
    pub fn ilp_increase_over(&self, baseline: &IlpResult) -> f64 {
        let base = baseline.ilp();
        assert!(base > 0.0, "baseline ILP must be positive");
        100.0 * (self.ilp() / base - 1.0)
    }
}

impl fmt::Display for IlpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs / {} cycles = {:.3} ILP",
            self.instructions,
            self.cycles,
            self.ilp()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp_is_instructions_per_cycle() {
        let r = IlpResult {
            instructions: 100,
            cycles: 25,
            predictor: None,
        };
        assert!((r.ilp() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_reads_zero() {
        assert_eq!(IlpResult::default().ilp(), 0.0);
    }

    #[test]
    fn increase_is_percentage() {
        let base = IlpResult {
            instructions: 100,
            cycles: 50,
            predictor: None,
        };
        let vp = IlpResult {
            instructions: 100,
            cycles: 40,
            predictor: None,
        };
        assert!((vp.ilp_increase_over(&base) - 25.0).abs() < 1e-9);
    }
}
