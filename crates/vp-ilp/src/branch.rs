//! Branch prediction for the abstract machine.
//!
//! The paper deliberately assumes *perfect* branch prediction "to explore
//! the pure potential of the examined mechanisms without being constrained
//! by individual machine limitations". This module lets the assumption be
//! relaxed: a front end with a real (bimodal or gshare) direction predictor
//! stalls dispatch after every mispredicted conditional branch, which
//! squeezes the window and dampens what value prediction can deliver — an
//! ablation quantifying how much of Table 5.2 survives on a less idealised
//! machine.

use vp_isa::InstrAddr;

/// Direction-predictor configuration for the abstract machine's front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchConfig {
    /// The paper's assumption: every branch is predicted correctly.
    Perfect,
    /// A per-PC table of 2-bit counters.
    Bimodal {
        /// Number of counters (a power of two is conventional but any
        /// positive size works; indexing is modulo).
        entries: usize,
    },
    /// Global-history XOR PC indexing into 2-bit counters.
    Gshare {
        /// Number of counters.
        entries: usize,
        /// Bits of global branch history.
        history_bits: u32,
    },
}

impl BranchConfig {
    /// A conventional 4K-entry bimodal predictor.
    #[must_use]
    pub fn bimodal_4k() -> Self {
        BranchConfig::Bimodal { entries: 4096 }
    }

    /// A conventional 4K-entry gshare with 12 bits of history.
    #[must_use]
    pub fn gshare_4k() -> Self {
        BranchConfig::Gshare {
            entries: 4096,
            history_bits: 12,
        }
    }
}

/// A branch direction predictor instance.
///
/// # Examples
///
/// ```
/// use vp_ilp::branch::{BranchConfig, BranchPredictor};
/// use vp_isa::InstrAddr;
///
/// let mut bp = BranchPredictor::new(BranchConfig::bimodal_4k());
/// let pc = InstrAddr::new(7);
/// // Train a always-taken branch; it converges to "taken".
/// for _ in 0..4 {
///     let _ = bp.predict_and_update(pc, true);
/// }
/// assert!(bp.predict_and_update(pc, true));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchConfig,
    counters: Vec<u8>,
    history: u64,
}

impl BranchPredictor {
    /// Creates a predictor; counters start weakly not-taken (state 1).
    ///
    /// # Panics
    ///
    /// Panics if a table configuration has zero entries.
    #[must_use]
    pub fn new(config: BranchConfig) -> Self {
        let entries = match config {
            BranchConfig::Perfect => 0,
            BranchConfig::Bimodal { entries } | BranchConfig::Gshare { entries, .. } => {
                assert!(entries > 0, "branch predictor table must be non-empty");
                entries
            }
        };
        BranchPredictor {
            config,
            counters: vec![1; entries],
            history: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> BranchConfig {
        self.config
    }

    fn index(&self, pc: InstrAddr) -> usize {
        match self.config {
            BranchConfig::Perfect => 0,
            BranchConfig::Bimodal { entries } => pc.index() as usize % entries,
            BranchConfig::Gshare {
                entries,
                history_bits,
            } => {
                let h = self.history & ((1u64 << history_bits) - 1);
                (u64::from(pc.index()) ^ h) as usize % entries
            }
        }
    }

    /// Predicts the branch at `pc`, then trains with the actual `taken`
    /// outcome. Returns whether the prediction was **correct**.
    pub fn predict_and_update(&mut self, pc: InstrAddr, taken: bool) -> bool {
        if self.config == BranchConfig::Perfect {
            return true;
        }
        let idx = self.index(pc);
        let predicted = self.counters[idx] >= 2;
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if matches!(self.config, BranchConfig::Gshare { .. }) {
            self.history = (self.history << 1) | u64::from(taken);
        }
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(config: BranchConfig, stream: impl Iterator<Item = (u32, bool)>) -> f64 {
        let mut bp = BranchPredictor::new(config);
        let (mut correct, mut total) = (0u64, 0u64);
        for (pc, taken) in stream {
            correct += u64::from(bp.predict_and_update(InstrAddr::new(pc), taken));
            total += 1;
        }
        correct as f64 / total as f64
    }

    #[test]
    fn perfect_is_always_right() {
        let stream = (0..100u32).map(|i| (i % 7, i % 3 == 0));
        assert_eq!(accuracy(BranchConfig::Perfect, stream), 1.0);
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        // A loop-back branch taken 99 times then not taken once.
        let stream = (0..100u32).map(|i| (5, i < 99));
        let acc = accuracy(BranchConfig::Bimodal { entries: 16 }, stream);
        assert!(acc > 0.95, "{acc}");
    }

    #[test]
    fn gshare_learns_alternating_patterns_bimodal_cannot() {
        // Strictly alternating T/N at one PC: bimodal oscillates near 50%,
        // gshare keys off the history and converges.
        let stream = |_| (0..400u32).map(|i| (9, i % 2 == 0));
        let bim = accuracy(BranchConfig::Bimodal { entries: 64 }, stream(()));
        let gsh = accuracy(
            BranchConfig::Gshare {
                entries: 64,
                history_bits: 4,
            },
            stream(()),
        );
        assert!(bim < 0.75, "bimodal {bim}");
        assert!(gsh > 0.9, "gshare {gsh}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_in_bimodal() {
        let mut bp = BranchPredictor::new(BranchConfig::Bimodal { entries: 1024 });
        for _ in 0..8 {
            bp.predict_and_update(InstrAddr::new(1), true);
            bp.predict_and_update(InstrAddr::new(2), false);
        }
        assert!(bp.predict_and_update(InstrAddr::new(1), true));
        assert!(bp.predict_and_update(InstrAddr::new(2), false));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_entries_panics() {
        let _ = BranchPredictor::new(BranchConfig::Bimodal { entries: 0 });
    }
}
