#![warn(missing_docs)]

//! # provp — profile-guided value prediction
//!
//! Umbrella crate re-exporting the whole `provp` workspace: a reproduction of
//! Gabbay & Mendelson, *"Can Program Profiling Support Value Prediction?"*
//! (MICRO-30, 1997).
//!
//! The individual subsystems live in their own crates; this crate exists so
//! examples and downstream users can depend on one name:
//!
//! - [`isa`] — the RISC instruction set with value-prediction directive bits.
//! - [`sim`] — the functional (SHADE-equivalent) tracing simulator.
//! - [`predictor`] — last-value / stride / hybrid predictors and the
//!   saturating-counter hardware classifier.
//! - [`profile`] — profile-image collection and multi-run similarity vectors.
//! - [`compiler`] — the phase-3 directive annotation pass.
//! - [`ilp`] — the abstract 40-entry-window ILP machine.
//! - [`stats`] — the paper's distance metrics, histograms and table printers.
//! - [`workloads`] — the nine SPEC95-analogue synthetic workloads.
//! - [`core`] — end-to-end experiment pipelines for every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use provp::core::pipeline::{ProfileGuidedPipeline, PipelineConfig};
//! use provp::workloads::{Workload, WorkloadKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = Workload::new(WorkloadKind::Ijpeg);
//! let pipeline = ProfileGuidedPipeline::new(PipelineConfig::default());
//! let outcome = pipeline.run(&workload)?;
//! assert!(outcome.annotated.summary().tagged() > 0);
//! # Ok(())
//! # }
//! ```

pub use provp_core as core;
pub use vp_compiler as compiler;
pub use vp_ilp as ilp;
pub use vp_isa as isa;
pub use vp_obs as obs;
pub use vp_predictor as predictor;
pub use vp_profile as profile;
pub use vp_sim as sim;
pub use vp_stats as stats;
pub use vp_workloads as workloads;

/// One-line import for the experiment-facing API.
///
/// ```
/// use provp::prelude::*;
/// ```
///
/// pulls in everything a typical experiment touches: the [`Suite`]
/// front-end, the [`ReplayRequest`] replay builder (batch over a captured
/// [`Trace`] or bounded-memory streaming straight off the simulator),
/// predictor configuration, workload selection and the run-manifest
/// types. Deliberately excluded: crate internals — reach through the
/// per-subsystem modules (`provp::sim`, `provp::predictor`, ...) when you
/// need those.
pub mod prelude {
    pub use provp_core::replay::stream::{DEFAULT_BLOCK_POOL, MIN_BLOCK_POOL};
    pub use provp_core::{
        PredictorTracer, ReplayCellOutcome, ReplayOutcome, ReplayRequest, ReplayResponse,
        ReplaySource, Suite, SweepPlan, TraceStore,
    };
    pub use vp_obs::{HotStack, PhaseShare, ProfileSection, RunManifest};
    pub use vp_predictor::{
        ClassifierKind, PredictorConfig, PredictorStats, TableGeometry, ValuePredictor,
    };
    pub use vp_sim::{run, RunLimits, Trace};
    pub use vp_workloads::{InputSet, Workload, WorkloadKind};
}
