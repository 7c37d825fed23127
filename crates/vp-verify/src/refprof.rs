//! Reference Phase-2 profile collector: the map-based collector the
//! optimised [`vp_profile::ProfileCollector`] must agree with.
//!
//! It keeps predictor state in a `HashMap` keyed by instruction address
//! and writes every value event straight into the destination image
//! (a `BTreeMap` lookup per event), choosing the image by the phase split
//! at the moment of the event. The optimised collector keeps dense
//! per-address slots and assigns records to images only when it
//! finishes; the two must produce equal [`ProfileImage`]s on every trace.

use std::collections::HashMap;

use vp_isa::InstrAddr;
use vp_predictor::{LastValueEntry, PredEntry, StrideEntry};
use vp_profile::{ProfileImage, VpCategory};
use vp_sim::{Retirement, Tracer};

#[derive(Debug, Clone)]
struct PerInstr {
    stride: StrideEntry,
    last_value: LastValueEntry,
}

/// A map-based [`Tracer`] building the same [`ProfileImage`]s as
/// [`vp_profile::ProfileCollector`] (plain or phase-split).
#[derive(Debug, Clone)]
pub struct RefProfileCollector {
    state: HashMap<InstrAddr, PerInstr>,
    image: ProfileImage,
    comp_image: Option<ProfileImage>,
    split: Option<InstrAddr>,
}

impl RefProfileCollector {
    /// A collector producing a single image named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        RefProfileCollector {
            state: HashMap::new(),
            image: ProfileImage::new(name),
            comp_image: None,
            split: None,
        }
    }

    /// A collector splitting records at `split` into `name/init`
    /// (addresses below it) and `name/comp` images.
    #[must_use]
    pub fn with_phase_split(name: impl Into<String>, split: InstrAddr) -> Self {
        let name = name.into();
        RefProfileCollector {
            state: HashMap::new(),
            comp_image: Some(ProfileImage::new(format!("{name}/comp"))),
            image: ProfileImage::new(format!("{name}/init")),
            split: Some(split),
        }
    }

    /// The single image (plain collector) or the init image (split one).
    #[must_use]
    pub fn image(&self) -> &ProfileImage {
        &self.image
    }

    /// The computation-phase image of a phase-split collector.
    #[must_use]
    pub fn comp_image(&self) -> Option<&ProfileImage> {
        self.comp_image.as_ref()
    }

    fn image_for(&mut self, addr: InstrAddr) -> &mut ProfileImage {
        match (self.split, &mut self.comp_image) {
            (Some(split), Some(comp)) if addr >= split => comp,
            _ => &mut self.image,
        }
    }
}

impl Tracer for RefProfileCollector {
    fn retire(&mut self, ev: &Retirement<'_>) {
        let Some((_, _, value)) = ev.dest else { return };
        let Some(category) = VpCategory::from_op_category(ev.instr.op.category()) else {
            return;
        };
        let addr = ev.addr;

        // Evaluate both predictors before training; the first occurrence
        // allocates and counts as an (unavoidably) incorrect prediction.
        let (stride_ok, nonzero, lv_ok) = match self.state.get_mut(&addr) {
            Some(per) => {
                let stride_ok = per.stride.predict() == value;
                let nonzero = per.stride.nonzero_stride();
                let lv_ok = per.last_value.predict() == value;
                per.stride.train(value);
                per.last_value.train(value);
                (stride_ok, nonzero, lv_ok)
            }
            None => {
                self.state.insert(
                    addr,
                    PerInstr {
                        stride: StrideEntry::allocate(value),
                        last_value: LastValueEntry::allocate(value),
                    },
                );
                (false, false, false)
            }
        };

        let rec = self.image_for(addr).entry(addr, category);
        rec.execs += 1;
        rec.stride_correct += u64::from(stride_ok);
        rec.nonzero_stride_correct += u64::from(stride_ok && nonzero);
        rec.last_value_correct += u64::from(lv_ok);
    }
}
