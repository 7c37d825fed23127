//! The profiling tracer: emulates both value predictors during a run.

use vp_isa::InstrAddr;
use vp_predictor::{LastValueEntry, PredEntry, StrideEntry};
use vp_sim::{Retirement, Tracer};

use crate::{InstrProfile, ProfileImage, VpCategory};

/// Everything the collector tracks for one static instruction: both
/// predictor cells and the running profile counts.
#[derive(Debug, Clone)]
struct Slot {
    stride: StrideEntry,
    last_value: LastValueEntry,
    profile: InstrProfile,
}

/// A `vp-sim` [`Tracer`] that builds a [`ProfileImage`].
///
/// For every value-producing static instruction it maintains an unbounded
/// stride-predictor cell and an unbounded last-value cell (the paper's
/// phase-2 simulator "can emulate the operation of the value predictor and
/// measure for each instruction its prediction accuracy" — emulating both
/// costs nothing and yields Table 2.1 for free).
///
/// State is one dense slot per text address (indexed by
/// [`InstrAddr::index`]), so an event costs one bounds-checked index, not
/// a map lookup. Records are written into the image(s) once, when the
/// collector finishes.
///
/// An optional *phase split* divides the image in two at a static address
/// boundary, reproducing the paper's FP-benchmark split into an
/// initialization phase and a computation phase. The split is a function
/// of the address alone, so assigning each finished record to its image
/// at the end is exactly what assigning every event as it happened would
/// give.
#[derive(Debug, Clone)]
pub struct ProfileCollector {
    slots: Vec<Option<Slot>>,
    name: String,
    split: Option<InstrAddr>,
}

impl ProfileCollector {
    /// A collector producing a single image named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProfileCollector {
            slots: Vec::new(),
            name: name.into(),
            split: None,
        }
    }

    /// A collector that splits records at `split`: instructions at addresses
    /// `< split` go to the *init* image, the rest to the *computation*
    /// image. Predictor state is shared across the phases (the hardware
    /// does not reset between them).
    #[must_use]
    pub fn with_phase_split(name: impl Into<String>, split: InstrAddr) -> Self {
        ProfileCollector {
            split: Some(split),
            ..ProfileCollector::new(name)
        }
    }

    /// Finishes collection, returning the single image.
    ///
    /// # Panics
    ///
    /// Panics if the collector was built with a phase split — use
    /// [`ProfileCollector::into_phase_images`] instead.
    #[must_use]
    pub fn into_image(self) -> ProfileImage {
        assert!(
            self.split.is_none(),
            "phase-split collector: use into_phase_images"
        );
        let mut image = ProfileImage::new(self.name);
        for (addr, profile) in records(self.slots) {
            image.insert(addr, profile);
        }
        image
    }

    /// Finishes a phase-split collection, returning `(init, computation)`.
    ///
    /// # Panics
    ///
    /// Panics if the collector was not built with a phase split.
    #[must_use]
    pub fn into_phase_images(self) -> (ProfileImage, ProfileImage) {
        let split = self.split.expect("collector has no phase split");
        let mut init = ProfileImage::new(format!("{}/init", self.name));
        let mut comp = ProfileImage::new(format!("{}/comp", self.name));
        for (addr, profile) in records(self.slots) {
            let image = if addr >= split { &mut comp } else { &mut init };
            image.insert(addr, profile);
        }
        (init, comp)
    }
}

/// The finished records, in address order.
fn records(slots: Vec<Option<Slot>>) -> impl Iterator<Item = (InstrAddr, InstrProfile)> {
    slots.into_iter().enumerate().filter_map(|(i, slot)| {
        let addr = InstrAddr::new(u32::try_from(i).expect("slot index is a text address"));
        slot.map(|s| (addr, s.profile))
    })
}

impl Tracer for ProfileCollector {
    #[inline]
    fn retire(&mut self, ev: &Retirement<'_>) {
        let Some((_, _, value)) = ev.dest else { return };
        let Some(category) = VpCategory::from_op_category(ev.instr.op.category()) else {
            return;
        };
        let index = ev.addr.index() as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }

        // Evaluate both predictors before training; the first occurrence
        // allocates and counts as an (unavoidably) incorrect prediction.
        let slot = self.slots[index].get_or_insert_with(|| Slot {
            stride: StrideEntry::allocate(value),
            last_value: LastValueEntry::allocate(value),
            profile: InstrProfile::new(category),
        });
        let rec = &mut slot.profile;
        if rec.execs > 0 {
            let stride_ok = slot.stride.predict() == value;
            let nonzero = slot.stride.nonzero_stride();
            let lv_ok = slot.last_value.predict() == value;
            slot.stride.train(value);
            slot.last_value.train(value);
            rec.stride_correct += u64::from(stride_ok);
            rec.nonzero_stride_correct += u64::from(stride_ok && nonzero);
            rec.last_value_correct += u64::from(lv_ok);
        }
        rec.execs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    fn profile(src: &str) -> ProfileImage {
        let p = assemble(src).unwrap();
        let mut c = ProfileCollector::new("test");
        run(&p, &mut c, RunLimits::default()).unwrap();
        c.into_image()
    }

    #[test]
    fn loop_index_is_stride_predictable() {
        // The paper's Table 3.1 situation: index increments predict ~100%
        // by stride, ~0% by last-value.
        let img = profile("li r1, 0\nli r2, 200\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        let rec = img.get(InstrAddr::new(2)).unwrap();
        assert_eq!(rec.execs, 200);
        // Misses only the allocation and the stride warm-up.
        assert_eq!(rec.stride_correct, 198);
        assert_eq!(rec.nonzero_stride_correct, 198);
        assert_eq!(rec.last_value_correct, 0);
    }

    #[test]
    fn constant_reload_is_last_value_predictable() {
        let img = profile(
            ".data 77\nli r1, 0\nli r2, 100\ntop: ld r3, (r0)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        );
        let rec = img.get(InstrAddr::new(2)).unwrap();
        assert_eq!(rec.execs, 100);
        assert_eq!(rec.last_value_correct, 99);
        assert_eq!(rec.stride_correct, 99); // zero stride also repeats
        assert_eq!(rec.nonzero_stride_correct, 0); // ... with no stride use
        assert!(rec.stride_efficiency_ratio() < 0.01);
    }

    #[test]
    fn non_producers_are_not_recorded() {
        let img = profile("li r1, 1\nsd r1, (r0)\nbeq r0, r0, next\nnext: halt\n");
        assert!(
            img.get(InstrAddr::new(1)).is_none(),
            "store must not be profiled"
        );
        assert!(
            img.get(InstrAddr::new(2)).is_none(),
            "branch must not be profiled"
        );
        assert_eq!(img.len(), 1);
    }

    #[test]
    fn categories_split_int_and_fp() {
        let img = profile(
            ".f64 1.0\nli r1, 0\nli r2, 50\ntop: fld f1, (r0)\nfadd f2, f1, f1\nld r3, (r0)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        );
        use crate::VpCategory::*;
        assert!(img.category_last_value_accuracy(FpLoad) > 0.9);
        assert!(img.category_last_value_accuracy(FpAlu) > 0.9);
        assert!(img.category_last_value_accuracy(IntLoad) > 0.9);
        // Loop index makes int-alu stride-friendly and lv-hostile.
        assert!(img.category_stride_accuracy(IntAlu) > 0.9);
        assert!(img.category_last_value_accuracy(IntAlu) < 0.1);
    }

    #[test]
    fn phase_split_partitions_by_address() {
        let src = "li r1, 0\nli r2, 30\ninit: addi r1, r1, 1\nbne r1, r2, init\nli r3, 0\ncomp: addi r3, r3, 2\nbne r3, r2, comp\nhalt\n";
        let p = assemble(src).unwrap();
        let mut c = ProfileCollector::with_phase_split("t", InstrAddr::new(4));
        run(&p, &mut c, RunLimits::default()).unwrap();
        let (init, comp) = c.into_phase_images();
        assert!(init.get(InstrAddr::new(2)).is_some());
        assert!(init.get(InstrAddr::new(5)).is_none());
        assert!(comp.get(InstrAddr::new(5)).is_some());
        assert!(comp.get(InstrAddr::new(2)).is_none());
        assert!(init.name().ends_with("/init"));
        assert!(comp.name().ends_with("/comp"));
    }

    #[test]
    #[should_panic(expected = "phase-split")]
    fn into_image_rejects_split_collector() {
        let c = ProfileCollector::with_phase_split("t", InstrAddr::new(0));
        let _ = c.into_image();
    }
}
