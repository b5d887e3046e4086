//! The injected code segment: the covering gadget set stacked into one
//! repeatable unit.
//!
//! "By stacking these gadgets together, we conduct a code segment that
//! executes repeatedly to inject noise to vulnerable HPC events. The
//! number of repetitions of the code execution is determined by the noise
//! value computed from the noise calculator" (Section VII-C).

use aegis_fuzzer::{CoveringGadget, Gadget};
use aegis_isa::{InstrId, IsaCatalog};
use aegis_microarch::{ActivityVector, Core, Feature, Origin};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A calibrated stack of covering gadgets: the obfuscator's unit of
/// injection, annotated with the micro-architectural activity one full
/// execution of the stack produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GadgetStack {
    /// The stacked gadgets, in execution order.
    pub gadgets: Vec<Gadget>,
    /// Mean activity of one full stack execution.
    pub unit_activity: ActivityVector,
    /// Mean activity of each gadget individually (same order as
    /// `gadgets`); lets the injector drive signature-diverse gadget
    /// subsets independently.
    pub per_gadget: Vec<ActivityVector>,
}

/// Why a gadget stack could not be calibrated. An empty covering set is
/// a legitimate fuzzing outcome — the paper's fuzzer can find no gadget
/// for an event — so it is an error to refuse on, not a crash: a stack
/// with nothing in it would inject zero noise while claiming protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// No gadget to stack.
    Empty,
    /// Calibration was asked for zero repetitions.
    NoRepetitions,
    /// A gadget references an instruction missing from the catalog.
    UnknownInstruction(InstrId),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Empty => f.write_str("no covering gadget: a gadget stack cannot be empty"),
            StackError::NoRepetitions => f.write_str("calibration needs at least one repetition"),
            StackError::UnknownInstruction(id) => {
                write!(f, "gadget instruction {id} is not in the catalog")
            }
        }
    }
}

impl std::error::Error for StackError {}

impl GadgetStack {
    /// Calibrates a stack by executing it `reps` times on a scratch core
    /// and averaging the produced activity.
    ///
    /// # Errors
    ///
    /// Returns [`StackError`] if `gadgets` is empty, `reps == 0`, or a
    /// gadget references an instruction missing from the catalog. The
    /// core is untouched on error.
    pub fn calibrate(
        catalog: &IsaCatalog,
        core: &mut Core,
        gadgets: Vec<Gadget>,
        reps: usize,
    ) -> Result<Self, StackError> {
        if gadgets.is_empty() {
            return Err(StackError::Empty);
        }
        if reps == 0 {
            return Err(StackError::NoRepetitions);
        }
        let specs = gadgets
            .iter()
            .map(|g| {
                let spec = |id| catalog.get(id).ok_or(StackError::UnknownInstruction(id));
                Ok([spec(g.reset)?, spec(g.trigger)?])
            })
            .collect::<Result<Vec<_>, StackError>>()?;
        let mut per_gadget = vec![ActivityVector::new(); gadgets.len()];
        for _ in 0..reps {
            for (gi, pair) in specs.iter().enumerate() {
                for spec in pair {
                    if let Ok(delta) = core.execute_instr(spec, Origin::Host) {
                        per_gadget[gi] += delta;
                    }
                }
            }
        }
        let mut unit_activity = ActivityVector::new();
        for pg in &mut per_gadget {
            *pg = pg.scaled(1.0 / reps as f64);
            unit_activity += *pg;
        }
        Ok(GadgetStack {
            gadgets,
            unit_activity,
            per_gadget,
        })
    }

    /// Builds and calibrates the stack from a fuzzer covering set — the
    /// fail-closed form the offline pipeline uses.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::Empty`] if `covering` is empty (see
    /// [`GadgetStack::calibrate`] for the rest).
    pub fn try_from_covering(
        catalog: &IsaCatalog,
        core: &mut Core,
        covering: &[CoveringGadget],
    ) -> Result<Self, StackError> {
        let gadgets = covering.iter().map(|c| c.gadget).collect();
        Self::calibrate(catalog, core, gadgets, 64)
    }

    /// [`GadgetStack::try_from_covering`] for callers that already hold
    /// a non-empty covering set.
    ///
    /// # Panics
    ///
    /// Panics on any [`StackError`], e.g. an empty `covering`.
    pub fn from_covering(
        catalog: &IsaCatalog,
        core: &mut Core,
        covering: &[CoveringGadget],
    ) -> Self {
        Self::try_from_covering(catalog, core, covering)
            .unwrap_or_else(|e| panic!("gadget stack calibration failed: {e}"))
    }

    /// Reference effect of one stack execution: µops retired, the unit
    /// the noise calculator converts counts into repetitions with.
    pub fn unit_uops(&self) -> f64 {
        self.unit_activity[Feature::UopsRetired].max(1.0)
    }

    /// Number of gadgets in the stack.
    pub fn len(&self) -> usize {
        self.gadgets.len()
    }

    /// Whether the stack is empty (never true for calibrated stacks).
    pub fn is_empty(&self) -> bool {
        self.gadgets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_isa::{Vendor, WellKnown};
    use aegis_microarch::{InterferenceConfig, MicroArch};

    fn setup() -> (IsaCatalog, Core) {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        (catalog, core)
    }

    fn flush_load() -> Gadget {
        Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())
    }

    #[test]
    fn calibration_measures_stack_activity() {
        let (catalog, mut core) = setup();
        let stack = GadgetStack::calibrate(&catalog, &mut core, vec![flush_load()], 100).unwrap();
        // CLFLUSH (2 µops) + load (1 µop).
        assert!((stack.unit_activity[Feature::UopsRetired] - 3.0).abs() < 0.5);
        // Every load misses after the flush → one refill per execution.
        assert!((stack.unit_activity[Feature::LlcMiss] - 1.0).abs() < 0.2);
        assert!((stack.unit_activity[Feature::CacheFlushes] - 1.0).abs() < 0.2);
        assert_eq!(stack.len(), 1);
    }

    #[test]
    fn unit_uops_has_floor() {
        let (catalog, mut core) = setup();
        let nop_gadget = Gadget::new(WellKnown::Nop.id(), WellKnown::Nop.id());
        let stack = GadgetStack::calibrate(&catalog, &mut core, vec![nop_gadget], 10).unwrap();
        assert!(stack.unit_uops() >= 1.0);
    }

    #[test]
    fn stacks_of_multiple_gadgets_sum_activity() {
        let (catalog, mut core) = setup();
        let g1 = flush_load();
        let g2 = Gadget::new(WellKnown::Nop.id(), WellKnown::SimdAdd.id());
        let single = GadgetStack::calibrate(&catalog, &mut core, vec![g1], 50).unwrap();
        core.reset_cache();
        let double = GadgetStack::calibrate(&catalog, &mut core, vec![g1, g2], 50).unwrap();
        assert!(double.unit_uops() > single.unit_uops());
        assert!(double.unit_activity[Feature::SimdOps] > 0.5);
    }

    #[test]
    fn degenerate_stacks_are_typed_errors() {
        let (catalog, mut core) = setup();
        let before = core.clone();
        assert_eq!(
            GadgetStack::calibrate(&catalog, &mut core, vec![], 10),
            Err(StackError::Empty)
        );
        assert_eq!(
            GadgetStack::try_from_covering(&catalog, &mut core, &[]),
            Err(StackError::Empty)
        );
        assert_eq!(
            GadgetStack::calibrate(&catalog, &mut core, vec![flush_load()], 0),
            Err(StackError::NoRepetitions)
        );
        let bogus = Gadget::new(WellKnown::Nop.id(), InstrId(u32::MAX));
        assert_eq!(
            GadgetStack::calibrate(&catalog, &mut core, vec![flush_load(), bogus], 10),
            Err(StackError::UnknownInstruction(InstrId(u32::MAX)))
        );
        // Refusing executes nothing.
        assert_eq!(core.cycles(), before.cycles());
    }
}
