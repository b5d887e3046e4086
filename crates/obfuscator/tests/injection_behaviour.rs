//! Injection-behaviour tests through the public `ActivitySource`
//! interface: volume accounting, lane structure, and mechanism plumbing.

use aegis_dp::{ClipBound, LaplaceMechanism};
use aegis_fuzzer::Gadget;
use aegis_isa::{IsaCatalog, Vendor, WellKnown};
use aegis_microarch::{ActivityVector, Core, Feature, InterferenceConfig, MicroArch};
use aegis_obfuscator::{GadgetStack, Obfuscator, ObfuscatorConfig, SecretConstantNoise};
use aegis_sev::ActivitySource;

fn diverse_stack() -> GadgetStack {
    let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
    core.set_interference(InterferenceConfig::isolated());
    GadgetStack::calibrate(
        &catalog,
        &mut core,
        vec![
            Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id()),
            Gadget::new(WellKnown::Nop.id(), WellKnown::SimdAdd.id()),
            Gadget::new(WellKnown::Nop.id(), WellKnown::Store64.id()),
            Gadget::new(WellKnown::Nop.id(), WellKnown::FpAdd.id()),
        ],
        64,
    )
    .expect("non-empty gadget stack")
}

fn drive_ms(obf: &mut Obfuscator, ms: usize, app_uops: f64) -> Vec<ActivityVector> {
    let app = ActivityVector::from_pairs(&[(Feature::UopsRetired, app_uops)]);
    let mut rates = Vec::new();
    for _ in 0..ms * 10 {
        obf.observe_coscheduled(&app, 100_000);
        rates.push(obf.demand().unwrap());
    }
    rates
}

#[test]
fn injected_volume_is_mechanism_not_stack_dependent() {
    // The noise calculator fixes the injected reference counts; the stack
    // only determines which gadgets realize them.
    let cfg = ObfuscatorConfig::default();
    let single = {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        GadgetStack::calibrate(
            &catalog,
            &mut core,
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            64,
        )
        .expect("non-empty gadget stack")
    };
    let mut a = Obfuscator::with_seed(single, Box::new(LaplaceMechanism::new(1.0, 3)), cfg, 3);
    let mut b = Obfuscator::with_seed(
        diverse_stack(),
        Box::new(LaplaceMechanism::new(1.0, 3)),
        cfg,
        3,
    );
    drive_ms(&mut a, 200, 400.0);
    drive_ms(&mut b, 200, 400.0);
    let rel = (a.injected_counts() - b.injected_counts()).abs() / a.injected_counts();
    assert!(rel < 1e-9, "volumes differ by {rel}");
}

#[test]
fn diverse_stacks_inject_in_multiple_directions() {
    let cfg = ObfuscatorConfig {
        clip: ClipBound::injection(1e9),
        ..ObfuscatorConfig::default()
    };
    let mut obf = Obfuscator::with_seed(
        diverse_stack(),
        Box::new(SecretConstantNoise::new(0.0, 1)),
        cfg,
        9,
    );
    // Constant level 0 injects nothing; use a real constant instead.
    let mut obf_live = Obfuscator::with_seed(
        diverse_stack(),
        Box::new(aegis_obfuscator::ConstantOutput::new(2.0)),
        cfg,
        9,
    );
    let silent = drive_ms(&mut obf, 50, 0.0);
    assert!(silent.iter().all(|r| r.is_zero()));

    let rates = drive_ms(&mut obf_live, 200, 0.0);
    // Across intervals, the active feature mix varies: sometimes SIMD
    // dominates, sometimes stores, sometimes cache refills.
    let mut saw_simd = false;
    let mut saw_store = false;
    let mut saw_refill = false;
    for r in &rates {
        if r[Feature::SimdOps] > r[Feature::Stores] && r[Feature::SimdOps] > 0.0 {
            saw_simd = true;
        }
        if r[Feature::Stores] > r[Feature::SimdOps] && r[Feature::Stores] > 0.0 {
            saw_store = true;
        }
        if r[Feature::LlcMiss] > 0.0 {
            saw_refill = true;
        }
    }
    assert!(
        saw_simd && saw_store && saw_refill,
        "lanes must rotate directions: simd {saw_simd} store {saw_store} refill {saw_refill}"
    );
}

#[test]
fn secret_constant_streams_are_identical_per_seed() {
    let cfg = ObfuscatorConfig::default();
    let make = |seed: u64| {
        let mut o = Obfuscator::with_seed(
            diverse_stack(),
            Box::new(SecretConstantNoise::new(4.0, seed)),
            cfg,
            seed,
        );
        let rates = drive_ms(&mut o, 20, 100.0);
        rates
            .iter()
            .map(|r| r[Feature::UopsRetired])
            .collect::<Vec<_>>()
    };
    assert_eq!(make(5), make(5));
    assert_ne!(make(5), make(6));
}

#[test]
fn mechanism_metadata_is_exposed() {
    let obf = Obfuscator::new(
        diverse_stack(),
        Box::new(LaplaceMechanism::new(0.5, 1)),
        ObfuscatorConfig::default(),
    );
    assert_eq!(obf.mechanism_name(), "laplace");
    assert_eq!(obf.epsilon(), 0.5);
    assert_eq!(obf.stack().len(), 4);
    assert_eq!(obf.injected_counts(), 0.0);
}

#[test]
fn advance_is_a_noop_for_injectors() {
    let mut obf = Obfuscator::new(
        diverse_stack(),
        Box::new(LaplaceMechanism::new(1.0, 1)),
        ObfuscatorConfig::default(),
    );
    drive_ms(&mut obf, 5, 100.0);
    let before = obf.demand().unwrap();
    obf.advance(1_000_000);
    assert_eq!(obf.demand().unwrap(), before);
}
