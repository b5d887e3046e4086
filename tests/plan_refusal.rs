//! The profile→plan path fails closed and typed: when fuzzing leaves the
//! covering set empty, `AegisPipeline::offline` returns
//! `AegisError::Uncoverable` — the tenant is refused — instead of
//! panicking or issuing a plan that injects no noise.
//!
//! The seed sweep reproduces the known degenerate case: keystroke on an
//! AMD host at `examples/fleet_mode.rs`'s plan settings, every stage
//! seeded from `derive_seed(7, 0xE2E, i)` for i < 16. Each seed is
//! profiled cold and then warm from the artifact store, and both runs
//! must agree.

use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::MicroArch;
use aegis::obfuscator::StackError;
use aegis::par::derive_seed;
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::KeystrokeApp;
use aegis::{AegisConfig, AegisError, AegisPipeline, DefensePlan, FaultPlan};
use std::path::PathBuf;
use std::sync::OnceLock;

/// A fresh store for this binary, installed as `AEGIS_CACHE_DIR` before
/// any profile runs, so the first call per seed is a cold miss.
fn store() {
    static STORE: OnceLock<PathBuf> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("plan-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("AEGIS_CACHE_DIR", &dir);
        std::env::remove_var("AEGIS_NO_CACHE");
        dir
    });
}

/// `examples/fleet_mode.rs`'s plan settings, every stage seeded from
/// `derive_seed(7, 0xE2E, i)`.
fn fleet_mode_cfg(i: u64) -> AegisConfig {
    let seed = derive_seed(7, 0xE2E, i);
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            seed,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 50_000_000,
            seed,
            ..RankConfig::default()
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 60,
            confirm_reps: 8,
            seed,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 4,
        isa_seed: 7,
        faults: Some(FaultPlan::none()),
        ..AegisConfig::default()
    }
}

/// A plan with its fuzzing wall-clock seconds zeroed, or the refusal.
fn offline(i: u64) -> Result<DefensePlan, StackError> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let app = KeystrokeApp::with_window(300_000_000);
    match AegisPipeline::offline(&mut host, vm, 0, &app, &fleet_mode_cfg(i)) {
        Ok(mut plan) => {
            assert!(!plan.stack.is_empty(), "seed {i}: a plan must inject");
            let r = &mut plan.fuzz_report;
            r.cleanup_seconds = 0.0;
            r.generation_seconds = 0.0;
            r.confirmation_seconds = 0.0;
            r.filtering_seconds = 0.0;
            Ok(plan)
        }
        Err(AegisError::Uncoverable { reason, .. }) => Err(reason),
        Err(e) => panic!("seed {i}: unexpected error {e}"),
    }
}

/// Profiles seeds `range` cold and warm; returns the refused seeds.
fn refused_seeds(range: std::ops::Range<u64>) -> Vec<u64> {
    store();
    let mut refused = Vec::new();
    for i in range {
        let cold = offline(i);
        assert_eq!(cold, offline(i), "seed {i}: cold vs warm");
        if let Err(reason) = cold {
            assert_eq!(reason, StackError::Empty, "seed {i}");
            refused.push(i);
        }
    }
    refused
}

/// Without injected faults the degenerate seeds are exactly 8 and 11;
/// under an ambient fault plan the set may move, but every seed still
/// ends in a plan or the typed refusal.
fn expect_refused(got: Vec<u64>, clean: &[u64]) {
    if !aegis::faults::plan().is_active() {
        assert_eq!(got, clean);
    }
}

#[test]
fn seeds_0_to_7_plan_or_refuse() {
    expect_refused(refused_seeds(0..8), &[]);
}

#[test]
fn seeds_8_to_15_plan_or_refuse() {
    expect_refused(refused_seeds(8..16), &[8, 11]);
}
