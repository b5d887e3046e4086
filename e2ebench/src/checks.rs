//! Output checks. Each is a pure predicate over workload outputs, so the
//! tests below can show that it rejects a perturbed output.

use aegis::{DefensePlan, FleetReport, PlacementPolicy, PolicyAttackCell, SweepOutcome};

/// `plan` with its fuzzing wall-clock seconds zeroed. Everything else in
/// a plan is a pure function of its inputs, so two timeless plans of the
/// same inputs are equal.
pub fn timeless(mut plan: DefensePlan) -> DefensePlan {
    let r = &mut plan.fuzz_report;
    r.cleanup_seconds = 0.0;
    r.generation_seconds = 0.0;
    r.confirmation_seconds = 0.0;
    r.filtering_seconds = 0.0;
    plan
}

/// Whether two runs of the same sweeps gave bit-identical cells.
pub fn cells_bit_identical(a: &[SweepOutcome], b: &[SweepOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cells.len() == y.cells.len()
                && x.cells.iter().zip(&y.cells).all(|(c, d)| {
                    c.epsilon.to_bits() == d.epsilon.to_bits()
                        && c.mechanism == d.mechanism
                        && c.accuracy.to_bits() == d.accuracy.to_bits()
                })
        })
}

/// Whether every artifact of a warm run came from the store.
pub fn warm_has_no_misses(warm: &[SweepOutcome]) -> bool {
    warm.iter().all(|o| o.cache_misses == 0)
}

fn isolating(policy: PlacementPolicy) -> bool {
    policy != PlacementPolicy::Packed
}

/// Whether `Packed` (a foreign tenant on the attacker's SMT sibling) is
/// classified better than under every isolating policy.
pub fn packed_leaks(table: &[PolicyAttackCell]) -> bool {
    let Some(packed) = table.iter().find(|c| c.policy == PlacementPolicy::Packed) else {
        return false;
    };
    let others: Vec<_> = table.iter().filter(|c| isolating(c.policy)).collect();
    !others.is_empty() && others.iter().all(|c| packed.accuracy > c.accuracy)
}

/// Whether every isolating policy leaves the attacker at exactly chance.
pub fn isolating_at_chance(table: &[PolicyAttackCell], chance: f64) -> bool {
    let others: Vec<_> = table.iter().filter(|c| isolating(c.policy)).collect();
    !others.is_empty() && others.iter().all(|c| c.accuracy == chance)
}

/// Whether the storm did something: at least one tenant was evacuated
/// and not every tenant ended stranded.
pub fn storm_non_degenerate(report: &FleetReport) -> bool {
    report.evacuations >= 1 && (report.stranded as usize) < report.tenants.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis::fuzzer::FuzzerConfig;
    use aegis::microarch::MicroArch;
    use aegis::profiler::{RankConfig, WarmupConfig};
    use aegis::sev::{Host, SevMode};
    use aegis::workloads::KeystrokeApp;
    use aegis::{AegisConfig, AegisPipeline, SweepCell, TenantOutcome, TenantStatus};

    fn small_plan() -> DefensePlan {
        let cfg = AegisConfig {
            warmup: WarmupConfig {
                probe_ns: 2_000_000,
                passes: 2,
                ..WarmupConfig::default()
            },
            rank: RankConfig {
                reps_per_secret: 2,
                window_ns: 40_000_000,
                interval_ns: 10_000_000,
                seed: 3,
            },
            fuzzer: FuzzerConfig {
                candidates_per_event: 30,
                confirm_reps: 4,
                ..FuzzerConfig::default()
            },
            fuzz_top_events: 3,
            faults: Some(aegis::FaultPlan::none()),
            ..AegisConfig::default()
        };
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = KeystrokeApp::with_window(300_000_000);
        timeless(AegisPipeline::offline(&mut host, vm, 0, &app, &cfg).unwrap())
    }

    #[test]
    fn plan_check_ignores_timings_and_rejects_any_other_change() {
        // Keeps the fuzzer's cleanup step out of the repository's store.
        std::env::set_var("AEGIS_NO_CACHE", "1");
        let plan = small_plan();
        let mut slower = plan.clone();
        slower.fuzz_report.generation_seconds = 9.0;
        assert_eq!(plan, timeless(slower));

        let mut fewer = plan.clone();
        fewer.fuzz_report.gadgets_tested += 1;
        assert_ne!(plan, timeless(fewer));
        let mut reranked = plan.clone();
        reranked.rankings[0].mi_bits += 1e-12;
        assert_ne!(plan, timeless(reranked));
        let mut shorter = plan.clone();
        shorter.vulnerable_events.pop();
        assert_ne!(plan, timeless(shorter));
    }

    fn outcome(acc: f64, misses: u64) -> SweepOutcome {
        SweepOutcome {
            cells: vec![
                SweepCell {
                    epsilon: 1.0,
                    mechanism: "laplace",
                    accuracy: acc,
                },
                SweepCell {
                    epsilon: 1.0,
                    mechanism: "dstar",
                    accuracy: 0.25,
                },
            ],
            cache_hits: 2 - misses,
            cache_misses: misses,
        }
    }

    #[test]
    fn sweep_checks_reject_perturbed_cells_and_warm_misses() {
        let cold = [outcome(0.5, 2)];
        assert!(cells_bit_identical(&cold, &[outcome(0.5, 0)]));
        assert!(!cells_bit_identical(&cold, &[outcome(0.5 + 1e-16, 0)]));
        assert!(!cells_bit_identical(&cold, &[]));
        let mut relabeled = outcome(0.5, 0);
        relabeled.cells[1].mechanism = "laplace";
        assert!(!cells_bit_identical(&cold, &[relabeled]));
        assert!(warm_has_no_misses(&[outcome(0.5, 0)]));
        assert!(!warm_has_no_misses(&[outcome(0.5, 0), outcome(0.5, 1)]));
    }

    fn table(packed: f64, spread: f64) -> Vec<PolicyAttackCell> {
        PlacementPolicy::ALL
            .iter()
            .map(|&policy| PolicyAttackCell {
                policy,
                co_resident: policy == PlacementPolicy::Packed,
                accuracy: match policy {
                    PlacementPolicy::Packed => packed,
                    PlacementPolicy::Spread => spread,
                    _ => 0.25,
                },
            })
            .collect()
    }

    #[test]
    fn attack_table_checks_reject_leaky_isolation_and_quiet_packing() {
        assert!(packed_leaks(&table(0.9, 0.25)));
        assert!(isolating_at_chance(&table(0.9, 0.25), 0.25));
        assert!(!packed_leaks(&table(0.25, 0.25)));
        assert!(!packed_leaks(&table(0.5, 0.6)));
        assert!(!isolating_at_chance(&table(0.9, 0.3), 0.25));
        assert!(!packed_leaks(&table(0.9, 0.25)[..1]));
        assert!(!isolating_at_chance(&[], 0.25));
    }

    fn report(evacuations: u64, stranded: u64) -> FleetReport {
        FleetReport {
            policy: "spread".into(),
            clock_ns: 1,
            crashes: 1,
            degrades: 0,
            evacuations,
            quarantined: 0,
            stranded,
            tenants: (0..4)
                .map(|t| TenantOutcome {
                    tenant: format!("t{t:03}"),
                    status: TenantStatus::Protected,
                    host: Some(0),
                    evacuations: 0,
                    epsilon_spent: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn storm_check_rejects_quiet_and_total_storms() {
        assert!(storm_non_degenerate(&report(2, 1)));
        assert!(!storm_non_degenerate(&report(0, 0)));
        assert!(!storm_non_degenerate(&report(4, 4)));
    }
}
