//! Warm-up profiling: discard the HPC events that cannot reflect guest
//! activity at all.
//!
//! "The key idea is that a majority of HPC events cannot reflect the
//! activities inside a guest VM. To exclude those events, we measure and
//! compare the event counts when the VM runs the application and when it
//! is idle" (Section V-B). Events whose counts do not change are removed,
//! leaving <10% — mainly hardware (H/HC) and raw (R) events.

use aegis_microarch::{EventCatalog, EventId, EventKind, OriginFilter};
use aegis_sev::{ActivitySource, Host, HostError, PlanSource, VmId};
use aegis_workloads::{MixSpec, SecretApp, Segment, WorkloadPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Warm-up profiling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupConfig {
    /// Monitoring window per event group per pass (`t_w`; the paper uses
    /// 1 s of wall time, the simulator defaults to 10 ms of simulated
    /// time for tractable experiment runtimes).
    pub probe_ns: u64,
    /// Number of repeated active probes (the paper repeats the warm-up
    /// profiling 5 times; events changing in *any* pass are kept).
    pub passes: usize,
    /// Relative change threshold over the idle count.
    pub rel_threshold: f64,
    /// Absolute count-change threshold (suppresses measurement noise).
    pub abs_threshold: f64,
    /// RNG seed (probe offsets and secret rotation).
    pub seed: u64,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig {
            probe_ns: 10_000_000,
            passes: 3,
            rel_threshold: 0.5,
            abs_threshold: 25.0,
            seed: 7,
        }
    }
}

/// Per-kind warm-up survival row — the bracketed percentages of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KindSurvival {
    /// Event class.
    pub kind: EventKind,
    /// Events of this class in the catalog.
    pub total: usize,
    /// Events of this class that survived the warm-up.
    pub remaining: usize,
}

impl KindSurvival {
    /// Remaining percentage.
    pub fn remaining_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.remaining as f64 / self.total as f64 * 100.0
        }
    }
}

/// Result of warm-up profiling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmupResult {
    /// Events that reflect guest application activity, in catalog order.
    pub vulnerable: Vec<EventId>,
    /// Total events tested (`M`).
    pub tested: usize,
    /// Per-kind survival, in Table II order.
    pub kind_survival: Vec<KindSurvival>,
}

impl WarmupResult {
    /// Assembles a result from the surviving events, deriving the
    /// per-kind survival rows from `catalog` — the form a stored profile
    /// is rebuilt in, since survival is a pure function of the two.
    pub fn from_vulnerable(
        catalog: &EventCatalog,
        vulnerable: Vec<EventId>,
        tested: usize,
    ) -> WarmupResult {
        let kind_survival = EventKind::ALL
            .iter()
            .map(|&kind| {
                let total = catalog.events().iter().filter(|e| e.kind == kind).count();
                let remaining = vulnerable
                    .iter()
                    .filter(|&&id| catalog.get(id).is_some_and(|e| e.kind == kind))
                    .count();
                KindSurvival {
                    kind,
                    total,
                    remaining,
                }
            })
            .collect();
        WarmupResult {
            vulnerable,
            tested,
            kind_survival,
        }
    }

    /// Fraction of events that survived.
    pub fn survival_fraction(&self) -> f64 {
        self.vulnerable.len() as f64 / self.tested.max(1) as f64
    }
}

/// Runs warm-up profiling of `app` inside `vm` against every event of the
/// host's catalog, in groups of `C = 4` to avoid counter multiplexing.
///
/// # Errors
///
/// Returns [`HostError`] if the vm/vcpu ids are invalid.
pub fn warmup_profile(
    host: &mut Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    cfg: &WarmupConfig,
) -> Result<WarmupResult, HostError> {
    let core_idx = host.core_of(vm, vcpu)?;
    let catalog = host.core(core_idx).catalog();
    let all_events: Vec<EventId> = catalog.events().iter().map(|e| e.id).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3a11_0001);
    let slots = host.arch().counter_slots();

    let mut vulnerable = Vec::new();
    for group in all_events.chunks(slots) {
        // Idle pass: only the VM's background hum.
        let idle_plan = idle_plan(cfg.probe_ns);
        host.attach_app(vm, vcpu, Box::new(PlanSource::new(idle_plan)))?;
        let idle = host
            .record_trace(
                core_idx,
                group,
                OriginFilter::GuestOnly(vm.0),
                cfg.probe_ns,
                cfg.probe_ns,
            )
            .expect("catalog events are valid");
        let idle_counts = idle.totals();

        // Active passes at random plan offsets so every application phase
        // gets probed across the passes.
        let mut changed = vec![false; group.len()];
        for _ in 0..cfg.passes.max(1) {
            let secret = rng.gen_range(0..app.n_secrets());
            let plan = app.sample_plan(secret, &mut rng);
            let mut src = PlanSource::new(plan);
            let max_off = app.window_ns().saturating_sub(cfg.probe_ns);
            src.advance(rng.gen_range(0..=max_off));
            host.attach_app(vm, vcpu, Box::new(src))?;
            let active = host
                .record_trace(
                    core_idx,
                    group,
                    OriginFilter::GuestOnly(vm.0),
                    cfg.probe_ns,
                    cfg.probe_ns,
                )
                .expect("catalog events are valid");
            for (i, (&a, &idle_c)) in active.totals().iter().zip(&idle_counts).enumerate() {
                if a > idle_c * (1.0 + cfg.rel_threshold) + cfg.abs_threshold {
                    changed[i] = true;
                }
            }
        }
        for (i, &ev) in group.iter().enumerate() {
            if changed[i] {
                vulnerable.push(ev);
            }
        }
    }
    // Leave the VM idle.
    host.attach_app(vm, vcpu, Box::new(PlanSource::new(WorkloadPlan::new())))?;

    Ok(WarmupResult::from_vulnerable(
        &catalog,
        vulnerable,
        all_events.len(),
    ))
}

fn idle_plan(duration_ns: u64) -> WorkloadPlan {
    let mut p = WorkloadPlan::new();
    // Pad slightly past the probe so the source never runs dry mid-probe.
    p.push(Segment::new(duration_ns * 2, MixSpec::idle().build()));
    p
}

/// Fast-forward support: expose [`PlanSource::advance`] as a free helper
/// so warm-up probes can start mid-plan without a custom source type.
#[allow(dead_code)]
fn _assert_plan_source_is_source(p: PlanSource) -> impl ActivitySource {
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::MicroArch;
    use aegis_sev::SevMode;
    use aegis_workloads::WebsiteCatalog;

    fn quick_cfg() -> WarmupConfig {
        WarmupConfig {
            probe_ns: 3_000_000, // 3 ms probes keep the test fast
            passes: 2,
            ..WarmupConfig::default()
        }
    }

    #[test]
    fn warmup_keeps_hardware_events_and_drops_software() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = WebsiteCatalog::new(7);
        let result = warmup_profile(&mut host, vm, 0, &app, &quick_cfg()).unwrap();

        assert_eq!(result.tested, 1903);
        // Fewer than 10% of events survive (paper: "we only get less
        // than 10% of the events").
        assert!(
            result.survival_fraction() < 0.15,
            "{}",
            result.survival_fraction()
        );
        assert!(!result.vulnerable.is_empty());

        for ks in &result.kind_survival {
            match ks.kind {
                EventKind::Software | EventKind::Other => {
                    assert_eq!(ks.remaining, 0, "{:?} should not survive", ks.kind)
                }
                EventKind::Hardware => {
                    assert!(
                        ks.remaining_pct() > 60.0,
                        "H survival {}",
                        ks.remaining_pct()
                    )
                }
                EventKind::Tracepoint => {
                    assert!(ks.remaining_pct() < 10.0, "T {}", ks.remaining_pct())
                }
                _ => {}
            }
        }
    }

    #[test]
    fn headline_attack_events_survive() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = WebsiteCatalog::new(7);
        let result = warmup_profile(&mut host, vm, 0, &app, &quick_cfg()).unwrap();
        let core = host.core_of(vm, 0).unwrap();
        let catalog = host.core(core).catalog();
        for ev in catalog.attack_events() {
            assert!(
                result.vulnerable.contains(&ev),
                "{} must survive warm-up",
                catalog.get(ev).unwrap().name
            );
        }
    }
}
