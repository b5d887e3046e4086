//! `fleet-storm`: deploy a 16-host fleet of 128 tenants under `Spread`,
//! drive a seeded chaos storm through it and shut it down (`job_s`);
//! then measure the cross-tenant attacker under every placement policy,
//! undefended and under a Laplace ε = 1 deployment (`followup_s`).

use crate::checks::{isolating_at_chance, packed_leaks, storm_non_degenerate, timeless};
use crate::{trace, Env, Phase, Rep, Tally, Workload};
use aegis::microarch::MicroArch;
use aegis::obs;
use aegis::par::{derive_seed, fingerprint};
use aegis::sev::{Host, SevMode};
use aegis::workloads::{KeystrokeApp, SecretApp};
use aegis::{
    cross_tenant_accuracy, policy_attack_table, AegisConfig, AegisError, AegisPipeline,
    CrossTenantConfig, DefenseDeployment, DefensePlan, FaultPlan, FleetConfig, FleetReport,
    FleetSupervisor, FleetTopology, MechanismChoice, PlacementPolicy, PolicyAttackCell,
    ServiceConfig,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const STREAM_PLAN: u64 = 0xd0;
const STREAM_FLEET: u64 = 0xd1;

const TOPOLOGY: FleetTopology = FleetTopology {
    hosts: 16,
    sockets_per_host: 1,
    pairs_per_socket: 5,
};
const TENANTS: usize = 128;
/// Storm rounds and the simulated time each advances the fleet.
const STORM_STEPS: u64 = 20;
const STEP_NS: u64 = 20_000_000;
/// Fleets deployed and stormed per repetition, each under its own storm
/// seed: how much of the fleet a storm crashes varies with the seed, and
/// several storms per repetition average that out.
const STORMS: u64 = 8;

pub struct FleetStorm {
    app: KeystrokeApp,
    plan: DefensePlan,
    plan_s: f64,
    /// One configuration per storm: the same fleet, its own storm seed.
    fleets: Vec<FleetConfig>,
    defense: DefenseDeployment,
    xt: CrossTenantConfig,
    ledger: PathBuf,
}

#[derive(PartialEq)]
pub struct FleetOutput {
    /// Per storm: the report after the storm, and the one `shutdown`
    /// returns.
    storms: Vec<(FleetReport, FleetReport)>,
    undefended: Vec<PolicyAttackCell>,
    defended: Vec<PolicyAttackCell>,
}

/// The benchmark span around each undefended policy cell, and the
/// per-layer metric it feeds.
const XT_SPANS: [(PlacementPolicy, &str, &str); 4] = [
    (PlacementPolicy::SmtOff, "xt.smt-off", "xt.smt-off_s"),
    (
        PlacementPolicy::CorePairExclusive,
        "xt.core-pair-exclusive",
        "xt.core-pair-exclusive_s",
    ),
    (PlacementPolicy::Packed, "xt.packed", "xt.packed_s"),
    (PlacementPolicy::Spread, "xt.spread", "xt.spread_s"),
];

impl Workload for FleetStorm {
    type Output = FleetOutput;

    fn setup(seed: u64, env: &Env, tally: &mut Tally) -> Result<Self, AegisError> {
        let s = |unit| derive_seed(seed, STREAM_FLEET, unit);
        let app = KeystrokeApp::with_window(300_000_000);
        let cfg = AegisConfig {
            mechanism: MechanismChoice::Laplace { epsilon: 1.0 },
            faults: Some(FaultPlan::none()),
            ..crate::eps_sweep::plan_config(derive_seed(seed, STREAM_PLAN, 0))
        };
        let t = Instant::now();
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, derive_seed(seed, STREAM_PLAN, 1));
        let vm = tally.op(
            "launch vm",
            host.launch_vm(1, SevMode::SevSnp).map_err(Into::into),
        )?;
        let plan = timeless(tally.op(
            "offline plan",
            AegisPipeline::offline(&mut host, vm, 0, &app, &cfg),
        )?);
        let plan_s = t.elapsed().as_secs_f64();

        // A storm is the fleet's fault plan; every other site stays off.
        let fleets = (0..STORMS)
            .map(|i| {
                let mut aegis = cfg;
                aegis.faults = Some(FaultPlan {
                    seed: s(2 * i),
                    host_crash: 0.02,
                    host_degrade: 0.15,
                    ..FaultPlan::none()
                });
                FleetConfig::new(
                    ServiceConfig::new(aegis).ledger_dir(&env.ledger),
                    TOPOLOGY,
                    PlacementPolicy::Spread,
                    TENANTS,
                )
                .seed(s(2 * i + 1))
            })
            .collect();
        let xt = CrossTenantConfig {
            window_ns: 300_000_000,
            traces_per_secret: 12,
            seed: s(2 * STORMS),
            ..CrossTenantConfig::default()
        };
        Ok(FleetStorm {
            defense: DefenseDeployment::new(&plan, MechanismChoice::Laplace { epsilon: 1.0 }),
            app,
            plan,
            plan_s,
            fleets,
            xt,
            ledger: env.ledger.clone(),
        })
    }

    fn setup_plan_s(&self) -> f64 {
        self.plan_s
    }

    fn setup_digest(&self) -> u64 {
        fingerprint(&self.plan)
    }

    fn rep(&self, traced: bool, tally: &mut Tally) -> Result<Rep<FleetOutput>, AegisError> {
        let since = obs::snapshot();
        let mut storms = Vec::new();
        let mut job_s = 0.0;
        let mut ledger_bytes = 0;
        for cfg in &self.fleets {
            crate::wipe(&self.ledger)?;
            let t = Instant::now();
            let mut fleet = {
                let _s = trace::span("fleet.deploy");
                tally.op(
                    "deploy fleet",
                    FleetSupervisor::deploy(cfg.clone(), &self.plan, &self.app),
                )?
            };
            {
                let _s = trace::span("fleet.storm");
                fleet.run_storm(STORM_STEPS, STEP_NS);
            }
            let after_storm = fleet.report();
            let at_shutdown = {
                let _s = trace::span("fleet.shutdown");
                fleet.shutdown()
            };
            job_s += t.elapsed().as_secs_f64();
            ledger_bytes += crate::dir_bytes(&self.ledger);
            storms.push((after_storm, at_shutdown));
        }
        let job = Phase::end(&since);

        let since = obs::snapshot();
        let t = Instant::now();
        let mut undefended = Vec::new();
        for (policy, span, _) in XT_SPANS {
            let _s = trace::span(span);
            undefended.push(tally.op(
                "cross-tenant cell",
                cross_tenant_accuracy(policy, &self.app, None, &self.xt),
            )?);
        }
        let defended = {
            let _s = trace::span("xt.defended");
            tally.op(
                "defended attack table",
                policy_attack_table(
                    &PlacementPolicy::ALL,
                    &self.app,
                    Some(&self.defense),
                    &self.xt,
                ),
            )?
        };
        let followup_s = t.elapsed().as_secs_f64();
        let followup = Phase::end(&since);

        let mut layers = BTreeMap::new();
        if traced {
            for (metric, span) in [
                ("fleet.deploy_s", "fleet.deploy"),
                ("fleet.storm_s", "fleet.storm"),
                ("fleet.shutdown_s", "fleet.shutdown"),
            ] {
                layers.insert(metric, job.self_s(span));
            }
            for (_, span, metric) in XT_SPANS {
                layers.insert(metric, followup.self_s(span));
            }
            layers.insert("xt.defended_s", followup.self_s("xt.defended"));
            let sum =
                |f: fn(&FleetReport) -> u64| storms.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
            layers.insert(
                "fleet.sim_ns_per_s",
                sum(|r| r.clock_ns) / job.self_s("fleet.storm"),
            );
            layers.insert("fleet.evacuations", sum(|r| r.evacuations));
            layers.insert("fleet.stranded", sum(|r| r.stranded));
            layers.insert("fleet.quarantined", sum(|r| r.quarantined));
            layers.insert("store.misses", job.obs.counter("cache.miss"));
            layers.insert("store.hits", job.obs.counter("cache.hit"));
            layers.insert("store.bytes", ledger_bytes as f64);
            layers.insert(
                "collect.busy_s",
                followup.obs_span_s("collect.dataset") + followup.obs_span_s("collect.mea"),
            );
            layers.insert("attack.train_busy_s", followup.obs_span_s("attack.train"));
        }
        Ok(Rep {
            job_s,
            followup_s,
            output: FleetOutput {
                storms,
                undefended,
                defended,
            },
            layers,
            phases: vec![("job", job), ("followup", followup)],
        })
    }

    fn check(&self, out: &FleetOutput, tally: &mut Tally) {
        let chance = 1.0 / self.app.n_secrets() as f64;
        tally.check(
            "fleet-storm: every storm evacuates a tenant and strands not all",
            out.storms.iter().all(|(r, _)| storm_non_degenerate(r)),
        );
        tally.check(
            "fleet-storm: every tenant is accounted for at shutdown",
            out.storms.iter().all(|(_, r)| r.tenants.len() == TENANTS),
        );
        tally.check(
            "fleet-storm: undefended Packed leaks more than every isolating policy",
            packed_leaks(&out.undefended),
        );
        tally.check(
            "fleet-storm: undefended isolating policies sit at exactly chance",
            isolating_at_chance(&out.undefended, chance),
        );
        tally.check(
            "fleet-storm: the defended table covers every policy",
            out.defended.len() == PlacementPolicy::ALL.len(),
        );
    }

    fn digest(&self, out: &FleetOutput) -> String {
        let storms: Vec<String> = out
            .storms
            .iter()
            .map(|(r, _)| {
                format!(
                    "crashes {} degrades {} evacuations {} quarantined {} stranded {}",
                    r.crashes, r.degrades, r.evacuations, r.quarantined, r.stranded
                )
            })
            .collect();
        let table = |t: &[PolicyAttackCell]| {
            t.iter()
                .map(|c| format!("{}={:.3}", c.policy.label(), c.accuracy))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "storms [{}]; undefended [{}]; defended [{}]; outputs {:016x}",
            storms.join("; "),
            table(&out.undefended),
            table(&out.defended),
            fingerprint(&(&out.storms, &out.undefended, &out.defended)),
        )
    }
}
