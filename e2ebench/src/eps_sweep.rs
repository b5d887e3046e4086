//! `eps-sweep`: the Fig. 9a/9b job at `experiments --quick` sizes. Collect
//! the clean datasets and train the clean attackers, then sweep attack
//! accuracy over ε ∈ {2^-3, 2^0, 2^3} × {Laplace, d*} for WFA and KSA
//! (clean-trained and robust) and MEA, on an empty private store
//! (`job_s`); then the same job again on the populated store
//! (`followup_s`, the median of [`WARM_REPEATS`] runs).
//!
//! The defense plans the sweeps deploy are built in set-up, so the timed
//! part runs no profiler.

use crate::checks::{cells_bit_identical, timeless, warm_has_no_misses};
use crate::{median, trace, Env, Phase, Rep, Tally, Workload};
use aegis::attack::{Dataset, TrainConfig};
use aegis::fuzzer::FuzzerConfig;
use aegis::microarch::{EventId, MicroArch};
use aegis::obs;
use aegis::par::{derive_seed, fingerprint, ArtifactCache, ArtifactKey};
use aegis::profiler::{RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId};
use aegis::sweep::{self, SweepConfig, SweepOutcome};
use aegis::workloads::{DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use aegis::{
    AegisConfig, AegisError, AegisPipeline, ClassifierAttack, CollectConfig, Collector,
    DefenseDeployment, DefensePlan, MeaAttack, MeaConfig, MeaRunLog, MechanismChoice,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const STREAM_APP: u64 = 0xc0;
const STREAM_PLAN: u64 = 0xc1;
const STREAM_HOST: u64 = 0xc2;
const STREAM_SWEEP: u64 = 0xc3;

/// Warm runs per repetition; `followup_s` is their median.
const WARM_REPEATS: usize = 9;

/// The ε grid of `experiments fig9a --quick`.
const EPS_GRID: [f64; 3] = [0.125, 1.0, 8.0];

#[derive(Clone, Copy, PartialEq)]
enum Attack {
    Wfa,
    Ksa,
    Mea,
}

/// One sweep of the job: its attack, whether the attacker is robust
/// (trained on defended traces), and its own host.
struct Sweep {
    attack: Attack,
    robust: bool,
    host: Host,
    vm: VmId,
    events: Vec<EventId>,
    cfg: SweepConfig,
}

pub struct EpsSweep {
    wfa: WebsiteCatalog,
    ksa: KeystrokeApp,
    zoo: DnnZoo,
    wfa_collect: CollectConfig,
    ksa_collect: CollectConfig,
    mea_collect: MeaConfig,
    /// Laplace ε = 1 deployments of the WFA, KSA and MEA plans; each
    /// sweep cell swaps the mechanism.
    bases: [DefenseDeployment; 3],
    plans: Vec<DefensePlan>,
    plan_s: f64,
    sweeps: Vec<Sweep>,
    train_seed: u64,
    store: PathBuf,
}

/// The cold and warm outputs of one repetition: every sweep's outcome,
/// in job order, per run of the job.
pub struct SweepOutputs {
    cold: Vec<SweepOutcome>,
    warm: Vec<Vec<SweepOutcome>>,
}

impl PartialEq for SweepOutputs {
    fn eq(&self, other: &Self) -> bool {
        cells_bit_identical(&self.cold, &other.cold)
            && self.warm.len() == other.warm.len()
            && self
                .warm
                .iter()
                .zip(&other.warm)
                .all(|(a, b)| cells_bit_identical(a, b))
    }
}

/// The plan settings of the experiment harness's quick mode.
pub fn plan_config(seed: u64) -> AegisConfig {
    let s = |unit| derive_seed(seed, STREAM_PLAN, unit);
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 2_000_000,
            passes: 2,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 60_000_000,
            interval_ns: 10_000_000,
            seed: s(0),
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 100,
            confirm_reps: 10,
            seed: s(1),
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 8,
        ..AegisConfig::default()
    }
}

fn new_host(seed: u64, tally: &mut Tally) -> Result<(Host, VmId), AegisError> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, seed);
    let vm = tally.op(
        "launch vm",
        host.launch_vm(1, SevMode::SevSnp).map_err(Into::into),
    )?;
    Ok((host, vm))
}

impl EpsSweep {
    fn app(&self, attack: Attack) -> &dyn SecretApp {
        match attack {
            Attack::Wfa => &self.wfa,
            Attack::Ksa => &self.ksa,
            Attack::Mea => &self.zoo,
        }
    }

    fn base(&self, attack: Attack) -> &DefenseDeployment {
        &self.bases[attack as usize]
    }

    /// Collects (or loads from the store) a clean dataset and trains (or
    /// loads) the clean-trained classifier.
    fn clean_classifier(
        &self,
        s: &Sweep,
        collect: &CollectConfig,
        cache: &ArtifactCache,
        tally: &mut Tally,
    ) -> Result<ClassifierAttack, AegisError> {
        let app = self.app(s.attack);
        let key = ArtifactKey::of(
            "clean-dataset",
            &(
                s.cfg.host_seed,
                app.name().to_string(),
                s.events.clone(),
                *collect,
            ),
        );
        let clean = match cache.get_col_or_json::<Dataset>(&key) {
            Some(hit) => hit,
            None => {
                let _s = trace::span("collect.clean");
                let mut host = s.host.fork_detached();
                let ds = tally.op(
                    "collect clean dataset",
                    Collector::for_traces(*collect)
                        .dataset(&mut host, s.vm, 0, app, &s.events, None),
                )?;
                let _ = cache.put_col(&key, &ds);
                ds
            }
        };
        let _s = trace::span("attack.train");
        Ok(ClassifierAttack::train_cached(
            &clean,
            TrainConfig::default(),
            self.train_seed,
            cache,
        ))
    }

    fn clean_mea_attacker(
        &self,
        s: &Sweep,
        cache: &ArtifactCache,
        tally: &mut Tally,
    ) -> Result<MeaAttack, AegisError> {
        let key = ArtifactKey::of(
            "clean-mea-runs",
            &(s.cfg.host_seed, s.events.clone(), self.mea_collect),
        );
        let runs = match cache.get_col_or_json::<MeaRunLog>(&key) {
            Some(hit) => hit.0,
            None => {
                let _s = trace::span("collect.clean");
                let mut host = s.host.fork_detached();
                let runs = tally.op(
                    "collect clean MEA runs",
                    Collector::for_mea(self.mea_collect)
                        .mea_runs(&mut host, s.vm, 0, &self.zoo, &s.events, None),
                )?;
                let _ = cache.put_col(&key, &MeaRunLog(runs.clone()));
                runs
            }
        };
        let _s = trace::span("attack.train");
        Ok(MeaAttack::train_cached(
            &runs,
            TrainConfig::default(),
            self.train_seed,
            cache,
        ))
    }

    /// The whole job against `cache`, cold or warm alike.
    fn job(
        &self,
        cache: &ArtifactCache,
        tally: &mut Tally,
    ) -> Result<Vec<SweepOutcome>, AegisError> {
        let mut outcomes = Vec::new();
        for s in &self.sweeps {
            let outcome = match s.attack {
                Attack::Mea => {
                    let attacker = self.clean_mea_attacker(s, cache, tally)?;
                    let _s = trace::span("sweep.mea");
                    sweep::mea_sweep(
                        &s.host,
                        s.vm,
                        0,
                        &self.zoo,
                        &s.events,
                        &self.mea_collect,
                        self.base(s.attack),
                        Some(&attacker),
                        &s.cfg,
                        cache,
                    )
                }
                Attack::Wfa | Attack::Ksa => {
                    let collect = if s.attack == Attack::Wfa {
                        &self.wfa_collect
                    } else {
                        &self.ksa_collect
                    };
                    let attacker = if s.robust {
                        None
                    } else {
                        Some(self.clean_classifier(s, collect, cache, tally)?)
                    };
                    let _s = trace::span("sweep.classification");
                    sweep::classification_sweep(
                        &s.host,
                        s.vm,
                        0,
                        self.app(s.attack),
                        &s.events,
                        collect,
                        self.base(s.attack),
                        attacker.as_ref(),
                        &s.cfg,
                        cache,
                    )
                }
            };
            outcomes.push(tally.op("eps sweep", outcome)?);
        }
        Ok(outcomes)
    }

    /// Defended traces (or MEA runs) one cold job collects.
    fn defended_traces(&self) -> usize {
        self.sweeps
            .iter()
            .map(|s| {
                let per_cell = match s.attack {
                    Attack::Mea => s.cfg.victim_runs_per_model * self.zoo.n_secrets(),
                    _ => {
                        let n = self.app(s.attack).n_secrets();
                        s.cfg.victim_traces_per_secret * n
                            + if s.robust {
                                s.cfg.robust_traces_per_secret * n
                            } else {
                                0
                            }
                    }
                };
                per_cell * s.cfg.eps_grid.len() * 2
            })
            .sum()
    }
}

impl Workload for EpsSweep {
    type Output = SweepOutputs;

    fn setup(seed: u64, env: &Env, tally: &mut Tally) -> Result<Self, AegisError> {
        let app_seed = |unit| derive_seed(seed, STREAM_APP, unit);
        let wfa = WebsiteCatalog::new(app_seed(0));
        let ksa = KeystrokeApp::with_window(300_000_000);
        let zoo = DnnZoo::new(app_seed(1));
        let collect_seed = derive_seed(seed, STREAM_SWEEP, 0x100);

        let cfg = plan_config(seed);
        let t = Instant::now();
        let mut plans = Vec::new();
        let apps: [&dyn SecretApp; 3] = [&wfa, &ksa, &zoo];
        for (i, app) in apps.into_iter().enumerate() {
            let (mut host, vm) = new_host(derive_seed(seed, STREAM_PLAN, 0x10 + i as u64), tally)?;
            let plan = AegisPipeline::offline(&mut host, vm, 0, app, &cfg);
            plans.push(timeless(tally.op("offline plan", plan)?));
        }
        let plan_s = t.elapsed().as_secs_f64();
        let laplace = MechanismChoice::Laplace { epsilon: 1.0 };
        let bases = [0, 1, 2].map(|i| DefenseDeployment::new(&plans[i], laplace));

        let wfa_collect = CollectConfig {
            traces_per_secret: 6,
            window_ns: 300_000_000,
            interval_ns: 1_000_000,
            pool: 20,
            seed: collect_seed,
            per_secret_noise: false,
        };
        let ksa_collect = CollectConfig {
            traces_per_secret: 12,
            window_ns: 300_000_000,
            interval_ns: 2_000_000,
            pool: 25,
            seed: collect_seed,
            per_secret_noise: false,
        };
        let mea_collect = MeaConfig {
            runs_per_model: 3,
            interval_ns: 1_000_000,
            pad_ns: 20_000_000,
            seed: collect_seed,
        };
        let specs = [
            (Attack::Wfa, false),
            (Attack::Ksa, false),
            (Attack::Mea, false),
            (Attack::Wfa, true),
            (Attack::Ksa, true),
        ];
        let mut sweeps = Vec::new();
        for (i, (attack, robust)) in specs.into_iter().enumerate() {
            let host_seed = derive_seed(seed, STREAM_HOST, i as u64);
            let (host, vm) = new_host(host_seed, tally)?;
            let core = tally.op("core of vm", host.core_of(vm, 0).map_err(Into::into))?;
            let events = host.core(core).catalog().attack_events().to_vec();
            let n_secrets = apps[attack as usize].n_secrets();
            let traces = if attack == Attack::Wfa {
                wfa_collect.traces_per_secret
            } else {
                ksa_collect.traces_per_secret
            };
            let cfg = SweepConfig {
                eps_grid: EPS_GRID.to_vec(),
                seed: derive_seed(seed, STREAM_SWEEP, i as u64),
                host_seed,
                train: TrainConfig::default(),
                victim_traces_per_secret: (90 / n_secrets).max(2),
                robust_traces_per_secret: (traces * 2 / 3).max(4),
                victim_runs_per_model: 2,
            };
            sweeps.push(Sweep {
                attack,
                robust,
                host,
                vm,
                events,
                cfg,
            });
        }
        Ok(EpsSweep {
            wfa,
            ksa,
            zoo,
            wfa_collect,
            ksa_collect,
            mea_collect,
            bases,
            plans,
            plan_s,
            sweeps,
            train_seed: derive_seed(seed, STREAM_SWEEP, 0x200),
            store: env.store.clone(),
        })
    }

    fn setup_plan_s(&self) -> f64 {
        self.plan_s
    }

    fn setup_digest(&self) -> u64 {
        fingerprint(&self.plans)
    }

    fn rep(&self, traced: bool, tally: &mut Tally) -> Result<Rep<SweepOutputs>, AegisError> {
        crate::wipe(&self.store)?;
        let cache = ArtifactCache::new(&self.store);
        let since = obs::snapshot();
        let t = Instant::now();
        let cold = self.job(&cache, tally)?;
        let job_s = t.elapsed().as_secs_f64();
        let job = Phase::end(&since);
        let store_bytes = crate::dir_bytes(&self.store);

        let since = obs::snapshot();
        let mut warm = Vec::new();
        let mut warm_s = Vec::new();
        for _ in 0..WARM_REPEATS {
            let t = Instant::now();
            warm.push(self.job(&cache, tally)?);
            warm_s.push(t.elapsed().as_secs_f64());
        }
        let followup = Phase::end(&since);

        let mut layers = BTreeMap::new();
        if traced {
            let sweep_s = job.self_s("sweep.classification") + job.self_s("sweep.mea");
            let traces = self.defended_traces() as f64;
            layers.insert("collect.clean_s", job.self_s("collect.clean"));
            layers.insert("attack.train_s", job.self_s("attack.train"));
            layers.insert("sweep.classification_s", job.self_s("sweep.classification"));
            layers.insert("sweep.mea_s", job.self_s("sweep.mea"));
            layers.insert("collect.defended_traces", traces);
            layers.insert("collect.defended_traces_per_s", traces / sweep_s);
            layers.insert(
                "store.misses",
                cold.iter().map(|o| o.cache_misses).sum::<u64>() as f64,
            );
            layers.insert(
                "store.hits",
                warm[0].iter().map(|o| o.cache_hits).sum::<u64>() as f64,
            );
            layers.insert("store.bytes", store_bytes as f64);
            let warm_sweeps_s =
                followup.self_s("sweep.classification") + followup.self_s("sweep.mea");
            layers.insert("store.warm_read_s", warm_sweeps_s / WARM_REPEATS as f64);
            layers.insert(
                "collect.busy_s",
                job.obs_span_s("collect.dataset") + job.obs_span_s("collect.mea"),
            );
            layers.insert("attack.train_busy_s", job.obs_span_s("attack.train"));
            let capacity = sweep_s * aegis::par::get_threads() as f64;
            layers.insert(
                "par.worker_idle_frac",
                1.0 - job.obs_span_s("sweep.cell") / capacity,
            );
        }
        Ok(Rep {
            job_s,
            followup_s: median(&warm_s),
            output: SweepOutputs { cold, warm },
            layers,
            phases: vec![("job", job), ("followup", followup)],
        })
    }

    fn check(&self, out: &SweepOutputs, tally: &mut Tally) {
        tally.check(
            "eps-sweep: warm cells are bit-identical to cold cells",
            out.warm.iter().all(|w| cells_bit_identical(&out.cold, w)),
        );
        tally.check(
            "eps-sweep: warm runs miss the store 0 times",
            out.warm.iter().all(|w| warm_has_no_misses(w)),
        );
        tally.check(
            "eps-sweep: the cold run computes its artifacts",
            out.cold.iter().all(|o| o.cache_misses > 0),
        );
        tally.check(
            "eps-sweep: every cell has an accuracy in [0, 1]",
            out.cold
                .iter()
                .flat_map(|o| &o.cells)
                .all(|c| (0.0..=1.0).contains(&c.accuracy)),
        );
    }

    fn digest(&self, out: &SweepOutputs) -> String {
        let cells: Vec<(u64, String, u64)> = out
            .cold
            .iter()
            .flat_map(|o| &o.cells)
            .map(|c| {
                (
                    c.epsilon.to_bits(),
                    c.mechanism.to_string(),
                    c.accuracy.to_bits(),
                )
            })
            .collect();
        let names = ["wfa", "ksa", "mea", "wfa-robust", "ksa-robust"];
        let rows: Vec<String> = names
            .iter()
            .zip(&out.cold)
            .map(|(n, o)| {
                let accs: Vec<String> = o
                    .cells
                    .iter()
                    .map(|c| format!("{:.3}", c.accuracy))
                    .collect();
                format!("{n} [{}]", accs.join(" "))
            })
            .collect();
        format!("{}; cells {:016x}", rows.join("; "), fingerprint(&cells))
    }
}
