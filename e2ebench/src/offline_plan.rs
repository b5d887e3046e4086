//! `offline-plan`: the customer's profile→plan command (`aegis offline`
//! without `--thorough`) for the four case-study apps on the AMD
//! template, first on an empty store (`job_s`), then again on the store
//! the first pass populated (`followup_s`).

use crate::checks::timeless;
use crate::{trace, Env, Phase, Rep, Tally, Workload};
use aegis::fuzzer::{cluster_gadgets, covering_set, EventFuzzer, FuzzerConfig, GadgetStats};
use aegis::isa::IsaCatalog;
use aegis::microarch::{Core, InterferenceConfig, MicroArch};
use aegis::obfuscator::GadgetStack;
use aegis::obs;
use aegis::par::{derive_seed, fingerprint};
use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode, VmId};
use aegis::workloads::{CryptoApp, DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use aegis::{AegisConfig, AegisError, AegisPipeline, DefensePlan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const STREAM_APP: u64 = 0xb0;
const STREAM_HOST: u64 = 0xb1;
const STREAM_PIPELINE: u64 = 0xb2;

pub struct OfflinePlan {
    apps: Vec<Box<dyn SecretApp>>,
    /// One pristine template host per app (no app attached); every call
    /// profiles a fork of it.
    templates: Vec<(Host, VmId)>,
    cfg: AegisConfig,
    store: PathBuf,
}

/// The plans of one repetition, timings zeroed.
#[derive(PartialEq)]
pub struct Plans {
    cold: Vec<DefensePlan>,
    warm: Vec<DefensePlan>,
}

/// The settings `aegis offline` uses without `--thorough`, with its one
/// `--seed` split into derived streams.
fn pipeline_config(seed: u64) -> AegisConfig {
    let s = |unit| derive_seed(seed, STREAM_PIPELINE, unit);
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 3_000_000,
            passes: 3,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 80_000_000,
            interval_ns: 10_000_000,
            seed: s(0),
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 150,
            confirm_reps: 10,
            seed: s(1),
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 10,
        ..AegisConfig::default()
    }
}

/// Fuzzing counts the plan itself does not keep.
#[derive(Default)]
struct FuzzCounts {
    tested: usize,
    confirmed: usize,
}

/// `AegisPipeline::offline`'s stages called one by one, each timed by a
/// benchmark span. Must produce the same plan as the pipeline.
fn decomposed(
    host: &mut Host,
    vm: VmId,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
    counts: &mut FuzzCounts,
) -> Result<DefensePlan, AegisError> {
    let _plan = trace::span("plan.offline");
    let warmup = {
        let _s = trace::span("profiler.warmup");
        warmup_profile(host, vm, 0, app, &cfg.warmup)?
    };
    let rankings = {
        let _s = trace::span("profiler.rank");
        rank_events(host, vm, 0, app, &warmup.vulnerable, &cfg.rank)?
    };
    let arch = host.arch();
    let isa = IsaCatalog::shared(arch.vendor(), cfg.isa_seed);
    let mut core = Core::new(arch, cfg.fuzzer.seed);
    core.set_interference(InterferenceConfig::isolated());
    let targets: Vec<_> = rankings
        .iter()
        .take(cfg.fuzz_top_events)
        .map(|r| r.event)
        .collect();
    let mut outcome = {
        let _s = trace::span("fuzzer.run");
        EventFuzzer::new(cfg.fuzzer).run(&isa, &mut core, &targets)
    };
    counts.tested += outcome.report.gadgets_tested;
    counts.confirmed += outcome
        .per_event
        .iter()
        .map(|e| e.confirmed.len())
        .sum::<usize>();
    let gadget_stats = GadgetStats::from_events(&outcome.per_event);
    let covering = {
        let _s = trace::span("fuzzer.cover");
        cluster_gadgets(&mut outcome);
        covering_set(&outcome.per_event)
    };
    let stack = {
        let _s = trace::span("obfuscator.calibrate");
        core.reset_cache();
        GadgetStack::from_covering(&isa, &mut core, &covering)
    };
    Ok(DefensePlan {
        template_arch: arch,
        vulnerable_events: warmup.vulnerable,
        rankings,
        covering,
        stack,
        fuzz_report: outcome.report,
        gadget_stats,
    })
}

impl OfflinePlan {
    /// Plans every app once, each on a fresh clone of its template;
    /// returns the plans and the summed wall seconds of the calls.
    fn plan_all(
        &self,
        traced: bool,
        counts: &mut FuzzCounts,
        tally: &mut Tally,
    ) -> Result<(Vec<DefensePlan>, f64), AegisError> {
        let mut plans = Vec::new();
        let mut seconds = 0.0;
        for (app, (template, vm)) in self.apps.iter().zip(&self.templates) {
            let mut host = template.fork_detached();
            let t = Instant::now();
            let plan = if traced {
                decomposed(&mut host, *vm, app.as_ref(), &self.cfg, counts)
            } else {
                AegisPipeline::offline(&mut host, *vm, 0, app.as_ref(), &self.cfg)
            };
            seconds += t.elapsed().as_secs_f64();
            plans.push(timeless(tally.op("offline plan", plan)?));
        }
        Ok((plans, seconds))
    }
}

impl Workload for OfflinePlan {
    type Output = Plans;

    fn setup(seed: u64, env: &Env, tally: &mut Tally) -> Result<Self, AegisError> {
        let app_seed = derive_seed(seed, STREAM_APP, 0);
        let apps: Vec<Box<dyn SecretApp>> = vec![
            Box::new(KeystrokeApp::with_window(400_000_000)),
            Box::new(WebsiteCatalog::new(app_seed)),
            Box::new(DnnZoo::new(app_seed)),
            Box::new(CryptoApp::with_window(4, 400_000_000)),
        ];
        let arch = MicroArch::AmdEpyc7252;
        let mut templates = Vec::new();
        for i in 0..apps.len() {
            let mut host = Host::new(arch, 2, derive_seed(seed, STREAM_HOST, i as u64));
            let vm = tally.op(
                "launch template vm",
                host.launch_vm(1, SevMode::SevSnp).map_err(Into::into),
            )?;
            templates.push((host, vm));
        }
        let cfg = pipeline_config(seed);
        // The timed calls share one ISA catalog per process; build it
        // here so they do not pay for it. Later set-ups find it built,
        // so each also builds a private copy: `setup_s` then always
        // includes one catalog build.
        IsaCatalog::shared(arch.vendor(), cfg.isa_seed);
        std::hint::black_box(IsaCatalog::synthetic(arch.vendor(), cfg.isa_seed));
        Ok(OfflinePlan {
            apps,
            templates,
            cfg,
            store: env.store.clone(),
        })
    }

    fn setup_plan_s(&self) -> f64 {
        0.0
    }

    fn setup_digest(&self) -> u64 {
        fingerprint(&(
            &self.cfg,
            self.apps
                .iter()
                .map(|a| a.name().to_string())
                .collect::<Vec<_>>(),
            self.templates
                .iter()
                .map(|(h, _)| h.clock_ns())
                .collect::<Vec<_>>(),
        ))
    }

    fn rep(&self, traced: bool, tally: &mut Tally) -> Result<Rep<Plans>, AegisError> {
        crate::wipe(&self.store)?;
        let mut counts = FuzzCounts::default();
        let since = obs::snapshot();
        let (cold, job_s) = self.plan_all(traced, &mut counts, tally)?;
        let job = Phase::end(&since);
        let store_bytes = crate::dir_bytes(&self.store);

        let since = obs::snapshot();
        let (warm, followup_s) = self.plan_all(traced, &mut FuzzCounts::default(), tally)?;
        let followup = Phase::end(&since);

        let mut layers = BTreeMap::new();
        if traced {
            for (metric, span) in [
                ("profiler.warmup_s", "profiler.warmup"),
                ("profiler.rank_s", "profiler.rank"),
                ("fuzzer.run_s", "fuzzer.run"),
                ("fuzzer.cover_s", "fuzzer.cover"),
                ("obfuscator.calibrate_s", "obfuscator.calibrate"),
            ] {
                layers.insert(metric, job.self_s(span));
            }
            layers.insert(
                "profiler.vulnerable_events",
                cold.iter()
                    .map(|p| p.vulnerable_events.len())
                    .sum::<usize>() as f64,
            );
            layers.insert("fuzzer.gadgets_tested", counts.tested as f64);
            layers.insert(
                "fuzzer.confirm_ratio",
                counts.confirmed as f64 / counts.tested.max(1) as f64,
            );
            layers.insert("store.misses", job.obs.counter("cache.miss"));
            layers.insert("store.hits", followup.obs.counter("cache.hit"));
            layers.insert("store.bytes", store_bytes as f64);
        }
        Ok(Rep {
            job_s,
            followup_s,
            output: Plans { cold, warm },
            layers,
            phases: vec![("job", job), ("followup", followup)],
        })
    }

    fn check(&self, out: &Plans, tally: &mut Tally) {
        tally.check(
            "offline-plan: the warm plans equal the cold plans",
            out.cold == out.warm,
        );
        tally.check(
            "offline-plan: every app gets a non-empty covering plan",
            out.cold
                .iter()
                .all(|p| !p.vulnerable_events.is_empty() && !p.covering.is_empty()),
        );
    }

    fn digest(&self, out: &Plans) -> String {
        let per_app: Vec<String> = self
            .apps
            .iter()
            .zip(&out.cold)
            .map(|(app, p)| {
                format!(
                    "{}: {} vulnerable, {} covering, plan {:016x}",
                    app.name(),
                    p.vulnerable_events.len(),
                    p.covering.len(),
                    fingerprint(p)
                )
            })
            .collect();
        per_app.join("; ")
    }
}
