//! The offline profile runs on a single-core replica and is memoized in
//! the artifact store: a cold plan, a warm plan and the plan of the
//! stages called directly on the full host are bit-identical; profiling
//! never advances the caller's host; the host fingerprint that keys the
//! store sees every piece of state that can change a profile; a torn or
//! corrupt stored profile is recomputed.
//!
//! `scripts/check.sh` re-runs this binary under `AEGIS_FAULTS=smoke`:
//! the hosts here take the ambient fault plan, so the replica carries
//! live fault streams and the store's torn-write site fires.

use aegis::fuzzer::{cluster_gadgets, covering_set, EventFuzzer, FuzzerConfig, GadgetStats};
use aegis::isa::IsaCatalog;
use aegis::microarch::{Core, InterferenceConfig, MicroArch};
use aegis::obfuscator::{GadgetStack, StackError};
use aegis::par::{derive_seed, ArtifactCache};
use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
use aegis::sev::{Host, PlanSource, SevMode, VmId};
use aegis::workloads::{CryptoApp, DnnZoo, KeystrokeApp, SecretApp, WebsiteCatalog};
use aegis::{profile_key, AegisConfig, AegisError, AegisPipeline, DefensePlan, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The store every test in this binary shares: one fresh directory per
/// process, installed as `AEGIS_CACHE_DIR` before any profile runs.
/// Tests use distinct hosts, so each one's first call is a cold miss.
fn store() -> &'static Path {
    static STORE: OnceLock<PathBuf> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("profile-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("AEGIS_CACHE_DIR", &dir);
        std::env::remove_var("AEGIS_NO_CACHE");
        dir
    })
}

/// Quick sizes. `abs_threshold` is the warm-up's count-change floor: a
/// high one keeps the ranking to a few counter groups.
fn quick_cfg(seed: u64, abs_threshold: f64) -> AegisConfig {
    AegisConfig {
        warmup: WarmupConfig {
            probe_ns: 1_000_000,
            passes: 1,
            abs_threshold,
            seed,
            ..WarmupConfig::default()
        },
        rank: RankConfig {
            reps_per_secret: 2,
            window_ns: 10_000_000,
            interval_ns: 5_000_000,
            seed,
        },
        fuzzer: FuzzerConfig {
            candidates_per_event: 30,
            confirm_reps: 4,
            seed,
            ..FuzzerConfig::default()
        },
        fuzz_top_events: 2,
        isa_seed: 7,
        ..AegisConfig::default()
    }
}

/// `plan` as text with its fuzzing wall-clock seconds zeroed. `Debug`
/// prints every `f64` in shortest round-trip form, so equal text means
/// equal bits.
fn bits(plan: &DefensePlan) -> String {
    let mut plan = plan.clone();
    let r = &mut plan.fuzz_report;
    r.cleanup_seconds = 0.0;
    r.generation_seconds = 0.0;
    r.confirmation_seconds = 0.0;
    r.filtering_seconds = 0.0;
    format!("{plan:?}")
}

/// A 3-core template: a bystander VM on core 0, and the profiled tenant
/// on vCPU 1 of a 2-vCPU VM (core 2).
fn template(arch: MicroArch, seed: u64) -> (Host, VmId) {
    let mut host = Host::new(arch, 3, seed);
    host.launch_vm(1, SevMode::SevSnp).unwrap();
    let vm = host.launch_vm(2, SevMode::SevSnp).unwrap();
    (host, vm)
}

/// A fork of `template` with the bystander running an app, so the
/// direct reference run ticks a busy neighbour core that the replica
/// never sees.
fn busy_fork(template: &Host, seed: u64) -> Host {
    let mut host = template.fork_detached();
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = KeystrokeApp::with_window(300_000_000).sample_plan(3, &mut rng);
    host.attach_app(VmId(0), 0, Box::new(PlanSource::new(plan)))
        .unwrap();
    host
}

/// The offline stages called one by one on the full host, with no store;
/// `bits` of the plan, or why no stack could be built.
fn direct_plan(
    host: &mut Host,
    vm: VmId,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
) -> Result<String, StackError> {
    let warmup = warmup_profile(host, vm, 1, app, &cfg.warmup).unwrap();
    let rankings = rank_events(host, vm, 1, app, &warmup.vulnerable, &cfg.rank).unwrap();
    let arch = host.arch();
    let isa = IsaCatalog::shared(arch.vendor(), cfg.isa_seed);
    let mut core = Core::new(arch, cfg.fuzzer.seed);
    core.set_interference(InterferenceConfig::isolated());
    let targets: Vec<_> = rankings
        .iter()
        .take(cfg.fuzz_top_events)
        .map(|r| r.event)
        .collect();
    let mut outcome = EventFuzzer::with_cache(cfg.fuzzer, ArtifactCache::disabled())
        .run(&isa, &mut core, &targets);
    let gadget_stats = GadgetStats::from_events(&outcome.per_event);
    cluster_gadgets(&mut outcome);
    let covering = covering_set(&outcome.per_event);
    core.reset_cache();
    let stack = GadgetStack::try_from_covering(&isa, &mut core, &covering)?;
    Ok(bits(&DefensePlan {
        template_arch: arch,
        vulnerable_events: warmup.vulnerable,
        rankings,
        covering,
        stack,
        fuzz_report: outcome.report,
        gadget_stats,
    }))
}

/// `bits` of an offline plan, or the typed refusal.
fn offline(
    host: &mut Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
) -> Result<String, StackError> {
    match AegisPipeline::offline(host, vm, vcpu, app, cfg) {
        Ok(plan) => {
            assert!(!plan.stack.is_empty(), "{}: a plan must inject", app.name());
            Ok(bits(&plan))
        }
        Err(AegisError::Uncoverable { reason, .. }) => Err(reason),
        Err(e) => panic!("{}: unexpected error {e}", app.name()),
    }
}

/// The four case-study apps, each with a warm-up floor that leaves it a
/// handful of vulnerable events at quick sizes.
fn apps(seed: u64) -> Vec<(Box<dyn SecretApp>, f64)> {
    vec![
        (Box::new(KeystrokeApp::with_window(300_000_000)), 2e4),
        (Box::new(WebsiteCatalog::new(seed)), 3e6),
        (Box::new(DnnZoo::new(seed)), 3e6),
        (Box::new(CryptoApp::with_window(3, 300_000_000)), 2e5),
    ]
}

/// Cold, warm and direct plans agree for every app on `arch`, and
/// neither offline call moves the host.
fn check_bit_identity(arch: MicroArch) {
    store();
    for (i, (app, floor)) in apps(5).iter().enumerate() {
        let seed = derive_seed(0xC01D, arch as u64, i as u64);
        let cfg = quick_cfg(seed, *floor);
        let (template, vm) = template(arch, seed);
        let before = template.state_fingerprint();

        let mut host = busy_fork(&template, seed);
        let cold = offline(&mut host, vm, 1, app.as_ref(), &cfg);
        let warm = offline(&mut host, vm, 1, app.as_ref(), &cfg);
        assert_eq!(
            host.state_fingerprint(),
            before,
            "offline advanced the host"
        );

        let direct = direct_plan(&mut busy_fork(&template, seed), vm, app.as_ref(), &cfg);
        let what = format!("{} on {}", app.name(), arch.name());
        assert_eq!(cold, warm, "cold vs warm: {what}");
        assert_eq!(cold, direct, "replica vs full host: {what}");
    }
}

#[test]
fn cold_warm_and_direct_plans_are_bit_identical_on_amd() {
    check_bit_identity(MicroArch::AmdEpyc7252);
}

#[test]
fn cold_warm_and_direct_plans_are_bit_identical_on_intel() {
    check_bit_identity(MicroArch::IntelXeonE5_1650);
}

#[test]
fn offline_leaves_the_template_untouched() {
    store();
    let cfg = quick_cfg(11, 2e4);
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 11);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    host.run(1_000_000, |_, _, _| {});
    let (fingerprint, clock) = (host.state_fingerprint(), host.clock_ns());
    let app = KeystrokeApp::with_window(300_000_000);
    AegisPipeline::offline(&mut host, vm, 0, &app, &cfg).unwrap();
    assert_eq!(host.state_fingerprint(), fingerprint);
    assert_eq!(host.clock_ns(), clock);
    // The key is a function of that state, so it is stable too.
    assert_eq!(
        profile_key(&host, vm, 0, &app, &cfg).unwrap(),
        profile_key(&host, vm, 0, &app, &cfg).unwrap()
    );
}

#[test]
fn fingerprint_tracks_every_input_of_a_profile() {
    let arch = MicroArch::AmdEpyc7252;
    let launched = |host: &mut Host| host.launch_vm(1, SevMode::SevSnp).unwrap();
    let mut base = Host::with_faults(arch, 2, 3, FaultPlan::none());
    let vm = launched(&mut base);
    let fp = base.state_fingerprint();

    // Fork twins hash equal, and so do their single-core replicas.
    let twin = base.fork_detached();
    assert_eq!(twin.state_fingerprint(), fp);
    assert_eq!(
        twin.fork_vcpu(vm, 0).unwrap().state_fingerprint(),
        base.fork_vcpu(vm, 0).unwrap().state_fingerprint()
    );

    // One tick moves it.
    let mut ticked = base.fork_detached();
    ticked.tick(|_, _, _| {});
    assert_ne!(ticked.state_fingerprint(), fp, "one tick");

    // Another seed.
    let mut reseeded = Host::with_faults(arch, 2, 4, FaultPlan::none());
    launched(&mut reseeded);
    assert_ne!(reseeded.state_fingerprint(), fp, "another seed");

    // Another fault plan, even one whose rates are all zero but its seed.
    for plan in [FaultPlan::smoke(), FaultPlan::none().with_seed(9)] {
        let mut faulted = Host::with_faults(arch, 2, 3, plan);
        launched(&mut faulted);
        assert_ne!(faulted.state_fingerprint(), fp, "fault plan {plan:?}");
    }

    // Another VM id for the same core: the replicas differ only there.
    let mut shifted = Host::with_faults(arch, 2, 3, FaultPlan::none());
    shifted.launch_vm_pinned(&[1], SevMode::SevSnp).unwrap();
    let vm1 = shifted.launch_vm_pinned(&[0], SevMode::SevSnp).unwrap();
    assert_ne!(vm1, vm);
    assert_ne!(
        shifted.fork_vcpu(vm1, 0).unwrap().state_fingerprint(),
        base.fork_vcpu(vm, 0).unwrap().state_fingerprint(),
        "another VM id"
    );
}

#[test]
fn torn_and_corrupt_profiles_are_recomputed_bit_identically() {
    let store = store();
    let cfg = quick_cfg(23, 2e4);
    let app = KeystrokeApp::with_window(300_000_000);
    let (template, vm) = template(MicroArch::AmdEpyc7252, 23);
    let key = profile_key(&template, vm, 1, &app, &cfg).unwrap();
    let path = ArtifactCache::new(store).col_path(&key);
    let offline = || {
        let mut host = template.fork_detached();
        bits(&AegisPipeline::offline(&mut host, vm, 1, &app, &cfg).unwrap())
    };

    let cold = offline();
    let stored = std::fs::read(&path).expect("the cold run stores its profile");

    // Torn: half the bytes at the final path.
    std::fs::write(&path, &stored[..stored.len() / 2]).unwrap();
    assert_eq!(offline(), cold, "torn artifact");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        stored,
        "torn artifact healed"
    );

    // Corrupt: one flipped bit inside a column page.
    let mut flipped = stored.clone();
    let at = flipped.len() - 9;
    flipped[at] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    assert_eq!(offline(), cold, "corrupt artifact");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        stored,
        "corrupt artifact healed"
    );

    // A warm run is served from the store: a valid profile of another
    // app planted at this key is what the next plan is built from.
    let other = CryptoApp::with_window(3, 300_000_000);
    let mut host = template.fork_detached();
    AegisPipeline::offline(&mut host, vm, 1, &other, &cfg).unwrap();
    let other_path =
        ArtifactCache::new(store).col_path(&profile_key(&template, vm, 1, &other, &cfg).unwrap());
    std::fs::copy(&other_path, &path).unwrap();
    let planted = AegisPipeline::offline(&mut template.fork_detached(), vm, 1, &app, &cfg).unwrap();
    let reference =
        AegisPipeline::offline(&mut template.fork_detached(), vm, 1, &other, &cfg).unwrap();
    assert_eq!(planted.rankings, reference.rankings);
}
