//! End-to-end benchmark of the Aegis workflows.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline-plan --seed 7 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload (see `e2ebench/README.md` for why each
//! exists): it pins every ambient knob, sets the workload up several
//! times, then repeats the workload's timed job for `--seconds` of wall
//! time as a closed loop (each repetition starts when the previous one
//! has finished). Every output is checked; the last line of standard
//! output is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a separate traced pass (`--trace 1`).

mod checks;
mod eps_sweep;
mod fleet_storm;
mod offline_plan;
mod trace;

use aegis::obs::{self, ObsLevel, Snapshot};
use aegis::{AegisConfig, AegisError, FaultPlan};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// A run sets the workload up at least `SETUP_REPS` times and for at
/// least `SETUP_MIN_S` seconds; `setup_s` is the median set-up.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 3.0;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["offline-plan", "eps-sweep", "fleet-storm"];

/// End-to-end metrics (`--trace 0`), with their units. `job_s` and
/// `followup_s` are the two timed phases of every workload; what each
/// phase is depends on the workload (see the README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("followup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units. A layer a workload
/// does not exercise in its timed phases reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("setup.plan_s", "s"),
    ("profiler.warmup_s", "s"),
    ("profiler.rank_s", "s"),
    ("profiler.vulnerable_events", "count"),
    ("fuzzer.run_s", "s"),
    ("fuzzer.gadgets_tested", "count"),
    ("fuzzer.confirm_ratio", "ratio"),
    ("fuzzer.cover_s", "s"),
    ("obfuscator.calibrate_s", "s"),
    ("collect.clean_s", "s"),
    ("collect.defended_traces", "count"),
    ("collect.defended_traces_per_s", "1/s"),
    ("attack.train_s", "s"),
    ("sweep.classification_s", "s"),
    ("sweep.mea_s", "s"),
    ("store.misses", "count"),
    ("store.hits", "count"),
    ("store.bytes", "bytes"),
    ("store.warm_read_s", "s"),
    ("fleet.deploy_s", "s"),
    ("fleet.storm_s", "s"),
    ("fleet.shutdown_s", "s"),
    ("fleet.sim_ns_per_s", "ns/s"),
    ("fleet.evacuations", "count"),
    ("fleet.stranded", "count"),
    ("fleet.quarantined", "count"),
    ("xt.smt-off_s", "s"),
    ("xt.core-pair-exclusive_s", "s"),
    ("xt.packed_s", "s"),
    ("xt.spread_s", "s"),
    ("xt.defended_s", "s"),
    ("collect.busy_s", "s"),
    ("attack.train_busy_s", "s"),
    ("par.worker_idle_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// Operations attempted and failed, and which checks failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one fallible library call.
    pub fn op<T>(&mut self, what: &str, result: Result<T, AegisError>) -> Result<T, AegisError> {
        self.attempted += 1;
        if let Err(e) = &result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
        result
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }
}

/// Benchmark spans and obs counters of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub spans: BTreeMap<&'static str, trace::Totals>,
    pub obs: Snapshot,
}

impl Phase {
    /// Ends a phase that began when `since` was taken.
    pub fn end(since: &Snapshot) -> Phase {
        Phase {
            spans: trace::drain(),
            obs: obs::snapshot().since(since),
        }
    }

    /// Self seconds of the benchmark span `name` (0 when absent).
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |t| t.self_s)
    }

    /// Seconds the library's own obs span `name` was open, summed over
    /// every thread that opened it (0 when absent).
    pub fn obs_span_s(&self, name: &str) -> f64 {
        self.obs.span_seconds(name).unwrap_or(0.0)
    }
}

/// One timed repetition of a workload.
pub struct Rep<O> {
    pub job_s: f64,
    pub followup_s: f64,
    pub output: O,
    /// Per-layer values; filled by traced repetitions only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Phase label and spans, for the printed per-layer table.
    pub phases: Vec<(&'static str, Phase)>,
}

/// A benchmark workload: set up once, then timed repetitions.
pub trait Workload: Sized {
    /// What a repetition produces; compared across repetitions and
    /// between traced and untraced passes.
    type Output: PartialEq;

    /// Builds the inputs. `setup_plan_s` is the part spent building
    /// defense plans.
    fn setup(seed: u64, env: &Env, tally: &mut Tally) -> Result<Self, AegisError>;

    /// Wall seconds of the setup spent building defense plans.
    fn setup_plan_s(&self) -> f64;

    /// A digest of the set-up inputs: equal set-ups give equal digests.
    fn setup_digest(&self) -> u64;

    /// Runs one timed repetition (with per-layer detail when `traced`).
    fn rep(&self, traced: bool, tally: &mut Tally) -> Result<Rep<Self::Output>, AegisError>;

    /// Checks one repetition's output on its own.
    fn check(&self, out: &Self::Output, tally: &mut Tally);

    /// A short digest line of the output.
    fn digest(&self, out: &Self::Output) -> String;
}

/// The benchmark's private directories and pinned settings.
pub struct Env {
    /// Root of the private tree; removed when the run ends.
    pub root: PathBuf,
    /// The artifact store (`AEGIS_CACHE_DIR`).
    pub store: PathBuf,
    /// The fleet's ε-ledger directory.
    pub ledger: PathBuf,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removed only when no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Empties `dir` (the store or ledger) so the next phase starts cold.
pub fn wipe(dir: &Path) -> Result<(), AegisError> {
    let io = |source| AegisError::Io {
        context: format!("emptying {}", dir.display()),
        source,
    };
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
        _ => {}
    }
    std::fs::create_dir_all(dir).map_err(io)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Sets the obs level and the benchmark's own span recording together.
pub fn set_tracing(on: bool) {
    obs::set_level(Some(if on { ObsLevel::Summary } else { ObsLevel::Off }));
    trace::set_recording(on);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => out.workload = value.to_string(),
            "--workload" => return Err(format!("unknown workload {value:?} ({WORKLOADS:?})")),
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(out)
}

/// Pins every ambient knob the library reads, so the run depends only
/// on its arguments: worker threads, obs level, fault plan, the artifact
/// store location, and whether the store is enabled.
fn pin_environment(threads: usize) -> Result<Env, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let root = cwd
        .join(".bench_tmp")
        .join(format!("run-{}-{stamp}", std::process::id()));
    let env = Env {
        store: root.join("store"),
        ledger: root.join("ledger"),
        root,
    };
    std::fs::create_dir_all(&env.store).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&env.ledger).map_err(|e| e.to_string())?;
    // Set before any worker thread exists. `EventFuzzer::new` reads the
    // store location from `AEGIS_CACHE_DIR`.
    std::env::set_var("AEGIS_CACHE_DIR", &env.store);
    std::env::remove_var("AEGIS_NO_CACHE");
    AegisConfig::builder()
        .threads(threads)
        .obs(ObsLevel::Off)
        .faults(FaultPlan::none())
        .build()
        .map_err(|e| e.to_string())?
        .apply_runtime();
    trace::set_recording(false);
    Ok(env)
}

/// Size and modification time of every file a run must leave alone:
/// the tracked `results/*.json`, `BENCH_*.json`, and `results/cache/`.
fn tracked_files(root: &Path) -> Vec<(PathBuf, u64, Option<std::time::SystemTime>)> {
    let mut out = Vec::new();
    let mut visit = |dir: &Path, keep: &dyn Fn(&str) -> bool| {
        for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Ok(m) = e.metadata() {
                if m.is_file() && keep(&name) {
                    out.push((e.path(), m.len(), m.modified().ok()));
                }
            }
        }
    };
    visit(root, &|n| n.starts_with("BENCH_") && n.ends_with(".json"));
    visit(&root.join("results"), &|n| n.ends_with(".json"));
    visit(&root.join("results").join("cache"), &|_| true);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// `VmHWM` (peak resident set) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the sources came from, read from `.git` without running
/// git; `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The repetitions of a loop and the peak RSS (MB) after its first one.
type RepsAndRss<O> = (Vec<Rep<O>>, f64);

/// Repeats `rep` as a closed loop for about `budget_s` of wall time: a
/// new repetition starts only if the previous one's duration still fits.
/// Also returns the peak RSS after the first repetition: taken after the
/// whole loop, it would also depend on how many repetitions fit and on
/// allocator reuse across them.
fn repeat<W: Workload>(
    w: &W,
    traced: bool,
    budget_s: f64,
    tally: &mut Tally,
) -> Result<RepsAndRss<W::Output>, AegisError> {
    set_tracing(traced);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss = 0.0;
    let mut last_s = 0.0;
    while reps.is_empty() || start.elapsed().as_secs_f64() + last_s <= budget_s {
        let t = Instant::now();
        let rep = w.rep(traced, tally);
        last_s = t.elapsed().as_secs_f64();
        reps.push(rep?);
        if reps.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    set_tracing(false);
    Ok((reps, peak_rss))
}

struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

fn run<W: Workload>(args: &Args, env: &Env, tally: &mut Tally) -> Result<Outcome, AegisError> {
    let mut lines = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_plan_s = Vec::new();
    let mut digests = Vec::new();
    let started = Instant::now();
    let w = loop {
        let t = Instant::now();
        let w = W::setup(args.seed, env, tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_plan_s.push(w.setup_plan_s());
        digests.push(w.setup_digest());
        if setup_s.len() >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break w;
        }
    };
    tally.check(
        "every set-up builds the same inputs",
        digests.iter().all(|&d| d == digests[0]),
    );
    let setup_plan_s = median(&setup_plan_s);

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (plain, peak_rss) = repeat(&w, false, untraced_budget, tally)?;
    let first = &plain[0].output;
    w.check(first, tally);
    tally.check(
        "every repetition gives the same outputs",
        plain.iter().all(|r| r.output == *first),
    );
    lines.push(format!("digest {}: {}", args.workload, w.digest(first)));
    let list = |f: fn(&Rep<W::Output>) -> f64| {
        let v: Vec<String> = plain.iter().map(|r| format!("{:.4}", f(r))).collect();
        v.join(" ")
    };
    lines.push(format!(
        "samples setup_s [{}] job_s [{}] followup_s [{}]",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        list(|r| r.job_s),
        list(|r| r.followup_s),
    ));
    let job = median(&plain.iter().map(|r| r.job_s).collect::<Vec<_>>());
    let followup = median(&plain.iter().map(|r| r.followup_s).collect::<Vec<_>>());

    if !args.trace {
        let values = [median(&setup_s), job, followup, peak_rss];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        return Ok(Outcome { metrics, lines });
    }

    let (traced, _) = repeat(&w, true, args.seconds / 2.0, tally)?;
    tally.check(
        "traced outputs equal untraced outputs",
        traced.iter().all(|r| r.output == *first),
    );
    let traced_total = median(
        &traced
            .iter()
            .map(|r| r.job_s + r.followup_s)
            .collect::<Vec<_>>(),
    );
    let plain_total = median(
        &plain
            .iter()
            .map(|r| r.job_s + r.followup_s)
            .collect::<Vec<_>>(),
    );
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "setup.plan_s" => setup_plan_s,
            "obs.overhead_frac" => traced_total / plain_total - 1.0,
            _ => median(
                &traced
                    .iter()
                    .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        };
        metrics.push((name, value, unit));
    }
    // The per-layer table of the first traced repetition.
    lines.push(format!(
        "{:<10} {:<28} {:>6} {:>10} {:>10}",
        "phase", "span", "calls", "total_s", "self_s"
    ));
    for (phase, p) in &traced[0].phases {
        for (name, t) in &p.spans {
            lines.push(format!(
                "{:<10} {:<28} {:>6} {:>10.4} {:>10.4}",
                phase, name, t.calls, t.total_s, t.self_s
            ));
        }
    }
    Ok(Outcome { metrics, lines })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = match pin_environment(nproc) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("e2ebench: cannot prepare the private store: {e}");
            std::process::exit(1);
        }
    };
    let before = tracked_files(&cwd);

    let mut tally = Tally::default();
    let outcome = match args.workload.as_str() {
        "offline-plan" => run::<offline_plan::OfflinePlan>(&args, &env, &mut tally),
        "eps-sweep" => run::<eps_sweep::EpsSweep>(&args, &env, &mut tally),
        _ => run::<fleet_storm::FleetStorm>(&args, &env, &mut tally),
    };
    tally.check(
        "tracked results/*.json, BENCH_*.json and results/cache/ are untouched",
        tracked_files(&cwd) == before,
    );
    drop(env);

    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            for f in &tally.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for f in &tally.failures {
        println!("FAIL {f}");
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "env workload={} seed={} nproc={nproc} threads={} git_rev={} trace={} error_rate={error_rate}",
        args.workload,
        args.seed,
        aegis::par::get_threads(),
        git_rev(&cwd),
        u8::from(args.trace),
    );
    let mut fields = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
        // Rust prints finite f64 without an exponent: valid JSON.
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(file: &Value, key: &str) -> Vec<String> {
        file[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m["name"].as_str().expect("a name").to_string())
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let ours = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(
            names(&file, "workloads"),
            WORKLOADS.map(String::from).to_vec()
        );
        assert_eq!(names(&file, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names(&file, "per_layer"), ours(&PER_LAYER));
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        assert!(!valid_name("job s") && !valid_name(""));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload eps-sweep --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload eps-sweep --seconds 0",
            "--workload eps-sweep --trace 2",
            "--workload eps-sweep --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
