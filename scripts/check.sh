#!/usr/bin/env sh
# Tier-1 verification in one command: release build, full test suite,
# and lint-clean clippy. Run from the repository root:
#
#   ./scripts/check.sh
#
# This is what the verify workflow runs; keep it fast and deterministic.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== fault matrix (AEGIS_FAULTS=smoke) =="
# The cross-crate fault-injection properties re-run under the moderate
# every-site smoke plan: supervised recovery paths (watchdog latching,
# slot re-programming, torn-artifact recompute) stay green with faults
# actually firing. Only this test binary runs under the smoke plan —
# unit suites always see the ambient (fault-free) environment.
AEGIS_FAULTS=smoke cargo test -q --test fault_injection

echo "== service matrix (AEGIS_FAULTS=smoke) =="
# The supervised service-plane properties (watchdog restart recovery,
# gapless hot reload, ε-ledger fail-closed exhaustion, cross-lifetime
# ledger persistence) re-run under the smoke plan so the service.* fault
# sites (health-flap, torn reload, ledger corruption) actually fire.
AEGIS_FAULTS=smoke cargo test -q --test service_plane

echo "== store matrix (AEGIS_FAULTS=smoke) =="
# The artifact-store contract suite re-runs under the smoke plan so the
# cache torn-write site actually fires on the populate step of the
# smoke sequence (populate → corrupt one page → heal → gc →
# bit-identical re-read), alongside the pinned binary layout, legacy
# JSON migration, fail-closed manifest, and GC-safety properties.
AEGIS_FAULTS=smoke cargo test -q --test store_format

echo "== fleet matrix (AEGIS_FAULTS=smoke) =="
# The fleet-plane contracts (seeded chaos storms with fail-closed
# evacuation, clean-twin bit-equality of crashed and surviving hosts,
# ε-ledger carry and quarantine across hosts, storm-schedule replay at
# any worker count, checkpoint-resume of the policy × storm-seed sweep)
# re-run under the smoke plan. Fleets pass explicit FaultPlans into
# every host and sweep cell, so only the ArtifactCache checkpoint loops
# see the ambient plan: the simulated physics must not move.
AEGIS_FAULTS=smoke cargo test -q --test fleet_plane

echo "== profile matrix (AEGIS_FAULTS=smoke) =="
# The offline-profile contracts (cold == warm == the stages run on the
# full host, the caller's host never advanced, the host fingerprint
# that keys the store, torn/corrupt profile artifacts recomputed) re-run
# under the smoke plan: the single-core replica carries live fault
# streams and the store's torn-write site fires.
AEGIS_FAULTS=smoke cargo test -q --test profile_cache

echo "== deprecation lint (examples) =="
# Examples must stay on the current API surface: nothing we present as
# a usage model may lean on deprecated items. (The old collect_dataset /
# collect_mea_runs compatibility wrappers are gone entirely.)
cargo clippy --examples -- -D deprecated

echo "== bench smoke (AEGIS_BENCH_SMOKE=1) =="
# One iteration per bench workload, no criterion sampling: proves every
# bench harness still compiles and runs end to end without burning
# minutes. Does not rewrite the checked-in BENCH_*.json numbers. The
# canonical bench list is the [[bench]] section of the root Cargo.toml;
# --benches runs all of it.
AEGIS_BENCH_SMOKE=1 cargo bench -p aegis-suite --benches

echo "== bench baseline diff =="
# The smoke pass above never rewrites BENCH_*.json, so this compares
# whatever numbers the working tree carries (freshly regenerated or
# untouched) against the committed baselines and fails on any gated
# throughput/speedup metric regressing more than 20%. Raw *_ns medians
# are informational only; see scripts/bench_diff.sh.
./scripts/bench_diff.sh

echo "== end-to-end benchmark (output checks only) =="
# Every e2ebench workload once, briefly. Only the output checks gate
# (warm == cold, traced == untraced, plans cover, storms evacuate,
# Packed leaks while isolating policies sit at chance, tracked files
# untouched): the last line must report "correct": true and
# "failed": 0. Wall times are not gated here — they drift too much on
# a shared VM; BENCHMARK.json carries the time bounds.
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
for workload in offline-plan eps-sweep fleet-storm; do
    last=$(cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 --seed 11 | tail -n 1)
    echo "$workload: $last"
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "e2ebench $workload failed its output checks" >&2
            exit 1
            ;;
    esac
done

echo "check.sh: all green"
