//! Runs the benchmark binary on a seed other than the default, traced
//! (which also runs the untraced pass), and requires every check to
//! pass. Takes about a minute in an optimized build.

use std::process::Command;

#[test]
fn a_non_default_seed_passes_every_check() {
    for workload in ["offline-plan", "eps-sweep", "fleet-storm"] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "11",
                "--seconds",
                "1",
                "--trace",
                "1",
            ])
            .output()
            .expect("the benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{workload}: {stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
            "{workload}: {stdout}"
        );
    }
}
