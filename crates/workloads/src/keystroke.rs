//! Keystroke workloads for the keystroke sniffing case study.
//!
//! The paper simulates `K ∈ [0, 9]` keystrokes (via `xdotool`) inside a
//! 3-second window; the attacker predicts `K` from the HPC trace. Each
//! keystroke is a short burst of interrupt/input-processing activity on
//! top of a light desktop background.

use crate::app::SecretApp;
use crate::mix::{idle_rate, MixSpec};
use crate::plan::{Segment, WorkloadPlan};
use rand::rngs::StdRng;
use rand::Rng;

/// Largest keystroke count (`K ∈ [0, MAX_KEYSTROKES]`).
pub const MAX_KEYSTROKES: usize = 9;

/// Duration of one keypress processing burst.
const BURST_NS: u64 = 20_000_000; // 20 ms

/// Keystroke sessions: the secret is the number of keystrokes in the
/// window.
///
/// # Example
///
/// ```
/// use aegis_workloads::{KeystrokeApp, SecretApp};
/// use rand::SeedableRng;
///
/// let app = KeystrokeApp::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let plan = app.sample_plan(4, &mut rng); // four keystrokes
/// assert_eq!(plan.duration_ns(), app.window_ns());
/// ```
#[derive(Debug, Clone)]
pub struct KeystrokeApp {
    window_ns: u64,
}

impl KeystrokeApp {
    /// Creates the app with the paper's 3-second window.
    pub fn new() -> Self {
        Self::with_window(3_000_000_000)
    }

    /// Creates the app with a custom window (must fit all bursts).
    ///
    /// # Panics
    ///
    /// Panics if the window cannot hold [`MAX_KEYSTROKES`] + 1 bursts.
    pub fn with_window(window_ns: u64) -> Self {
        assert!(
            window_ns / BURST_NS > MAX_KEYSTROKES as u64,
            "window too small for {MAX_KEYSTROKES} keystrokes"
        );
        KeystrokeApp { window_ns }
    }

    fn burst_mix(rng: &mut StdRng) -> MixSpec {
        MixSpec {
            uops_per_us: rng.gen_range(380.0..520.0),
            load_frac: 0.3,
            store_frac: 0.15,
            l1_miss_rate: 0.08,
            l2_miss_rate: 0.4,
            llc_miss_rate: 0.35,
            branch_frac: 0.2,
            branch_miss_rate: 0.07,
            simd_frac: 0.05,
            fp_frac: 0.0,
            syscalls_per_us: 0.3,
            page_faults_per_us: 0.002,
        }
    }
}

impl Default for KeystrokeApp {
    fn default() -> Self {
        Self::new()
    }
}

impl SecretApp for KeystrokeApp {
    fn name(&self) -> &str {
        "keystroke-sniffing"
    }

    fn n_secrets(&self) -> usize {
        MAX_KEYSTROKES + 1
    }

    fn secret_name(&self, idx: usize) -> String {
        format!("{idx} keystrokes")
    }

    fn window_ns(&self) -> u64 {
        self.window_ns
    }

    fn fingerprint(&self) -> u64 {
        crate::app_fingerprint(self.name(), &[self.window_ns])
    }

    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan {
        assert!(secret <= MAX_KEYSTROKES, "keystroke count out of range");
        // Pick distinct, non-overlapping press times.
        let slots = (self.window_ns / BURST_NS) as usize; // 150 slots
        let mut chosen: Vec<usize> = Vec::with_capacity(secret);
        while chosen.len() < secret {
            let s = rng.gen_range(0..slots);
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }
        chosen.sort_unstable();

        let mut plan = WorkloadPlan::new();
        let mut cursor_ns = 0u64;
        for slot in chosen {
            let press_at = slot as u64 * BURST_NS;
            if press_at > cursor_ns {
                plan.push(Segment::new(press_at - cursor_ns, idle_rate()));
            }
            plan.push(Segment::new(BURST_NS, Self::burst_mix(rng).build()));
            cursor_ns = press_at + BURST_NS;
        }
        plan.pad_to(self.window_ns, idle_rate());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::Feature;
    use rand::SeedableRng;

    #[test]
    fn ten_secret_classes() {
        let app = KeystrokeApp::new();
        assert_eq!(app.n_secrets(), 10);
        assert_eq!(app.secret_name(3), "3 keystrokes");
    }

    #[test]
    fn zero_keystrokes_is_pure_idle() {
        let app = KeystrokeApp::new();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = app.sample_plan(0, &mut rng);
        assert_eq!(plan.segments.len(), 1);
        assert!(plan.segments[0].rate[Feature::UopsRetired] < 10.0);
    }

    #[test]
    fn burst_count_matches_secret() {
        let app = KeystrokeApp::new();
        let mut rng = StdRng::seed_from_u64(4);
        for k in 0..=MAX_KEYSTROKES {
            let plan = app.sample_plan(k, &mut rng);
            let bursts = plan
                .segments
                .iter()
                .filter(|s| s.rate[Feature::UopsRetired] > 100.0)
                .count();
            assert_eq!(bursts, k, "k={k}");
            assert_eq!(plan.duration_ns(), app.window_ns());
        }
    }

    #[test]
    fn total_uops_increase_with_keystrokes() {
        let app = KeystrokeApp::new();
        let mut rng = StdRng::seed_from_u64(8);
        let low = app.sample_plan(1, &mut rng).total_uops();
        let high = app.sample_plan(9, &mut rng).total_uops();
        assert!(high > low * 3.0, "low {low} high {high}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_count() {
        let app = KeystrokeApp::new();
        let mut rng = StdRng::seed_from_u64(1);
        app.sample_plan(10, &mut rng);
    }
}
