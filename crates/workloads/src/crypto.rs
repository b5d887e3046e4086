//! Cryptographic-key workload — the paper's future-work case study
//! ("investigate the effectiveness of Aegis on more fine-grained attacks,
//! e.g., stealing cryptographic keys").
//!
//! Models a textbook square-and-multiply modular exponentiation: for each
//! key bit (MSB first) the implementation *squares*; for a 1-bit it also
//! *multiplies*. Squaring and multiplication have distinguishable
//! micro-architectural mixes, so the per-bit operation sequence leaks the
//! key through HPC traces at millisecond granularity — a much finer
//! leakage pattern than website loads, which is exactly why the paper
//! defers it as the stress test for the defense.

use crate::app::SecretApp;
use crate::mix::{idle_rate, MixSpec};
use crate::plan::{Segment, WorkloadPlan};
use aegis_microarch::rand_util::normal;
use rand::rngs::StdRng;

/// Duration of one modular squaring, nanoseconds.
const SQUARE_NS: u64 = 8_000_000;
/// Duration of one modular multiplication, nanoseconds.
const MULTIPLY_NS: u64 = 8_000_000;
/// Idle gap between exponentiation runs.
const GAP_NS: u64 = 10_000_000;

/// A private-key exponentiation service: the secret is the key itself.
///
/// # Example
///
/// ```
/// use aegis_workloads::{CryptoApp, SecretApp};
///
/// let app = CryptoApp::new(4); // 4-bit keys → 16 secrets
/// assert_eq!(app.n_secrets(), 16);
/// assert_eq!(app.secret_name(0b1010), "key 1010");
/// ```
#[derive(Debug, Clone)]
pub struct CryptoApp {
    key_bits: usize,
    window_ns: u64,
}

impl CryptoApp {
    /// Creates the app with `key_bits`-bit keys (2^bits secrets).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= key_bits <= 16`.
    pub fn new(key_bits: usize) -> Self {
        assert!((1..=16).contains(&key_bits), "key_bits must be in 1..=16");
        CryptoApp {
            key_bits,
            window_ns: 3_000_000_000,
        }
    }

    /// Creates the app with a custom monitoring window.
    ///
    /// # Panics
    ///
    /// Panics unless the window holds at least one full exponentiation.
    pub fn with_window(key_bits: usize, window_ns: u64) -> Self {
        let mut app = Self::new(key_bits);
        let one_exp = key_bits as u64 * (SQUARE_NS + MULTIPLY_NS) + GAP_NS;
        assert!(
            window_ns >= one_exp,
            "window must hold one exponentiation ({one_exp} ns)"
        );
        app.window_ns = window_ns;
        app
    }

    /// Number of key bits.
    pub fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn square_mix(rng: &mut StdRng) -> MixSpec {
        MixSpec {
            uops_per_us: 1_800.0 * normal(rng, 1.0, 0.03).clamp(0.85, 1.15),
            load_frac: 0.30,
            store_frac: 0.12,
            l1_miss_rate: 0.03,
            l2_miss_rate: 0.4,
            llc_miss_rate: 0.3,
            branch_frac: 0.10,
            branch_miss_rate: 0.02,
            simd_frac: 0.0,
            fp_frac: 0.0,
            syscalls_per_us: 0.0001,
            page_faults_per_us: 0.0,
        }
    }

    fn multiply_mix(rng: &mut StdRng) -> MixSpec {
        MixSpec {
            // Multiplication touches the second operand: more loads,
            // more misses, slightly hotter.
            uops_per_us: 2_300.0 * normal(rng, 1.0, 0.03).clamp(0.85, 1.15),
            load_frac: 0.42,
            store_frac: 0.15,
            l1_miss_rate: 0.10,
            l2_miss_rate: 0.5,
            llc_miss_rate: 0.5,
            branch_frac: 0.12,
            branch_miss_rate: 0.03,
            simd_frac: 0.0,
            fp_frac: 0.0,
            syscalls_per_us: 0.0001,
            page_faults_per_us: 0.0,
        }
    }
}

impl SecretApp for CryptoApp {
    fn name(&self) -> &str {
        "crypto-key-extraction"
    }

    fn n_secrets(&self) -> usize {
        1 << self.key_bits
    }

    fn secret_name(&self, idx: usize) -> String {
        format!("key {idx:0width$b}", width = self.key_bits)
    }

    fn window_ns(&self) -> u64 {
        self.window_ns
    }

    fn fingerprint(&self) -> u64 {
        crate::app_fingerprint(self.name(), &[self.key_bits as u64, self.window_ns])
    }

    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan {
        assert!(secret < self.n_secrets(), "key out of range");
        let mut plan = WorkloadPlan::new();
        // Repeat the exponentiation until the window is full, like a busy
        // signing service handling back-to-back requests.
        while plan.duration_ns() < self.window_ns {
            for bit in (0..self.key_bits).rev() {
                let dur = (SQUARE_NS as f64 * normal(rng, 1.0, 0.04).clamp(0.8, 1.2)) as u64;
                plan.push(Segment::new(dur, Self::square_mix(rng).build()));
                if secret >> bit & 1 == 1 {
                    let dur = (MULTIPLY_NS as f64 * normal(rng, 1.0, 0.04).clamp(0.8, 1.2)) as u64;
                    plan.push(Segment::new(dur, Self::multiply_mix(rng).build()));
                }
            }
            plan.push(Segment::new(GAP_NS, idle_rate()));
        }
        plan.truncate_to(self.window_ns);
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
    fn secret_space_and_names() {
        let app = CryptoApp::new(4);
        assert_eq!(app.n_secrets(), 16);
        assert_eq!(app.secret_name(0), "key 0000");
        assert_eq!(app.secret_name(15), "key 1111");
    }

    #[test]
    fn plans_fill_the_window() {
        let app = CryptoApp::with_window(4, 400_000_000);
        let mut rng = StdRng::seed_from_u64(1);
        for key in [0usize, 7, 15] {
            let plan = app.sample_plan(key, &mut rng);
            assert_eq!(plan.duration_ns(), app.window_ns());
        }
    }

    #[test]
    fn hamming_weight_shows_in_total_work() {
        // Each 1-bit adds a multiplication, so total µops grow with the
        // key's Hamming weight — the coarse leakage.
        let app = CryptoApp::with_window(4, 400_000_000);
        let mut rng = StdRng::seed_from_u64(2);
        let light = app.sample_plan(0b0000, &mut rng).total_uops();
        let heavy = app.sample_plan(0b1111, &mut rng).total_uops();
        assert!(heavy > light * 1.1, "light {light} heavy {heavy}");
    }

    #[test]
    fn multiply_bursts_follow_one_bits() {
        let app = CryptoApp::with_window(4, 400_000_000);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = app.sample_plan(0b1010, &mut rng);
        // First exponentiation: square(+mul), square, square(+mul), square.
        let busy: Vec<bool> = plan
            .segments
            .iter()
            .take(6)
            .map(|s| s.rate[Feature::UopsRetired] > 2_000.0)
            .collect();
        // Segments: S M S S M S → multiply bursts at positions 1 and 4.
        assert_eq!(busy, vec![false, true, false, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn rejects_out_of_range_key() {
        let app = CryptoApp::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        app.sample_plan(4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "window must hold")]
    fn rejects_tiny_window() {
        CryptoApp::with_window(8, 1_000_000);
    }
}
