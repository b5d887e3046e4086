//! The [`SecretApp`] abstraction: an application executing one of a set of
//! customer-specified secrets.

use crate::plan::WorkloadPlan;
use aegis_microarch::StateHasher;
use rand::rngs::StdRng;

/// An application parameterized by a secret, as in the paper's attack
/// abstraction: the victim runs the app with secret `y ∈ Y`, and the HPC
/// leakage trace `x ∈ X` is what the attacker observes.
///
/// Implemented by the three case studies: [`WebsiteCatalog`] (45 sites),
/// [`KeystrokeApp`] (0–9 keystrokes), and [`DnnZoo`] (30 models).
///
/// [`WebsiteCatalog`]: crate::WebsiteCatalog
/// [`KeystrokeApp`]: crate::KeystrokeApp
/// [`DnnZoo`]: crate::DnnZoo
pub trait SecretApp: Send + Sync {
    /// Human-readable application name.
    fn name(&self) -> &str;

    /// Number of distinct secrets.
    fn n_secrets(&self) -> usize;

    /// Human-readable name of one secret.
    ///
    /// # Panics
    ///
    /// May panic if `idx >= self.n_secrets()`.
    fn secret_name(&self, idx: usize) -> String;

    /// Length of one monitored execution window (3 s in the paper).
    fn window_ns(&self) -> u64;

    /// Samples one execution of the app with the given secret. Every call
    /// draws fresh within-class jitter from `rng`; plans span exactly
    /// [`SecretApp::window_ns`].
    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan;

    /// A fingerprint of everything that determines the app's behaviour:
    /// its kind and every constructor parameter (seed, window, key
    /// bits, ...). Two apps with equal fingerprints sample identical
    /// plans from identical RNG states, so cache keys over collected
    /// traces or profiles identify an app by this value — never by
    /// [`SecretApp::name`] and [`SecretApp::n_secrets`] alone, which
    /// differently seeded catalogs share.
    fn fingerprint(&self) -> u64;
}

/// Fingerprints an app from its name and constructor parameters — the
/// building block of every [`SecretApp::fingerprint`] implementation.
pub fn app_fingerprint(name: &str, params: &[u64]) -> u64 {
    let mut h = StateHasher::new();
    h.str(name);
    h.usize(params.len());
    for &p in params {
        h.u64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CryptoApp, DnnZoo, KeystrokeApp, WebsiteCatalog};
    use rand::SeedableRng;

    fn check_app(app: &dyn SecretApp) {
        assert!(app.n_secrets() > 1);
        assert!(!app.name().is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        for s in [0, app.n_secrets() - 1] {
            let plan = app.sample_plan(s, &mut rng);
            assert_eq!(plan.duration_ns(), app.window_ns(), "{} s={s}", app.name());
            assert!(!app.secret_name(s).is_empty());
        }
    }

    #[test]
    fn all_three_case_studies_satisfy_the_contract() {
        check_app(&WebsiteCatalog::new(7));
        check_app(&KeystrokeApp::new());
        check_app(&DnnZoo::new(7));
    }

    #[test]
    fn fingerprints_cover_every_constructor_parameter() {
        let apps: Vec<Box<dyn SecretApp>> = vec![
            Box::new(WebsiteCatalog::new(1)),
            Box::new(WebsiteCatalog::new(2)),
            Box::new(DnnZoo::new(1)),
            Box::new(DnnZoo::new(2)),
            Box::new(KeystrokeApp::new()),
            Box::new(KeystrokeApp::with_window(300_000_000)),
            Box::new(CryptoApp::new(4)),
            Box::new(CryptoApp::new(5)),
            Box::new(CryptoApp::with_window(4, 400_000_000)),
        ];
        for (i, a) in apps.iter().enumerate() {
            for b in &apps[i + 1..] {
                assert_ne!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{} vs {}",
                    a.name(),
                    b.name()
                );
            }
        }
        // Same parameters, same fingerprint (no process-local state).
        assert_eq!(
            WebsiteCatalog::new(3).fingerprint(),
            WebsiteCatalog::new(3).fingerprint()
        );
        // Website seeds 1 and 2 share name and secret count: only the
        // fingerprint tells them apart.
        assert_eq!(apps[0].name(), apps[1].name());
        assert_eq!(apps[0].n_secrets(), apps[1].n_secrets());
    }
}
