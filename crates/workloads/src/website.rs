//! Website-access workloads for the website fingerprinting case study.
//!
//! The paper's attacker fingerprints accesses to 45 of the Alexa top-50
//! sites from HPC traces. Here each site gets a deterministic *profile*:
//! a phase structure (DNS, connect, download, parse, script, render, ...)
//! with site-specific durations and instruction mixes, plus per-access
//! jitter — the within-class variance that makes the learning problem
//! non-trivial.

use crate::app::SecretApp;
use crate::mix::{idle_rate, MixSpec};
use crate::plan::{Segment, WorkloadPlan};
use aegis_microarch::rand_util::normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Number of fingerprinted sites (Alexa top-50 minus 5 blocked ones).
pub const N_SITES: usize = 45;

/// The 45 target sites.
pub const SITE_NAMES: [&str; N_SITES] = [
    "google.com",
    "youtube.com",
    "facebook.com",
    "twitter.com",
    "instagram.com",
    "baidu.com",
    "wikipedia.org",
    "yandex.ru",
    "yahoo.com",
    "whatsapp.com",
    "amazon.com",
    "netflix.com",
    "live.com",
    "reddit.com",
    "tiktok.com",
    "office.com",
    "linkedin.com",
    "vk.com",
    "dzen.ru",
    "mail.ru",
    "bing.com",
    "naver.com",
    "microsoft.com",
    "twitch.tv",
    "pinterest.com",
    "zoom.us",
    "discord.com",
    "max.com",
    "roblox.com",
    "qq.com",
    "duckduckgo.com",
    "ebay.com",
    "fandom.com",
    "weather.com",
    "quora.com",
    "aliexpress.com",
    "booking.com",
    "canva.com",
    "spotify.com",
    "paypal.com",
    "imdb.com",
    "github.com",
    "stackoverflow.com",
    "apple.com",
    "cnn.com",
];

/// Browser loading phases a site access progresses through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// DNS resolution.
    Dns,
    /// TCP/TLS connection establishment.
    Connect,
    /// Resource download.
    Download,
    /// HTML/CSS parsing.
    Parse,
    /// JavaScript execution.
    Script,
    /// Layout and paint.
    Render,
    /// Media decode (images/video).
    Media,
}

impl PhaseKind {
    const ALL: [PhaseKind; 7] = [
        PhaseKind::Dns,
        PhaseKind::Connect,
        PhaseKind::Download,
        PhaseKind::Parse,
        PhaseKind::Script,
        PhaseKind::Render,
        PhaseKind::Media,
    ];

    /// Template `(duration_ms, mix)` for this phase kind before
    /// site-specific perturbation.
    fn template(self) -> (f64, MixSpec) {
        let base = MixSpec {
            uops_per_us: 0.0,
            load_frac: 0.3,
            store_frac: 0.1,
            l1_miss_rate: 0.05,
            l2_miss_rate: 0.4,
            llc_miss_rate: 0.3,
            branch_frac: 0.18,
            branch_miss_rate: 0.05,
            simd_frac: 0.0,
            fp_frac: 0.0,
            syscalls_per_us: 0.002,
            page_faults_per_us: 0.0002,
        };
        match self {
            PhaseKind::Dns => (
                30.0,
                MixSpec {
                    uops_per_us: 60.0,
                    syscalls_per_us: 0.05,
                    ..base
                },
            ),
            PhaseKind::Connect => (
                70.0,
                MixSpec {
                    uops_per_us: 150.0,
                    syscalls_per_us: 0.08,
                    ..base
                },
            ),
            PhaseKind::Download => (
                300.0,
                MixSpec {
                    uops_per_us: 350.0,
                    load_frac: 0.35,
                    store_frac: 0.25,
                    l1_miss_rate: 0.15,
                    llc_miss_rate: 0.6,
                    syscalls_per_us: 0.12,
                    page_faults_per_us: 0.003,
                    ..base
                },
            ),
            PhaseKind::Parse => (
                250.0,
                MixSpec {
                    uops_per_us: 900.0,
                    load_frac: 0.32,
                    branch_frac: 0.22,
                    branch_miss_rate: 0.08,
                    ..base
                },
            ),
            PhaseKind::Script => (
                500.0,
                MixSpec {
                    uops_per_us: 1_400.0,
                    load_frac: 0.3,
                    store_frac: 0.15,
                    l1_miss_rate: 0.08,
                    branch_frac: 0.25,
                    branch_miss_rate: 0.1,
                    page_faults_per_us: 0.001,
                    ..base
                },
            ),
            PhaseKind::Render => (
                250.0,
                MixSpec {
                    uops_per_us: 1_100.0,
                    simd_frac: 0.35,
                    store_frac: 0.25,
                    l1_miss_rate: 0.1,
                    ..base
                },
            ),
            PhaseKind::Media => (
                200.0,
                MixSpec {
                    uops_per_us: 1_600.0,
                    simd_frac: 0.55,
                    load_frac: 0.35,
                    l1_miss_rate: 0.12,
                    llc_miss_rate: 0.5,
                    ..base
                },
            ),
        }
    }
}

#[derive(Debug, Clone)]
struct SitePhase {
    duration_ms: f64,
    mix: MixSpec,
}

/// The deterministic loading profile of one site.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    name: &'static str,
    phases: Vec<SitePhase>,
}

impl SiteProfile {
    fn generate(idx: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x517e_0000 + idx as u64));
        let mut phases = Vec::new();
        // Every access starts with DNS + connect + download.
        for kind in [PhaseKind::Dns, PhaseKind::Connect, PhaseKind::Download] {
            phases.push(perturb(kind, &mut rng));
        }
        // Then a site-specific mixture of parse/script/render/media bursts.
        let extra = rng.gen_range(3..=7);
        for _ in 0..extra {
            let kind = PhaseKind::ALL[rng.gen_range(3..PhaseKind::ALL.len())];
            phases.push(perturb(kind, &mut rng));
        }
        SiteProfile {
            name: SITE_NAMES[idx],
            phases,
        }
    }

    /// Site host name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

fn perturb(kind: PhaseKind, rng: &mut StdRng) -> SitePhase {
    let (dur, mut mix) = kind.template();
    let duration_ms = dur * rng.gen_range(0.5..1.8);
    mix.uops_per_us *= rng.gen_range(0.7..1.4);
    mix.load_frac *= rng.gen_range(0.85..1.15);
    mix.store_frac *= rng.gen_range(0.85..1.15);
    mix.l1_miss_rate *= rng.gen_range(0.7..1.4);
    mix.llc_miss_rate *= rng.gen_range(0.7..1.4);
    mix.branch_frac *= rng.gen_range(0.85..1.15);
    mix.simd_frac *= rng.gen_range(0.8..1.25);
    SitePhase { duration_ms, mix }
}

/// The catalog of all 45 fingerprinted sites.
///
/// # Example
///
/// ```
/// use aegis_workloads::{SecretApp, WebsiteCatalog};
/// use rand::SeedableRng;
///
/// let catalog = WebsiteCatalog::new(7);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let plan = catalog.sample_plan(0, &mut rng);
/// assert_eq!(plan.duration_ns(), catalog.window_ns());
/// ```
#[derive(Debug, Clone)]
pub struct WebsiteCatalog {
    sites: Vec<SiteProfile>,
    window_ns: u64,
    seed: u64,
}

impl WebsiteCatalog {
    /// Builds the deterministic site catalog for a seed.
    pub fn new(seed: u64) -> Self {
        WebsiteCatalog {
            sites: (0..N_SITES)
                .map(|i| SiteProfile::generate(i, seed))
                .collect(),
            window_ns: 3_000_000_000,
            seed,
        }
    }

    /// Profile of one site.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N_SITES`.
    pub fn site(&self, idx: usize) -> &SiteProfile {
        &self.sites[idx]
    }
}

impl SecretApp for WebsiteCatalog {
    fn name(&self) -> &str {
        "website-fingerprinting"
    }

    fn n_secrets(&self) -> usize {
        N_SITES
    }

    fn secret_name(&self, idx: usize) -> String {
        self.sites[idx].name.to_string()
    }

    fn window_ns(&self) -> u64 {
        self.window_ns
    }

    fn fingerprint(&self) -> u64 {
        crate::app_fingerprint(self.name(), &[self.seed, self.window_ns])
    }

    fn sample_plan(&self, secret: usize, rng: &mut StdRng) -> WorkloadPlan {
        let profile = &self.sites[secret];
        let mut plan = WorkloadPlan::new();
        for phase in &profile.phases {
            // Per-access jitter: network variance and content churn.
            let dur_ms = (phase.duration_ms * normal(rng, 1.0, 0.1).clamp(0.6, 1.6)).max(1.0);
            let mut mix = phase.mix;
            mix.uops_per_us *= normal(rng, 1.0, 0.05).clamp(0.7, 1.3);
            plan.push(Segment::new((dur_ms * 1e6) as u64, mix.build()));
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

    #[test]
    fn catalog_has_45_distinct_sites() {
        let c = WebsiteCatalog::new(7);
        assert_eq!(c.n_secrets(), 45);
        let mut names: Vec<_> = (0..45).map(|i| c.secret_name(i)).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 45);
    }

    #[test]
    fn plans_fill_the_window_exactly() {
        let c = WebsiteCatalog::new(7);
        let mut rng = StdRng::seed_from_u64(5);
        for site in 0..45 {
            let plan = c.sample_plan(site, &mut rng);
            assert_eq!(plan.duration_ns(), c.window_ns());
        }
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let a = WebsiteCatalog::new(7);
        let b = WebsiteCatalog::new(7);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(a.sample_plan(10, &mut r1), b.sample_plan(10, &mut r2));
    }

    #[test]
    fn sites_have_distinct_signatures() {
        let c = WebsiteCatalog::new(7);
        let mut rng = StdRng::seed_from_u64(9);
        let totals: Vec<f64> = (0..45)
            .map(|s| c.sample_plan(s, &mut rng).total_uops())
            .collect();
        let mut sorted = totals.clone();
        sorted.sort_by(f64::total_cmp);
        // Substantial spread across sites (distinct class signal).
        assert!(sorted[44] / sorted[0] > 1.5, "{:?}", &sorted[..5]);
    }

    #[test]
    fn accesses_of_same_site_vary() {
        let c = WebsiteCatalog::new(7);
        let mut rng = StdRng::seed_from_u64(13);
        let a = c.sample_plan(0, &mut rng);
        let b = c.sample_plan(0, &mut rng);
        assert_ne!(a, b);
        // ... but much less than across sites.
        let rel = (a.total_uops() - b.total_uops()).abs() / a.total_uops();
        assert!(rel < 0.3, "within-class variation {rel}");
    }

    #[test]
    fn plans_start_with_network_phases() {
        let c = WebsiteCatalog::new(7);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = c.sample_plan(3, &mut rng);
        // DNS phase is light on µops.
        assert!(plan.segments[0].rate[Feature::UopsRetired] < 200.0);
    }
}
