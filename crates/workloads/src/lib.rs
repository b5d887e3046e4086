//! # aegis-workloads
//!
//! Secret-dependent workload generators standing in for the paper's three
//! victim applications: Chrome loading one of 45 websites, a user typing
//! `K ∈ [0, 9]` keystrokes in a 3-second window, and PyTorch inference of
//! one of 30 DNN architectures.
//!
//! Each application implements [`SecretApp`]: given a secret, it samples a
//! [`WorkloadPlan`] — a timed sequence of internally consistent activity
//! mixes ([`MixSpec`]) that the SEV simulator executes on a guest vCPU.
//! Profiles are deterministic per seed with controlled within-class
//! jitter, so the attacker faces the same learning problem as on real
//! hardware: distinct but noisy secret-conditioned HPC trajectories.

mod app;
mod crypto;
mod dnn;
mod keystroke;
mod mix;
mod plan;
mod website;

pub use app::{app_fingerprint, SecretApp};
pub use crypto::CryptoApp;
pub use dnn::{DnnZoo, Layer, LayerKind, LayerSpan, ModelArch, N_MODELS};
pub use keystroke::{KeystrokeApp, MAX_KEYSTROKES};
pub use mix::{idle_rate, MixSpec};
pub use plan::{Segment, WorkloadPlan};
pub use website::{PhaseKind, SiteProfile, WebsiteCatalog, N_SITES, SITE_NAMES};
