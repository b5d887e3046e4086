//! The plane's profiler: warm-up profiling and mutual-information
//! ranking (Module 1) on a single-core replica of the template host,
//! memoized in the artifact store.
//!
//! The paper's profile is a one-time analysis of a template host, so it
//! is a pure function of what it reads: the replica returned by
//! [`Host::fork_vcpu`] (the profiled core, its fault state, the clock and
//! the VM's identity), the app, and the two stage configurations. The
//! `profile` artifact is keyed on exactly those — the replica by its
//! [`Host::state_fingerprint`], the app by [`SecretApp::fingerprint`] —
//! and a hit rebuilds the same [`WarmupResult`] and rankings bit for bit.
//! Profiling never touches the caller's host, so a hit and a miss leave
//! it in the same state.

use crate::error::AegisError;
use crate::pipeline::AegisConfig;
use aegis_microarch::{EventCatalog, EventId};
use aegis_obs as obs;
use aegis_par::store::usize_from_u64;
use aegis_par::{
    ArtifactCache, ArtifactKey, ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader,
};
use aegis_profiler::{rank_events, warmup_profile, EventRanking, WarmupResult};
use aegis_sev::{Host, VmId};
use aegis_workloads::SecretApp;

/// Artifact kind of a stored profile.
const PROFILE_KIND: &str = "profile";

/// The stored part of a profile: what the catalog cannot rebuild. Event
/// names and per-kind survival are derived from the catalog on load.
struct ProfileArtifact {
    vulnerable: Vec<EventId>,
    tested: usize,
    /// Ranked events with their mutual information, in ranking order;
    /// the bits are stored raw.
    ranked: Vec<(EventId, f64)>,
}

impl ProfileArtifact {
    fn of(warmup: &WarmupResult, rankings: &[EventRanking]) -> Self {
        ProfileArtifact {
            vulnerable: warmup.vulnerable.clone(),
            tested: warmup.tested,
            ranked: rankings.iter().map(|r| (r.event, r.mi_bits)).collect(),
        }
    }

    /// Rebuilds the stage outputs, or `None` if an event is not in the
    /// catalog (a stored profile that does not fit is recomputed).
    fn rebuild(self, catalog: &EventCatalog) -> Option<(WarmupResult, Vec<EventRanking>)> {
        let rankings = self
            .ranked
            .into_iter()
            .map(|(event, mi_bits)| {
                Some(EventRanking {
                    event,
                    name: catalog.get(event)?.name.clone(),
                    mi_bits,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        if self.vulnerable.iter().any(|&e| catalog.get(e).is_none()) {
            return None;
        }
        let warmup = WarmupResult::from_vulnerable(catalog, self.vulnerable, self.tested);
        Some((warmup, rankings))
    }
}

impl Columnar for ProfileArtifact {
    /// Bump the version whenever warm-up or ranking semantics change:
    /// older artifacts then fail the schema check and are recomputed.
    fn schema() -> ColumnSchema {
        ColumnSchema::new("aegis/profile", 1)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        frame.push_u64(vec![self.tested as u64]);
        frame.push_u64(self.vulnerable.iter().map(|e| u64::from(e.0)).collect());
        frame.push_u64(self.ranked.iter().map(|(e, _)| u64::from(e.0)).collect());
        frame.push_f64(self.ranked.iter().map(|&(_, mi)| mi).collect());
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let event = |v: u64| {
            u32::try_from(v)
                .map(EventId)
                .map_err(|_| FrameError::new(format!("profile: event id {v} exceeds u32")))
        };
        let tested = match reader.u64s()?[..] {
            [t] => usize_from_u64(t, "profile: tested count")?,
            _ => return Err(FrameError::new("profile: meta column must hold one entry")),
        };
        let vulnerable = reader
            .u64s()?
            .iter()
            .map(|&v| event(v))
            .collect::<Result<Vec<_>, _>>()?;
        let events = reader.u64s()?;
        let mi = reader.f64s()?;
        if events.len() != mi.len() {
            return Err(FrameError::new(format!(
                "profile: {} ranked events but {} MI values",
                events.len(),
                mi.len()
            )));
        }
        let ranked = events
            .iter()
            .zip(mi.iter())
            .map(|(&e, &m)| Ok((event(e)?, m)))
            .collect::<Result<Vec<_>, FrameError>>()?;
        Ok(ProfileArtifact {
            vulnerable,
            tested,
            ranked,
        })
    }
}

/// The store address of the profile of `(vm, vcpu)` on `template`: the
/// key [`crate::AegisPipeline::offline`] and
/// [`crate::service::ServiceHandle::profile`] look up before profiling.
///
/// # Errors
///
/// Returns [`AegisError::Host`] for invalid vm/vcpu ids.
pub fn profile_key(
    template: &Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
) -> Result<ArtifactKey, AegisError> {
    Ok(replica_key(&template.fork_vcpu(vm, vcpu)?, app, cfg))
}

fn replica_key(replica: &Host, app: &dyn SecretApp, cfg: &AegisConfig) -> ArtifactKey {
    ArtifactKey::of(
        PROFILE_KIND,
        &(
            format!("{:?}", replica.arch()),
            replica.state_fingerprint(),
            app.fingerprint(),
            cfg.warmup,
            cfg.rank,
        ),
    )
}

/// Warm-up and ranking of `app` on vCPU 0 of `replica` (a
/// [`Host::fork_vcpu`] replica), served from `cache` when the same
/// replica state, app and settings were profiled before.
pub(crate) fn profile_replica(
    replica: &mut Host,
    vm: VmId,
    app: &dyn SecretApp,
    cfg: &AegisConfig,
    cache: &ArtifactCache,
) -> Result<(WarmupResult, Vec<EventRanking>), AegisError> {
    let key = replica_key(replica, app, cfg);
    let catalog = replica.core(0).catalog();
    if let Some(hit) = cache
        .get_col::<ProfileArtifact>(&key)
        .and_then(|a| a.rebuild(&catalog))
    {
        return Ok(hit);
    }
    let warmup = {
        let _s = obs::span("profile.warmup");
        warmup_profile(replica, vm, 0, app, &cfg.warmup)?
    };
    let rankings = {
        let _s = obs::span("profile.rank");
        rank_events(replica, vm, 0, app, &warmup.vulnerable, &cfg.rank)?
    };
    // A failed write only costs the next caller a recompute.
    let _ = cache.put_col(&key, &ProfileArtifact::of(&warmup, &rankings));
    Ok((warmup, rankings))
}
