//! The facade's typed error: everything the public `aegis` API can fail
//! with, in one enum.

use aegis_obfuscator::StackError;
use aegis_perf::PerfError;
use aegis_sev::HostError;
use std::fmt;
use std::path::PathBuf;

/// Errors returned by the `aegis` facade (`AegisPipeline::offline`,
/// `DefenseDeployment::deploy*`, `Collector::dataset`, plan load/save).
///
/// Marked `#[non_exhaustive]` so future failure classes can be added
/// without a breaking change; match with a `_` arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum AegisError {
    /// A simulated-host operation failed (invalid vm/vcpu ids,
    /// over-committed cores).
    Host(HostError),
    /// A configuration value failed validation (builder `build()`).
    Config {
        /// The offending field, e.g. `"epsilon"`.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// An I/O operation failed (plan files, result directories).
    Io {
        /// What was being done, e.g. `"writing plan results/plan.json"`.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Serialization or deserialization failed.
    Serde {
        /// What was being encoded/decoded.
        context: String,
        /// The codec's message.
        message: String,
    },
    /// A cache artifact could not be used.
    Cache {
        /// The artifact's path.
        path: PathBuf,
        /// Why it was rejected.
        message: String,
    },
    /// A simulated trust-boundary fault (injected via `aegis-faults`)
    /// escalated past retry and degraded operation into a failed
    /// operation — e.g. a PMC slot that would not program within the
    /// retry budget. Absent an active fault plan this variant does not
    /// occur.
    Fault {
        /// The failing site, e.g. `"perf.program"`.
        site: &'static str,
        /// What failed.
        message: String,
    },
    /// A service-plane operation failed: an unknown or non-running
    /// session, a hot reload that would not land within its retry
    /// budget, a poisoned ε-ledger, or a session whose restart budget is
    /// spent.
    Service {
        /// What was being done, e.g. `"reload session 0"`.
        context: String,
        /// Why it failed.
        message: String,
    },
    /// The offline stage produced no usable gadget stack for the app —
    /// typically fuzzing left the covering set empty. A plan without
    /// gadgets would inject zero noise while claiming protection, so
    /// none is issued and the tenant is refused deployment.
    Uncoverable {
        /// The profiled app.
        app: String,
        /// Why the stack could not be built.
        reason: StackError,
    },
    /// A tenant's ε budget cannot cover a requested deployment epoch;
    /// the service refuses and the guest's counters stay fail-closed.
    BudgetExhausted {
        /// The tenant whose budget is spent.
        tenant: String,
        /// The ε the epoch would have drawn.
        requested: f64,
        /// ε still unspent in the tenant's account.
        remaining: f64,
        /// The tenant's total provisioned ε.
        total: f64,
    },
}

impl AegisError {
    /// Convenience constructor for config-validation failures.
    pub fn config(field: &'static str, message: impl Into<String>) -> Self {
        AegisError::Config {
            field,
            message: message.into(),
        }
    }

    /// Wraps an I/O error with its operation context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        AegisError::Io {
            context: context.into(),
            source,
        }
    }

    /// Wraps a codec error with its operation context.
    pub fn serde(context: impl Into<String>, err: impl fmt::Display) -> Self {
        AegisError::Serde {
            context: context.into(),
            message: err.to_string(),
        }
    }

    /// Wraps an escalated injected fault with its site.
    pub fn fault(site: &'static str, err: impl fmt::Display) -> Self {
        AegisError::Fault {
            site,
            message: err.to_string(),
        }
    }

    /// Convenience constructor for service-plane failures.
    pub fn service(context: impl Into<String>, message: impl Into<String>) -> Self {
        AegisError::Service {
            context: context.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for AegisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AegisError::Host(e) => write!(f, "host error: {e}"),
            AegisError::Config { field, message } => {
                write!(f, "invalid configuration: {field}: {message}")
            }
            AegisError::Io { context, source } => write!(f, "i/o error {context}: {source}"),
            AegisError::Serde { context, message } => {
                write!(f, "encoding error {context}: {message}")
            }
            AegisError::Cache { path, message } => {
                write!(f, "cache artifact {}: {message}", path.display())
            }
            AegisError::Fault { site, message } => {
                write!(f, "injected fault at {site}: {message}")
            }
            AegisError::Service { context, message } => {
                write!(f, "service error {context}: {message}")
            }
            AegisError::Uncoverable { app, reason } => {
                write!(f, "no defense plan for {app}: {reason}")
            }
            AegisError::BudgetExhausted {
                tenant,
                requested,
                remaining,
                total,
            } => write!(
                f,
                "privacy budget exhausted for tenant {tenant:?}: \
                 requested {requested:.4}, remaining {remaining:.4} of {total:.4}"
            ),
        }
    }
}

impl std::error::Error for AegisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AegisError::Host(e) => Some(e),
            AegisError::Io { source, .. } => Some(source),
            AegisError::Uncoverable { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

impl From<HostError> for AegisError {
    fn from(e: HostError) -> Self {
        AegisError::Host(e)
    }
}

impl From<PerfError> for AegisError {
    fn from(e: PerfError) -> Self {
        AegisError::fault("perf", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = AegisError::from(HostError::NoFreeCores);
        assert!(e.to_string().contains("host error"));
        let e = AegisError::config("epsilon", "must be positive, got -1");
        assert!(e.to_string().contains("epsilon"));
        let e = AegisError::io(
            "reading plan.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("reading plan.json"));
        assert!(std::error::Error::source(&e).is_some());
        let e = AegisError::service("reload session 0", "3 consecutive torn swaps");
        assert!(e.to_string().contains("reload session 0"));
        let e = AegisError::BudgetExhausted {
            tenant: "acme".into(),
            requested: 1.0,
            remaining: 0.2,
            total: 4.2,
        };
        let s = e.to_string();
        assert!(s.contains("acme") && s.contains("exhausted"), "{s}");
        let e = AegisError::Uncoverable {
            app: "keystroke-sniffing".into(),
            reason: StackError::Empty,
        };
        let s = e.to_string();
        assert!(
            s.contains("keystroke-sniffing") && s.contains("empty"),
            "{s}"
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
