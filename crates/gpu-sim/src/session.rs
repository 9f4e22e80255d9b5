//! The settings one invocation picks, carried by every device it builds.
//!
//! A [`Session`] bundles the telemetry sinks (trace, metrics, health), the
//! sanitize mode, the fused-pipeline default and a shared tally of what the
//! invocation's exit code depends on (sanitizer violations, unrecovered
//! cluster chunks). A host such as `repro` builds one from its flags and
//! [`Session::install`]s it before the first device exists; every
//! [`crate::Gpu`] and [`crate::GpuCluster`] then copies
//! [`Session::current`] at construction time. Devices built with an explicit
//! session (tests, planted-bug experiments) keep their findings to
//! themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use wsvd_health::HealthSink;
use wsvd_metrics::MetricsSink;
use wsvd_trace::TraceSink;

use crate::sanitize::SanitizeMode;

/// Everything a device inherits from the invocation that built it. Cloning
/// shares the sinks and the tally.
#[derive(Clone, Default)]
pub struct Session {
    /// Trace sink every launch records into (disabled by default).
    pub trace: TraceSink,
    /// Metrics registry every launch records into (disabled by default).
    pub metrics: MetricsSink,
    /// Health watchdogs every launch reports to (disabled by default).
    pub health: HealthSink,
    /// Whether launches are hazard-checked.
    pub sanitize: SanitizeMode,
    /// Default for `WCycleConfig::fused` in `wsvd-core`.
    pub fused: bool,
    /// What the devices built under this session report toward the
    /// invocation's exit code.
    pub tally: Tally,
}

/// Counts an invocation's exit code depends on. Clones share the counts;
/// `Tally::default()` starts a private one.
#[derive(Clone, Default)]
pub struct Tally(Arc<Counts>);

#[derive(Default)]
struct Counts {
    violations: AtomicU64,
    unrecovered: AtomicU64,
}

impl Tally {
    /// Sanitizer violations reported by devices sharing this tally.
    pub fn violations(&self) -> u64 {
        self.0.violations.load(Ordering::Relaxed)
    }

    /// Cluster chunks abandoned after retry exhaustion or total cluster
    /// death, on clusters sharing this tally.
    pub fn unrecovered(&self) -> u64 {
        self.0.unrecovered.load(Ordering::Relaxed)
    }

    pub(crate) fn add_violations(&self, n: u64) {
        self.0.violations.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_unrecovered(&self, n: u64) {
        self.0.unrecovered.fetch_add(n, Ordering::Relaxed);
    }
}

/// The installed session: the one process-wide setting, so that devices
/// built deep inside experiments see the host's flags.
static INSTALLED: OnceLock<Session> = OnceLock::new();

impl Session {
    /// Installs `session` as the one [`Session::current`] hands out and as
    /// the process-wide health sink, with its health incidents snapshotting
    /// its metrics. Returns `false` if a session was already installed (the
    /// first one wins). Devices copy the session when they are built, so
    /// install before building the first one.
    pub fn install(session: Session) -> bool {
        if INSTALLED.set(session.clone()).is_err() {
            return false;
        }
        session.health.set_metrics(session.metrics.clone());
        wsvd_health::install_global(session.health)
    }

    /// The installed session, or, before any install, disabled sinks with
    /// the sanitize mode read from `WSVD_SANITIZE` (`1`, `on`, `true` or
    /// `full` enable full checking) and a fresh tally.
    pub fn current() -> Session {
        INSTALLED.get().cloned().unwrap_or_else(|| {
            let sanitize = match std::env::var("WSVD_SANITIZE") {
                Ok(v) if matches!(v.as_str(), "1" | "on" | "true" | "full") => SanitizeMode::Full,
                _ => SanitizeMode::Off,
            };
            Session {
                sanitize,
                ..Session::default()
            }
        })
    }
}
