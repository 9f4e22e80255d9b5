//! The settings one invocation picks, carried by every device it builds.
//!
//! A [`Session`] bundles the telemetry sinks (trace, metrics, health), the
//! sanitize mode, the fused-pipeline default and a shared tally of what the
//! invocation's exit code depends on (sanitizer violations). A host such as
//! `repro` builds one from its flags, [`Session::install`]s it before the
//! first device exists and scopes it to each experiment in turn with
//! [`Session::set_experiment`]; every
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
}

impl Tally {
    /// Sanitizer violations reported by devices sharing this tally.
    pub fn violations(&self) -> u64 {
        self.0.violations.load(Ordering::Relaxed)
    }

    pub(crate) fn add_violations(&self, n: u64) {
        self.0.violations.fetch_add(n, Ordering::Relaxed);
    }
}

/// The installed session: the one process-wide setting, so that devices
/// built deep inside experiments see the host's flags.
static INSTALLED: OnceLock<Session> = OnceLock::new();

impl Session {
    /// Installs `session` as the one [`Session::current`] hands out, with
    /// its health incidents snapshotting its metrics. Returns `false` if a
    /// session was already installed (the first one wins). Devices copy the
    /// session when they are built, so install before building the first
    /// one.
    pub fn install(session: Session) -> bool {
        if INSTALLED.set(session.clone()).is_err() {
            return false;
        }
        session.health.set_metrics(session.metrics.clone());
        true
    }

    /// Scopes every sink to experiment `id`: metrics series are keyed by
    /// it, health incidents carry it (with replay seed 0), and devices
    /// built from now on name their trace process `"<id> · <device>"`.
    pub fn set_experiment(&self, id: &str) {
        self.metrics.set_experiment(id);
        self.health.set_context(id, 0);
        self.trace.set_scope(id);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::V100;
    use crate::launch::KernelConfig;
    use crate::{Gpu, GpuCluster};

    #[test]
    fn experiment_scope_reaches_every_sink_and_device() {
        let session = Session {
            trace: TraceSink::enabled(),
            metrics: MetricsSink::enabled(),
            health: HealthSink::enabled(),
            ..Session::default()
        };
        let devices = [
            "Tesla V100",
            "cluster interconnect",
            "Tesla V100 rank 0",
            "Tesla V100 rank 1",
        ];
        let (mut names, mut fired) = (Vec::new(), Vec::new());
        for exp in ["fig7", "ext-health"] {
            session.set_experiment(exp);
            let gpu = Gpu::with_session(V100, session.clone());
            let cluster = GpuCluster::with_session(V100, 2, session.clone());
            for g in [&gpu, cluster.gpu(0)] {
                let cfg = KernelConfig::new(1, 64, 1024, "scoped");
                g.launch_collect(cfg, |_, ctx| {
                    ctx.guard_finite(&[f64::NAN]);
                    Ok(())
                })
                .unwrap();
            }
            cluster.kill(1);
            cluster.sync(1_000);
            names.extend(devices.map(|d| format!("{exp} · {d}")));
            fired.extend([(exp, "non-finite", 0), (exp, "shard-dead", 0)]);
        }
        // Each experiment's devices carry its prefix, so none share a name.
        let processes: Vec<String> = session.trace.processes().into_iter().map(|p| p.1).collect();
        assert_eq!(processes, names);
        assert_eq!(
            session.metrics.snapshot().experiments(),
            ["ext-health", "fig7"]
        );
        let incidents = session.health.incidents();
        let got: Vec<(&str, &str, u64)> = incidents
            .iter()
            .map(|i| (i.experiment.as_str(), i.kind.as_str(), i.seed))
            .collect();
        assert_eq!(got, fired);
    }
}
