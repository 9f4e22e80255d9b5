//! `wsvd-health` — numerical-health watchdogs with structured incident
//! reports.
//!
//! The trace, sanitizer and metrics layers observe *scheduling* and
//! *hazards*; this crate observes *numerics* — the quantities the paper's
//! correctness claims actually rest on:
//!
//! * **Watchdogs.** The per-matrix convergence status the engines return
//!   (a matrix that hit its sweep cap is `not-converged`), NaN/Inf
//!   detection at simulated kernel boundaries, final residual /
//!   orthogonality drift ceilings, and dead-shard detection on the cluster
//!   model.
//! * **Incidents.** When a watchdog fires, the sink assembles a structured,
//!   JSON-serializable [`Incident`]: the trigger, its simulated time, a
//!   metrics [`Snapshot`](wsvd_metrics::Snapshot), the chosen tailoring plan
//!   and its level, and the replay seed the experiment set with
//!   [`HealthSink::set_context`] (`0` when the scope set none), so an
//!   incident under a seeded scope is deterministically replayable. The
//!   event timeline around an incident is the trace of the same run, where
//!   `t_sim` is the simulated time on the device's track.
//!
//! A sink is a value, never a global: each device copies the one in the
//! `wsvd_gpu_sim::Session` it is built under, and the numerics crates below
//! the simulator report nothing to it.
//!
//! Design rules mirror `wsvd-trace` / `wsvd-metrics`: the default sink is a
//! strict no-op, all watchdog state lives host-side (nothing is charged to
//! the simulator's cost model), and an enabled sink never changes simulated
//! time or numerics — only observes them. Incident *storms* are suppressed:
//! the first incident of a kind per experiment is kept, cascading repeats
//! only bump a counter (a NaN poisons every downstream kernel; one report
//! is the signal, the rest is noise).

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;
use wsvd_metrics::MetricsSink;

/// Ceiling on the per-matrix orthogonality error `||U^T U - I||_max` over
/// the numerically significant singular directions.
const ORTHOGONALITY_CEILING: f64 = 1e-8;

/// Ceiling on the per-matrix relative reconstruction residual
/// `||A - U S V^T||_max / sigma_max`.
const RESIDUAL_CEILING: f64 = 1e-8;

/// The watchdog classes an [`Incident`] can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// A kernel boundary produced NaN/Inf.
    NonFinite,
    /// A matrix reached its engine's sweep cap unconverged.
    NotConverged,
    /// Final `||U^T U - I||` exceeded the ceiling.
    OrthogonalityDrift,
    /// Final relative reconstruction residual exceeded the ceiling.
    ResidualDrift,
    /// A cluster rank stopped responding (killed shard).
    ShardDead,
}

impl IncidentKind {
    /// Stable string form used in serialized incidents and latch keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            IncidentKind::NonFinite => "non-finite",
            IncidentKind::NotConverged => "not-converged",
            IncidentKind::OrthogonalityDrift => "orthogonality-drift",
            IncidentKind::ResidualDrift => "residual-drift",
            IncidentKind::ShardDead => "shard-dead",
        }
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tailoring plan in force when an incident fired.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PlanChoice {
    /// W-cycle level the plan was selected for.
    pub level: u64,
    /// Pair-block half width.
    pub w: u64,
    /// Segment length.
    pub delta: u64,
    /// Threads per block.
    pub threads: u64,
}

/// A structured incident report: everything needed to understand and replay
/// one watchdog fire. Serialized as JSON by `repro --health-dump` and the
/// `ext-health` experiment.
#[derive(Clone, Debug, Serialize)]
pub struct Incident {
    /// Incident class ([`IncidentKind::as_str`]).
    pub kind: String,
    /// Human-readable trigger description.
    pub detail: String,
    /// Experiment scope the incident fired under.
    pub experiment: String,
    /// Replay seed of the scope the incident fired under: what the
    /// experiment passed to [`HealthSink::set_context`]. `0` means the
    /// scope set no replay seed (`wsvd_gpu_sim::Session::set_experiment`
    /// stamps `0`); only an experiment that passes its workload seed to
    /// `set_context` fires incidents that regenerating the inputs from
    /// this seed reproduces.
    pub seed: u64,
    /// W-cycle level of the plan in force, when one had been selected.
    pub level: Option<u64>,
    /// Simulated seconds at fire time.
    pub t_sim: f64,
    /// The tailoring plan in force, when one had been selected.
    pub plan: Option<PlanChoice>,
    /// Metrics-registry snapshot at fire time (empty when metrics are off).
    pub metrics: wsvd_metrics::Snapshot,
}

/// Everything `repro --health-dump` writes. Each incident names its own
/// experiment and replay seed; the report adds no scope of its own.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HealthReport {
    /// Incidents suppressed as cascades of an already-reported kind.
    pub suppressed: u64,
    /// All incidents, in fire order.
    pub incidents: Vec<Incident>,
}

struct State {
    experiment: String,
    seed: u64,
    plan: Option<PlanChoice>,
    level: Option<u64>,
    incidents: Vec<Incident>,
    suppressed: u64,
    fired: BTreeSet<String>,
    metrics: MetricsSink,
}

/// A cheaply clonable handle producers report into; clones share one
/// watchdog state.
///
/// `HealthSink::default()` is **disabled**: every method returns after one
/// `Option` check. Producers guard any computation done *only* for health
/// (e.g. the final factors' orthogonality error) behind
/// [`HealthSink::is_enabled`], so with the sink off, simulated time
/// and numerics are bit-identical to a build without the crate. An enabled
/// sink is also purely observational: nothing it does is charged to the
/// simulator's cost model.
#[derive(Clone, Default)]
pub struct HealthSink {
    inner: Option<Arc<Mutex<State>>>,
}

impl HealthSink {
    /// A recording sink. Incident snapshots stay empty until
    /// [`HealthSink::set_metrics`] connects a metrics registry.
    pub fn enabled() -> Self {
        HealthSink {
            inner: Some(Arc::new(Mutex::new(State {
                experiment: String::new(),
                seed: 0,
                plan: None,
                level: None,
                incidents: Vec::new(),
                suppressed: 0,
                fired: BTreeSet::new(),
                metrics: MetricsSink::default(),
            }))),
        }
    }

    /// Whether health is being recorded. Producers must guard health-only
    /// computation behind this, preserving the bit-identity guarantee of
    /// the disabled mode.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the experiment scope and workload seed stamped into subsequent
    /// incidents. Incident latches are keyed per experiment, so a new scope
    /// may fire the same kind again.
    pub fn set_context(&self, experiment: &str, seed: u64) {
        if let Some(i) = &self.inner {
            let mut st = i.lock();
            st.experiment = experiment.to_string();
            st.seed = seed;
        }
    }

    /// Replaces the metrics sink captured into incident snapshots.
    pub fn set_metrics(&self, metrics: MetricsSink) {
        if let Some(i) = &self.inner {
            i.lock().metrics = metrics;
        }
    }

    /// Remembers an auto-tuner plan selection as the plan in force for
    /// subsequent incidents.
    pub fn plan_selected(&self, level: usize, w: usize, delta: usize, threads: usize) {
        if let Some(i) = &self.inner {
            let mut st = i.lock();
            st.plan = Some(PlanChoice {
                level: level as u64,
                w: w as u64,
                delta: delta as u64,
                threads: threads as u64,
            });
            st.level = Some(level as u64);
        }
    }

    /// Convergence-status report: `matrix` of a converging run (`tol > 0`)
    /// came back from its engine unconverged after `sweeps` sweeps.
    pub fn not_converged(&self, matrix: usize, sweeps: usize, t_sim: f64) {
        if self.inner.is_some() {
            self.fire(
                IncidentKind::NotConverged,
                &format!("matrix {matrix}: not converged after {sweeps} sweep(s)"),
                t_sim,
            );
        }
    }

    /// Per-batch drift monitor over the final factors: fires when the
    /// orthogonality error or the relative reconstruction residual exceeds
    /// its ceiling.
    pub fn batch_check(
        &self,
        matrix: usize,
        residual: Option<f64>,
        orthogonality: f64,
        t_sim: f64,
    ) {
        if self.inner.is_none() {
            return;
        }
        if orthogonality > ORTHOGONALITY_CEILING {
            self.fire(
                IncidentKind::OrthogonalityDrift,
                &format!(
                    "matrix {matrix}: ||U^T U - I|| = {orthogonality:.3e} \
                     exceeds ceiling {ORTHOGONALITY_CEILING:.1e}"
                ),
                t_sim,
            );
        }
        if let Some(r) = residual {
            if r > RESIDUAL_CEILING {
                self.fire(
                    IncidentKind::ResidualDrift,
                    &format!(
                        "matrix {matrix}: relative residual {r:.3e} exceeds \
                         ceiling {RESIDUAL_CEILING:.1e}"
                    ),
                    t_sim,
                );
            }
        }
    }

    /// Kernel-boundary NaN/Inf report (called by the launch machinery when
    /// a block's [`guard_finite`](HealthSink) check tripped).
    pub fn nonfinite(&self, label: &str, block: usize, detail: &str, t_sim: f64) {
        if self.inner.is_some() {
            self.fire(
                IncidentKind::NonFinite,
                &format!("kernel '{label}', block {block}: {detail}"),
                t_sim,
            );
        }
    }

    /// Dead-shard report (called by the cluster's health check when a
    /// killed rank is first detected — at a collective barrier, or before a
    /// distributed step that cannot run its shard). Latched per rank, so two
    /// dead ranks produce two incidents but repeated checks of one rank do
    /// not.
    pub fn shard_dead(&self, rank: usize, t_sim: f64) {
        if self.inner.is_some() {
            self.fire_keyed(
                IncidentKind::ShardDead,
                &format!("rank{rank}"),
                &format!("rank {rank} unresponsive at a cluster health check"),
                t_sim,
            );
        }
    }

    fn fire(&self, kind: IncidentKind, detail: &str, t_sim: f64) {
        self.fire_keyed(kind, "", detail, t_sim);
    }

    /// Assembles and stores one incident, or counts it as a suppressed
    /// cascade when `(experiment, kind, subkey)` already fired.
    fn fire_keyed(&self, kind: IncidentKind, subkey: &str, detail: &str, t_sim: f64) {
        let Some(i) = &self.inner else { return };
        let mut st = i.lock();
        let latch = format!("{}:{}:{subkey}", st.experiment, kind.as_str());
        if !st.fired.insert(latch) {
            st.suppressed += 1;
            return;
        }
        let incident = Incident {
            kind: kind.as_str().to_string(),
            detail: detail.to_string(),
            experiment: st.experiment.clone(),
            seed: st.seed,
            level: st.level,
            t_sim,
            plan: st.plan,
            metrics: st.metrics.snapshot(),
        };
        st.incidents.push(incident);
    }

    /// All incidents fired so far, in order.
    pub fn incidents(&self) -> Vec<Incident> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.lock().incidents.clone(),
        }
    }

    /// Number of incidents fired so far.
    pub fn incident_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.lock().incidents.len())
    }

    /// Cascaded fires suppressed by the per-kind latch.
    pub fn suppressed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.lock().suppressed)
    }

    /// Incident counts per experiment scope, sorted by experiment.
    pub fn summary(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for inc in self.incidents() {
            *out.entry(inc.experiment).or_insert(0) += 1;
        }
        out
    }

    /// The full health report as pretty-printed JSON (what
    /// `repro --health-dump` writes).
    pub fn report_json(&self) -> String {
        let report = self.inner.as_ref().map_or_else(HealthReport::default, |i| {
            let st = i.lock();
            HealthReport {
                suppressed: st.suppressed,
                incidents: st.incidents.clone(),
            }
        });
        serde_json::to_string_pretty(&report).expect("health report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn disabled_sink_is_a_strict_noop() {
        let s = HealthSink::default();
        assert!(!s.is_enabled());
        s.set_context("e", 7);
        s.plan_selected(1, 8, 64, 256);
        s.not_converged(0, 40, 0.0);
        s.batch_check(0, Some(1.0), 1.0, 0.0);
        s.nonfinite("k", 0, "NaN", 0.0);
        s.shard_dead(2, 0.0);
        assert_eq!(s.incident_count(), 0);
    }

    #[test]
    fn not_converged_fires_once_per_experiment() {
        let s = HealthSink::enabled();
        s.set_context("t", 99);
        s.plan_selected(1, 8, 64, 256);
        s.batch_check(0, Some(1e-13), 1e-14, 0.5); // within the ceilings
        assert_eq!(s.incident_count(), 0);
        s.not_converged(3, 40, 1.0);
        assert_eq!(s.incident_count(), 1, "{:?}", s.incidents());
        let inc = &s.incidents()[0];
        assert_eq!(inc.kind, "not-converged");
        assert_eq!(inc.detail, "matrix 3: not converged after 40 sweep(s)");
        assert_eq!((inc.experiment.as_str(), inc.seed), ("t", 99));
        assert_eq!(inc.level, Some(1));
        assert_eq!(inc.plan.unwrap().w, 8);
        // Further unconverged matrices are suppressed cascades, not new
        // incidents, until a new experiment scope unlatches the kind.
        s.not_converged(4, 40, 2.0);
        assert_eq!((s.incident_count(), s.suppressed()), (1, 1));
        s.set_context("u", 100);
        s.not_converged(0, 40, 3.0);
        assert_eq!(s.incident_count(), 2);
    }

    #[test]
    fn drift_monitors_fire_on_ceilings() {
        let s = HealthSink::enabled();
        s.set_context("drift", 11);
        s.batch_check(0, Some(1e-3), 1e-12, 0.0);
        s.batch_check(1, None, 1e-3, 1.0);
        let kinds: Vec<String> = s.incidents().iter().map(|i| i.kind.clone()).collect();
        assert_eq!(kinds, vec!["residual-drift", "orthogonality-drift"]);
    }

    #[test]
    fn shard_dead_latches_per_rank() {
        let s = HealthSink::enabled();
        s.set_context("c", 42);
        s.shard_dead(2, 0.0);
        s.shard_dead(2, 1.0); // re-detection of the same rank: suppressed
        s.shard_dead(3, 2.0); // a second dead rank: its own incident
        assert_eq!(s.incident_count(), 2);
        assert_eq!(s.suppressed(), 1);
    }

    #[test]
    fn new_experiment_scope_unlatches() {
        let s = HealthSink::enabled();
        s.set_context("a", 1);
        s.nonfinite("k", 0, "NaN", 0.0);
        s.nonfinite("k", 1, "NaN", 0.1);
        s.set_context("b", 2);
        s.nonfinite("k", 0, "NaN", 1.0);
        assert_eq!(s.incident_count(), 2);
        assert_eq!(s.summary().get("a"), Some(&1));
        assert_eq!(s.summary().get("b"), Some(&1));
    }

    /// The value at `path` (object keys, outermost first) in `v`.
    fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
        path.iter()
            .fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("no `{k}`")))
    }

    /// The keys of the JSON object `v`, in serialization order.
    fn keys(v: &Value) -> Vec<&str> {
        v.as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn incident_json_round_trips() {
        let s = HealthSink::enabled();
        s.set_context("j", 123);
        s.plan_selected(1, 16, 128, 256);
        s.nonfinite("gram", 3, "element 7 is NaN", 1.0);
        let report: Value = serde_json::from_str(&s.report_json()).unwrap();
        assert_eq!(keys(&report), ["suppressed", "incidents"]);
        let incidents = at(&report, &["incidents"]).as_seq().unwrap();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(at(inc, &["kind"]).as_str(), Some("non-finite"));
        assert_eq!(at(inc, &["seed"]).as_u64(), Some(123));
        assert_eq!(at(inc, &["level"]).as_u64(), Some(1));
        assert_eq!(at(inc, &["t_sim"]).as_f64(), Some(1.0));
        assert_eq!(at(inc, &["plan", "w"]).as_u64(), Some(16));
        // Exactly these fields: an incident carries no event log of its own.
        assert_eq!(
            keys(inc),
            [
                "kind",
                "detail",
                "experiment",
                "seed",
                "level",
                "t_sim",
                "plan",
                "metrics"
            ]
        );
    }
}
