//! `wsvd-health` — numerical-health watchdogs, convergence telemetry and an
//! always-on flight recorder with structured incident reports.
//!
//! The trace (PR 1), sanitizer (PR 2) and metrics (PR 4) layers observe
//! *scheduling* and *hazards*; this crate observes *numerics* — the
//! quantities the paper's correctness claims actually rest on:
//!
//! * **Watchdogs.** The per-matrix convergence status the engines return
//!   (a matrix that hit its sweep cap is `not-converged`), NaN/Inf
//!   detection at simulated kernel boundaries, final residual /
//!   orthogonality drift ceilings, and dead-shard detection on the cluster
//!   model.
//! * **Flight recorder.** A bounded log of the most recent events (kernel
//!   launches, auto-tuner plan selections, metric deltas, cluster
//!   collectives), kept under one lock. With the sink disabled every
//!   recording method returns after a single `Option` check.
//! * **Incidents.** When a watchdog fires, the sink assembles a structured,
//!   JSON-serializable [`Incident`]: the trigger, the flight-recorder tail,
//!   a metrics [`Snapshot`](wsvd_metrics::Snapshot), the chosen tailoring
//!   plan and its level, and the RNG seed of the workload so the incident is
//!   deterministically replayable.
//!
//! Design rules mirror `wsvd-trace` / `wsvd-metrics`: the default sink is a
//! strict no-op, all watchdog state lives host-side (nothing is charged to
//! the simulator's cost model), and an enabled sink never changes simulated
//! time or numerics — only observes them. Incident *storms* are suppressed:
//! the first incident of a kind per experiment is kept, cascading repeats
//! only bump a counter (a NaN poisons every downstream kernel; one report
//! is the signal, the rest is noise).

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::Serialize;
use wsvd_metrics::MetricsSink;

/// Flight-recorder ring capacity (events retained).
const RING_CAPACITY: usize = 256;

/// Ceiling on the per-matrix orthogonality error `||U^T U - I||_max` over
/// the numerically significant singular directions.
const ORTHOGONALITY_CEILING: f64 = 1e-8;

/// Ceiling on the per-matrix relative reconstruction residual
/// `||A - U S V^T||_max / sigma_max`.
const RESIDUAL_CEILING: f64 = 1e-8;

/// One event kind in the flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightKind {
    /// A simulated kernel launch retired.
    KernelLaunch {
        /// Kernel label (the `KernelConfig` label).
        label: String,
        /// Grid size (blocks).
        grid: u64,
        /// Simulated kernel seconds of this launch.
        kernel_seconds: f64,
    },
    /// The auto-tuner chose a tailoring plan for a level.
    PlanSelected {
        /// W-cycle level.
        level: u64,
        /// Chosen pair-block half width `w`.
        w: u64,
        /// Chosen segment length `delta`.
        delta: u64,
        /// Chosen threads per block.
        threads: u64,
    },
    /// A metrics-registry delta worth keeping in the flight tail.
    MetricDelta {
        /// Metric key (free-form, typically `kernel/L<level>/name`).
        key: String,
        /// The recorded increment.
        delta: f64,
    },
    /// A cluster collective (gather/allreduce) completed.
    ShardSync {
        /// Bytes moved by the collective.
        bytes: u64,
        /// Seconds charged for it.
        seconds: f64,
    },
    /// A cluster rank was killed (fault injection).
    ShardKilled {
        /// The killed rank.
        rank: u64,
    },
    /// A watchdog fired (the marker lands in the tail of its own incident).
    WatchdogFire {
        /// The incident kind string (see [`IncidentKind::as_str`]).
        kind: String,
    },
}

impl FlightKind {
    fn type_tag(&self) -> &'static str {
        match self {
            FlightKind::KernelLaunch { .. } => "kernel-launch",
            FlightKind::PlanSelected { .. } => "plan-selected",
            FlightKind::MetricDelta { .. } => "metric-delta",
            FlightKind::ShardSync { .. } => "shard-sync",
            FlightKind::ShardKilled { .. } => "shard-killed",
            FlightKind::WatchdogFire { .. } => "watchdog-fire",
        }
    }
}

// The serde shim derives only named-field structs, so the enum's mapping to
// a tagged JSON object is written out by hand.
impl Serialize for FlightKind {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> =
            vec![("type".into(), serde::Value::Str(self.type_tag().into()))];
        let mut push = |k: &str, v: serde::Value| m.push((k.to_string(), v));
        match self {
            FlightKind::KernelLaunch {
                label,
                grid,
                kernel_seconds,
            } => {
                push("label", serde::Value::Str(label.clone()));
                push("grid", serde::Value::U64(*grid));
                push("kernel_seconds", serde::Value::F64(*kernel_seconds));
            }
            FlightKind::PlanSelected {
                level,
                w,
                delta,
                threads,
            } => {
                push("level", serde::Value::U64(*level));
                push("w", serde::Value::U64(*w));
                push("delta", serde::Value::U64(*delta));
                push("threads", serde::Value::U64(*threads));
            }
            FlightKind::MetricDelta { key, delta } => {
                push("key", serde::Value::Str(key.clone()));
                push("delta", serde::Value::F64(*delta));
            }
            FlightKind::ShardSync { bytes, seconds } => {
                push("bytes", serde::Value::U64(*bytes));
                push("seconds", serde::Value::F64(*seconds));
            }
            FlightKind::ShardKilled { rank } => {
                push("rank", serde::Value::U64(*rank));
            }
            FlightKind::WatchdogFire { kind } => {
                push("kind", serde::Value::Str(kind.clone()));
            }
        }
        serde::Value::Map(m)
    }
}

/// One flight-recorder entry: a global sequence number, the simulated time
/// at which the event was recorded, and the event itself.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FlightEvent {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    /// Simulated seconds at recording time.
    pub t_sim: f64,
    /// What happened.
    pub kind: FlightKind,
}

/// Bounded log of the last [`FlightRecorder::capacity`] [`FlightEvent`]s.
///
/// One lock guards the retained events and the running count, so a
/// sequence number is assigned and its event stored in one step: the tail
/// is always the newest events, in sequence order. The recorder is `Sync`
/// because the installed session's health sink lives in a static.
pub struct FlightRecorder {
    capacity: usize,
    log: Mutex<FlightLog>,
}

struct FlightLog {
    events: VecDeque<FlightEvent>,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            log: Mutex::new(FlightLog {
                events: VecDeque::with_capacity(capacity),
                recorded: 0,
            }),
        }
    }

    /// Number of events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (monotone; the recorder keeps the last
    /// [`FlightRecorder::capacity`] of them).
    pub fn recorded(&self) -> u64 {
        self.log.lock().recorded
    }

    /// Records one event at simulated time `t_sim`.
    pub fn record(&self, t_sim: f64, kind: FlightKind) {
        let mut log = self.log.lock();
        let seq = log.recorded;
        log.recorded += 1;
        if log.events.len() == self.capacity {
            log.events.pop_front();
        }
        log.events.push_back(FlightEvent { seq, t_sim, kind });
    }

    /// The retained events in sequence order (oldest first).
    pub fn tail(&self) -> Vec<FlightEvent> {
        self.log.lock().events.iter().cloned().collect()
    }
}

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
    /// RNG seed of the workload — regenerating the inputs from this seed
    /// and re-running deterministically reproduces the incident.
    pub seed: u64,
    /// W-cycle level of the plan in force, when one had been selected.
    pub level: Option<u64>,
    /// Simulated seconds at fire time.
    pub t_sim: f64,
    /// The tailoring plan in force, when one had been selected.
    pub plan: Option<PlanChoice>,
    /// The flight-recorder tail at fire time (the watchdog-fire marker is
    /// the last entry).
    pub flight_tail: Vec<FlightEvent>,
    /// Metrics-registry snapshot at fire time (empty when metrics are off).
    pub metrics: wsvd_metrics::Snapshot,
}

/// Everything `repro --health-dump` writes: the context, the incidents and
/// the current flight tail (even when no watchdog fired).
#[derive(Clone, Debug, Serialize)]
pub struct HealthReport {
    /// Current experiment scope.
    pub experiment: String,
    /// Current workload seed.
    pub seed: u64,
    /// Total flight events ever recorded.
    pub events_recorded: u64,
    /// Incidents suppressed as cascades of an already-reported kind.
    pub suppressed: u64,
    /// All incidents, in fire order.
    pub incidents: Vec<Incident>,
    /// The current flight-recorder tail.
    pub flight_tail: Vec<FlightEvent>,
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

struct Inner {
    recorder: FlightRecorder,
    state: Mutex<State>,
}

/// A cheaply clonable handle producers record into; clones share one
/// recorder and watchdog state.
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
    inner: Option<Arc<Inner>>,
}

impl HealthSink {
    /// A recording sink. Incident snapshots stay empty until
    /// [`HealthSink::set_metrics`] connects a metrics registry.
    pub fn enabled() -> Self {
        HealthSink {
            inner: Some(Arc::new(Inner {
                recorder: FlightRecorder::new(RING_CAPACITY),
                state: Mutex::new(State {
                    experiment: String::new(),
                    seed: 0,
                    plan: None,
                    level: None,
                    incidents: Vec::new(),
                    suppressed: 0,
                    fired: BTreeSet::new(),
                    metrics: MetricsSink::default(),
                }),
            })),
        }
    }

    /// A no-op sink (same as `default()`).
    pub fn disabled() -> Self {
        HealthSink::default()
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
            let mut st = i.state.lock();
            st.experiment = experiment.to_string();
            st.seed = seed;
        }
    }

    /// Updates only the workload seed (called by the data generators, so
    /// incidents always carry the seed of the most recent generation).
    pub fn note_seed(&self, seed: u64) {
        if let Some(i) = &self.inner {
            i.state.lock().seed = seed;
        }
    }

    /// The current `(experiment, seed)` context.
    pub fn context(&self) -> (String, u64) {
        match &self.inner {
            None => (String::new(), 0),
            Some(i) => {
                let st = i.state.lock();
                (st.experiment.clone(), st.seed)
            }
        }
    }

    /// Replaces the metrics sink captured into incident snapshots.
    pub fn set_metrics(&self, metrics: MetricsSink) {
        if let Some(i) = &self.inner {
            i.state.lock().metrics = metrics;
        }
    }

    /// Records a raw flight event.
    pub fn record(&self, t_sim: f64, kind: FlightKind) {
        if let Some(i) = &self.inner {
            i.recorder.record(t_sim, kind);
        }
    }

    /// Records a retired kernel launch.
    pub fn kernel_launch(&self, label: &str, grid: usize, kernel_seconds: f64, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder.record(
                t_sim,
                FlightKind::KernelLaunch {
                    label: label.to_string(),
                    grid: grid as u64,
                    kernel_seconds,
                },
            );
        }
    }

    /// Records an auto-tuner plan selection and remembers it as the plan in
    /// force for subsequent incidents.
    pub fn plan_selected(&self, level: usize, w: usize, delta: usize, threads: usize, t_sim: f64) {
        if let Some(i) = &self.inner {
            let plan = PlanChoice {
                level: level as u64,
                w: w as u64,
                delta: delta as u64,
                threads: threads as u64,
            };
            i.recorder.record(
                t_sim,
                FlightKind::PlanSelected {
                    level: plan.level,
                    w: plan.w,
                    delta: plan.delta,
                    threads: plan.threads,
                },
            );
            let mut st = i.state.lock();
            st.plan = Some(plan);
            st.level = Some(level as u64);
        }
    }

    /// Records a metrics delta worth keeping in the flight tail.
    pub fn metric_delta(&self, key: &str, delta: f64, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder.record(
                t_sim,
                FlightKind::MetricDelta {
                    key: key.to_string(),
                    delta,
                },
            );
        }
    }

    /// Records a cluster collective.
    pub fn shard_sync(&self, bytes: u64, seconds: f64, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder
                .record(t_sim, FlightKind::ShardSync { bytes, seconds });
        }
    }

    /// Records a rank kill (fault injection marker; detection and the
    /// incident come from [`HealthSink::shard_dead`]).
    pub fn shard_killed(&self, rank: usize, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder
                .record(t_sim, FlightKind::ShardKilled { rank: rank as u64 });
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
        let mut st = i.state.lock();
        let latch = format!("{}:{}:{subkey}", st.experiment, kind.as_str());
        if !st.fired.insert(latch) {
            st.suppressed += 1;
            return;
        }
        // The fire marker is recorded *before* the tail is captured, so an
        // incident's flight tail ends with its own watchdog-fire event.
        i.recorder.record(
            t_sim,
            FlightKind::WatchdogFire {
                kind: kind.as_str().to_string(),
            },
        );
        let incident = Incident {
            kind: kind.as_str().to_string(),
            detail: detail.to_string(),
            experiment: st.experiment.clone(),
            seed: st.seed,
            level: st.level,
            t_sim,
            plan: st.plan,
            flight_tail: i.recorder.tail(),
            metrics: st.metrics.snapshot(),
        };
        st.incidents.push(incident);
    }

    /// All incidents fired so far, in order.
    pub fn incidents(&self) -> Vec<Incident> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.state.lock().incidents.clone(),
        }
    }

    /// Number of incidents fired so far.
    pub fn incident_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.state.lock().incidents.len())
    }

    /// Cascaded fires suppressed by the per-kind latch.
    pub fn suppressed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().suppressed)
    }

    /// Total flight events ever recorded (0 when disabled).
    pub fn events_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.recorder.recorded())
    }

    /// The current flight-recorder tail (empty when disabled).
    pub fn tail(&self) -> Vec<FlightEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.recorder.tail())
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
        let (experiment, seed) = self.context();
        let report = HealthReport {
            experiment,
            seed,
            events_recorded: self.events_recorded(),
            suppressed: self.suppressed(),
            incidents: self.incidents(),
            flight_tail: self.tail(),
        };
        serde_json::to_string_pretty(&report).expect("health report serializes")
    }
}

/// The process-wide health sink. Devices take theirs from the
/// `wsvd_gpu_sim::Session` they are built under; this copy exists because
/// `wsvd-linalg`'s generators note each workload seed into it, and linalg
/// sits below gpu-sim in the crate graph.
static GLOBAL: OnceLock<HealthSink> = OnceLock::new();

/// Installs `sink` as the process-wide sink that [`global`] hands out.
/// Returns `false` if a sink was already installed (the first one wins).
/// `wsvd_gpu_sim::Session::install` is the only caller.
pub fn install_global(sink: HealthSink) -> bool {
    GLOBAL.set(sink).is_ok()
}

/// The installed global sink, or a disabled one if none was installed.
pub fn global() -> HealthSink {
    GLOBAL.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn disabled_sink_is_a_strict_noop() {
        let s = HealthSink::disabled();
        assert!(!s.is_enabled());
        s.set_context("e", 7);
        s.kernel_launch("k", 4, 1e-6, 0.0);
        s.plan_selected(1, 8, 64, 256, 0.0);
        s.not_converged(0, 40, 0.0);
        s.batch_check(0, Some(1.0), 1.0, 0.0);
        s.nonfinite("k", 0, "NaN", 0.0);
        s.shard_dead(2, 0.0);
        assert_eq!(s.events_recorded(), 0);
        assert_eq!(s.incident_count(), 0);
        assert!(s.tail().is_empty());
        assert_eq!(s.context(), (String::new(), 0));
    }

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let r = FlightRecorder::new(8);
        for k in 0..20u64 {
            r.record(k as f64, FlightKind::ShardKilled { rank: k });
        }
        assert_eq!(r.recorded(), 20);
        let tail = r.tail();
        assert_eq!(tail.len(), 8);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn not_converged_fires_once_per_experiment() {
        let s = HealthSink::enabled();
        s.set_context("t", 99);
        s.plan_selected(1, 8, 64, 256, 0.0);
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
        assert!(matches!(
            inc.flight_tail.last().unwrap().kind,
            FlightKind::WatchdogFire { .. }
        ));
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

    #[test]
    fn incident_json_round_trips() {
        let s = HealthSink::enabled();
        s.set_context("j", 123);
        s.plan_selected(1, 16, 128, 256, 0.5);
        s.nonfinite("gram", 3, "element 7 is NaN", 1.0);
        let report: Value = serde_json::from_str(&s.report_json()).unwrap();
        let incidents = at(&report, &["incidents"]).as_seq().unwrap();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(at(inc, &["kind"]).as_str(), Some("non-finite"));
        assert_eq!(at(inc, &["seed"]).as_u64(), Some(123));
        assert_eq!(at(inc, &["plan", "w"]).as_u64(), Some(16));
        let tags: Vec<_> = at(inc, &["flight_tail"])
            .as_seq()
            .unwrap()
            .iter()
            .map(|e| at(e, &["kind", "type"]).as_str().unwrap())
            .collect();
        assert_eq!(tags, ["plan-selected", "watchdog-fire"]);
        assert_eq!(at(&report, &["events_recorded"]).as_u64(), Some(2));
    }

    #[test]
    fn flight_kinds_round_trip_through_serde() {
        let kinds = [
            FlightKind::KernelLaunch {
                label: "k".into(),
                grid: 7,
                kernel_seconds: 1e-6,
            },
            FlightKind::PlanSelected {
                level: 1,
                w: 8,
                delta: 64,
                threads: 256,
            },
            FlightKind::MetricDelta {
                key: "wcycle/L1/level_seconds".into(),
                delta: 0.5,
            },
            FlightKind::ShardSync {
                bytes: 1024,
                seconds: 3e-5,
            },
            FlightKind::ShardKilled { rank: 2 },
            FlightKind::WatchdogFire {
                kind: "not-converged".into(),
            },
        ];
        let tags = [
            "kernel-launch",
            "plan-selected",
            "metric-delta",
            "shard-sync",
            "shard-killed",
            "watchdog-fire",
        ];
        for (kind, tag) in kinds.iter().zip(tags) {
            let json = serde_json::to_string(kind).unwrap();
            let parsed: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(at(&parsed, &["type"]).as_str(), Some(tag));
            assert_eq!(parsed, kind.to_value(), "{tag}: every field survives JSON");
        }
    }

    #[test]
    fn global_defaults_to_disabled() {
        assert!(!global().is_enabled() || GLOBAL.get().is_some());
    }
}
