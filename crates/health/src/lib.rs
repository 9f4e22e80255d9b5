//! `wsvd-health` — numerical-health watchdogs, convergence telemetry and an
//! always-on flight recorder with structured incident reports.
//!
//! The trace (PR 1), sanitizer (PR 2) and metrics (PR 4) layers observe
//! *scheduling* and *hazards*; this crate observes *numerics* — the
//! quantities the paper's correctness claims actually rest on:
//!
//! * **Watchdogs.** Per-sweep off-diagonal-norm decay per W-cycle level
//!   (stagnation: a level whose off-norm stops shrinking for `k` consecutive
//!   sweeps fires; divergence: an off-norm exploding between sweeps fires
//!   immediately), NaN/Inf detection at simulated kernel boundaries, final
//!   residual / orthogonality drift ceilings, and dead-shard detection on
//!   the cluster model.
//! * **Flight recorder.** A fixed-size ring buffer of recent events (kernel
//!   launches, auto-tuner plan selections, sweep convergence samples,
//!   metric deltas, cluster collectives). Slot reservation is one wait-free
//!   `fetch_add`; publication takes a per-slot lock that is only ever
//!   contended when a writer laps the entire ring mid-write. With the sink
//!   disabled every recording method returns after a single `Option` check.
//! * **Incidents.** When a watchdog fires, the sink assembles a structured,
//!   JSON-serializable [`Incident`]: the trigger, the flight-recorder tail,
//!   a metrics [`Snapshot`](wsvd_metrics::Snapshot), the chosen tailoring
//!   plan, the level/sweep position, and the RNG seed of the workload so the
//!   incident is deterministically replayable.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use wsvd_metrics::MetricsSink;

/// Watchdog thresholds and the flight-recorder capacity. The defaults are
/// tuned so every clean experiment in the repro suite stays green (see
/// DESIGN.md §11 for the derivation of each value).
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Flight-recorder ring capacity (events retained).
    pub ring_capacity: usize,
    /// Consecutive sweeps a level's off-norm may fail to shrink by
    /// [`WatchdogConfig::min_decay`] before the stagnation watchdog fires.
    pub stall_sweeps: usize,
    /// Per-sweep shrink factor the off-norm must beat to count as progress
    /// (`next < min_decay * prev`). Healthy Jacobi *plateaus* near 1 in the
    /// pre-asymptotic phase but still chips off a little coherence every
    /// sweep; a genuinely stagnating level (inner rotations too loose to
    /// out-resolve the outer test) repeats essentially the same value. The
    /// default therefore demands only 0.1% progress per sweep — tight
    /// enough that a frozen level fails it, loose enough that the natural
    /// plateau passes.
    pub min_decay: f64,
    /// Off-norm growth ratio between consecutive sweeps that fires the
    /// divergence watchdog immediately (healthy sweeps never grow the
    /// off-norm by orders of magnitude above round-off).
    pub divergence_factor: f64,
    /// Off-norms at or below this value are round-off noise: they arm
    /// neither the stagnation nor the divergence watchdog (near
    /// convergence, coherence wobbles by orders of magnitude around the
    /// machine floor without meaning anything).
    pub watch_floor: f64,
    /// Ceiling on the per-matrix orthogonality error `||U^T U - I||_max`
    /// over the numerically significant singular directions.
    pub orthogonality_ceiling: f64,
    /// Ceiling on the per-matrix relative reconstruction residual
    /// `||A - U S V^T||_max / sigma_max`.
    pub residual_ceiling: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            ring_capacity: 256,
            stall_sweeps: 6,
            min_decay: 0.999,
            divergence_factor: 1e3,
            watch_floor: 1e-9,
            orthogonality_ceiling: 1e-8,
            residual_ceiling: 1e-8,
        }
    }
}

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
    /// One per-sweep convergence sample of a W-cycle level.
    SweepSample {
        /// W-cycle level.
        level: u64,
        /// Sweep number within the level (1-based).
        sweep: u64,
        /// Maximum normalized column coherence over the level's tasks.
        off_norm: f64,
        /// Tasks still unconverged after this sweep.
        active: u64,
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
    /// A dead rank's orphaned work was fully absorbed by the survivors
    /// (elastic recovery completed; flips its incident to `recovered`).
    ShardRecovered {
        /// The recovered rank.
        rank: u64,
    },
    /// An elastic device pulled a task chunk from the work deque.
    ChunkPulled {
        /// The pulling rank.
        rank: u64,
        /// The chunk id.
        chunk: u64,
    },
    /// An idle elastic device stole a chunk from another rank's remainder.
    ChunkStolen {
        /// The stealing rank.
        thief: u64,
        /// The rank stolen from.
        victim: u64,
        /// The chunk id.
        chunk: u64,
    },
    /// A chunk moved to the requeue pool (its rank died, or it was part of
    /// a dead rank's drained remainder).
    ChunkRequeued {
        /// The rank the chunk was lost from.
        rank: u64,
        /// The chunk id.
        chunk: u64,
    },
    /// A checkpoint of an elastic run was serialized.
    CheckpointTaken {
        /// Serialized size in bytes.
        bytes: u64,
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
            FlightKind::SweepSample { .. } => "sweep-sample",
            FlightKind::MetricDelta { .. } => "metric-delta",
            FlightKind::ShardSync { .. } => "shard-sync",
            FlightKind::ShardKilled { .. } => "shard-killed",
            FlightKind::ShardRecovered { .. } => "shard-recovered",
            FlightKind::ChunkPulled { .. } => "chunk-pulled",
            FlightKind::ChunkStolen { .. } => "chunk-stolen",
            FlightKind::ChunkRequeued { .. } => "chunk-requeued",
            FlightKind::CheckpointTaken { .. } => "checkpoint-taken",
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
            FlightKind::SweepSample {
                level,
                sweep,
                off_norm,
                active,
            } => {
                push("level", serde::Value::U64(*level));
                push("sweep", serde::Value::U64(*sweep));
                push("off_norm", serde::Value::F64(*off_norm));
                push("active", serde::Value::U64(*active));
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
            FlightKind::ShardRecovered { rank } => {
                push("rank", serde::Value::U64(*rank));
            }
            FlightKind::ChunkPulled { rank, chunk } => {
                push("rank", serde::Value::U64(*rank));
                push("chunk", serde::Value::U64(*chunk));
            }
            FlightKind::ChunkStolen {
                thief,
                victim,
                chunk,
            } => {
                push("thief", serde::Value::U64(*thief));
                push("victim", serde::Value::U64(*victim));
                push("chunk", serde::Value::U64(*chunk));
            }
            FlightKind::ChunkRequeued { rank, chunk } => {
                push("rank", serde::Value::U64(*rank));
                push("chunk", serde::Value::U64(*chunk));
            }
            FlightKind::CheckpointTaken { bytes } => {
                push("bytes", serde::Value::U64(*bytes));
            }
            FlightKind::WatchdogFire { kind } => {
                push("kind", serde::Value::Str(kind.clone()));
            }
        }
        serde::Value::Map(m)
    }
}

impl Deserialize for FlightKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| serde::Error::msg(format!("FlightKind missing field `{k}`")))
        };
        let s = |k: &str| -> Result<String, serde::Error> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| serde::Error::msg(format!("FlightKind field `{k}` not a string")))
        };
        let u = |k: &str| -> Result<u64, serde::Error> {
            field(k)?
                .as_u64()
                .ok_or_else(|| serde::Error::msg(format!("FlightKind field `{k}` not a u64")))
        };
        let f = |k: &str| -> Result<f64, serde::Error> {
            field(k)?
                .as_f64()
                .ok_or_else(|| serde::Error::msg(format!("FlightKind field `{k}` not a number")))
        };
        match s("type")?.as_str() {
            "kernel-launch" => Ok(FlightKind::KernelLaunch {
                label: s("label")?,
                grid: u("grid")?,
                kernel_seconds: f("kernel_seconds")?,
            }),
            "plan-selected" => Ok(FlightKind::PlanSelected {
                level: u("level")?,
                w: u("w")?,
                delta: u("delta")?,
                threads: u("threads")?,
            }),
            "sweep-sample" => Ok(FlightKind::SweepSample {
                level: u("level")?,
                sweep: u("sweep")?,
                off_norm: f("off_norm")?,
                active: u("active")?,
            }),
            "metric-delta" => Ok(FlightKind::MetricDelta {
                key: s("key")?,
                delta: f("delta")?,
            }),
            "shard-sync" => Ok(FlightKind::ShardSync {
                bytes: u("bytes")?,
                seconds: f("seconds")?,
            }),
            "shard-killed" => Ok(FlightKind::ShardKilled { rank: u("rank")? }),
            "shard-recovered" => Ok(FlightKind::ShardRecovered { rank: u("rank")? }),
            "chunk-pulled" => Ok(FlightKind::ChunkPulled {
                rank: u("rank")?,
                chunk: u("chunk")?,
            }),
            "chunk-stolen" => Ok(FlightKind::ChunkStolen {
                thief: u("thief")?,
                victim: u("victim")?,
                chunk: u("chunk")?,
            }),
            "chunk-requeued" => Ok(FlightKind::ChunkRequeued {
                rank: u("rank")?,
                chunk: u("chunk")?,
            }),
            "checkpoint-taken" => Ok(FlightKind::CheckpointTaken { bytes: u("bytes")? }),
            "watchdog-fire" => Ok(FlightKind::WatchdogFire { kind: s("kind")? }),
            other => Err(serde::Error::msg(format!(
                "unknown FlightKind type `{other}`"
            ))),
        }
    }
}

/// One flight-recorder entry: a global sequence number, the simulated time
/// at which the event was recorded, and the event itself.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    /// Simulated seconds at recording time.
    pub t_sim: f64,
    /// What happened.
    pub kind: FlightKind,
}

/// Fixed-size ring buffer of [`FlightEvent`]s.
///
/// Writers reserve a slot with one wait-free `fetch_add` on the cursor and
/// publish through that slot's mutex. Distinct concurrent writers get
/// distinct slots, so the per-slot lock is only contended when a writer
/// laps the whole ring while another still holds its slot — with the
/// default capacity of 256 that never happens in practice. Readers
/// ([`FlightRecorder::tail`]) take each slot lock briefly and sort by
/// sequence number; a torn read is impossible, at worst a reader misses an
/// in-flight event.
pub struct FlightRecorder {
    slots: Box<[Mutex<Option<FlightEvent>>]>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotone; the ring keeps the last
    /// [`FlightRecorder::capacity`] of them).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one event at simulated time `t_sim`.
    pub fn record(&self, t_sim: f64, kind: FlightKind) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let ev = FlightEvent { seq, t_sim, kind };
        let mut guard = self.slots[slot].lock();
        // A lapped slot may hold a *newer* event if this writer was parked
        // for a full ring revolution; never overwrite newer with older.
        if guard.as_ref().is_none_or(|old| old.seq <= seq) {
            *guard = Some(ev);
        }
    }

    /// The retained events in sequence order (oldest first).
    pub fn tail(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// The watchdog classes an [`Incident`] can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// A kernel boundary produced NaN/Inf.
    NonFinite,
    /// A level's off-norm stopped shrinking for `stall_sweeps` sweeps.
    Stagnation,
    /// A level's off-norm exploded between sweeps.
    Divergence,
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
            IncidentKind::Stagnation => "stagnation",
            IncidentKind::Divergence => "divergence",
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
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// W-cycle level position, when applicable.
    pub level: Option<u64>,
    /// Sweep position within the level, when applicable.
    pub sweep: Option<u64>,
    /// Simulated seconds at fire time.
    pub t_sim: f64,
    /// The tailoring plan in force, when one had been selected.
    pub plan: Option<PlanChoice>,
    /// The flight-recorder tail at fire time (the watchdog-fire marker is
    /// the last entry).
    pub flight_tail: Vec<FlightEvent>,
    /// Metrics-registry snapshot at fire time (empty when metrics are off).
    pub metrics: wsvd_metrics::Snapshot,
    /// Whether the condition was later recovered from (today: a dead rank
    /// whose orphaned chunks were fully absorbed by the surviving ranks —
    /// see [`HealthSink::shard_recovered`]). Fires as `false`.
    pub recovered: bool,
}

/// Everything `repro --health-dump` writes: the context, the incidents and
/// the current flight tail (even when no watchdog fired).
#[derive(Clone, Debug, Serialize, Deserialize)]
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

/// Per-level stagnation/divergence tracker.
#[derive(Clone, Copy, Debug, Default)]
struct StallTracker {
    last: f64,
    stalled: usize,
}

struct State {
    experiment: String,
    seed: u64,
    plan: Option<PlanChoice>,
    level: Option<u64>,
    sweep: Option<u64>,
    incidents: Vec<Incident>,
    suppressed: u64,
    fired: BTreeSet<String>,
    stall: BTreeMap<u64, StallTracker>,
    metrics: MetricsSink,
}

struct Inner {
    config: WatchdogConfig,
    recorder: FlightRecorder,
    state: Mutex<State>,
}

/// A cheaply clonable handle producers record into; clones share one
/// recorder and watchdog state.
///
/// `HealthSink::default()` is **disabled**: every method returns after one
/// `Option` check. Producers guard any computation done *only* for health
/// (e.g. computing an off-norm that tracing has not already computed)
/// behind [`HealthSink::is_enabled`], so with the sink off, simulated time
/// and numerics are bit-identical to a build without the crate. An enabled
/// sink is also purely observational: nothing it does is charged to the
/// simulator's cost model.
#[derive(Clone, Default)]
pub struct HealthSink {
    inner: Option<Arc<Inner>>,
}

impl HealthSink {
    /// A recording sink with default watchdog thresholds. Incident
    /// snapshots stay empty until [`HealthSink::set_metrics`] connects a
    /// metrics registry.
    pub fn enabled() -> Self {
        Self::with_config(WatchdogConfig::default())
    }

    /// A recording sink with explicit thresholds.
    pub fn with_config(config: WatchdogConfig) -> Self {
        HealthSink {
            inner: Some(Arc::new(Inner {
                recorder: FlightRecorder::new(config.ring_capacity),
                config,
                state: Mutex::new(State {
                    experiment: String::new(),
                    seed: 0,
                    plan: None,
                    level: None,
                    sweep: None,
                    incidents: Vec::new(),
                    suppressed: 0,
                    fired: BTreeSet::new(),
                    stall: BTreeMap::new(),
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

    /// The active watchdog thresholds (defaults when disabled).
    pub fn config(&self) -> WatchdogConfig {
        self.inner.as_ref().map(|i| i.config).unwrap_or_default()
    }

    /// Sets the experiment scope and workload seed stamped into subsequent
    /// incidents, and resets the per-level stagnation trackers (a new
    /// workload starts fresh). Incident latches are keyed per experiment,
    /// so a new scope may fire the same kind again.
    pub fn set_context(&self, experiment: &str, seed: u64) {
        if let Some(i) = &self.inner {
            let mut st = i.state.lock();
            st.experiment = experiment.to_string();
            st.seed = seed;
            st.stall.clear();
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

    /// One per-sweep convergence sample: runs the level-aware stagnation
    /// and divergence watchdogs. `sweep` is 1-based within the level;
    /// `active` counts tasks still unconverged *after* this sweep (samples
    /// with `active == 0` close out the level's tracker).
    pub fn sweep_sample(
        &self,
        level: usize,
        sweep: usize,
        off_norm: f64,
        active: usize,
        t_sim: f64,
    ) {
        let Some(i) = &self.inner else { return };
        i.recorder.record(
            t_sim,
            FlightKind::SweepSample {
                level: level as u64,
                sweep: sweep as u64,
                off_norm,
                active: active as u64,
            },
        );
        let cfg = i.config;
        let mut st = i.state.lock();
        st.level = Some(level as u64);
        st.sweep = Some(sweep as u64);
        if active == 0 {
            st.stall.remove(&(level as u64));
            return;
        }
        if sweep <= 1 {
            // A fresh `decompose_level` call (recursion re-enters the same
            // level repeatedly): restart the tracker.
            st.stall.insert(
                level as u64,
                StallTracker {
                    last: off_norm,
                    stalled: 0,
                },
            );
            return;
        }
        let tr = st.stall.entry(level as u64).or_default();
        let prev = tr.last;
        if off_norm <= cfg.watch_floor {
            // Round-off territory: nothing down here is a meaningful signal.
            tr.last = off_norm;
            tr.stalled = 0;
            return;
        }
        if prev > cfg.watch_floor && off_norm > prev * cfg.divergence_factor {
            tr.last = off_norm;
            let detail = format!(
                "level {level} off-norm grew {prev:.3e} -> {off_norm:.3e} \
                 (> {}x) at sweep {sweep}",
                cfg.divergence_factor
            );
            drop(st);
            self.fire(IncidentKind::Divergence, &detail, t_sim);
            return;
        }
        if prev > cfg.watch_floor && off_norm > prev * cfg.min_decay {
            tr.stalled += 1;
        } else {
            tr.stalled = 0;
        }
        tr.last = off_norm;
        if tr.stalled >= cfg.stall_sweeps {
            let stalled = tr.stalled;
            let detail = format!(
                "level {level} off-norm stuck at {off_norm:.3e} for {stalled} \
                 consecutive sweeps (through sweep {sweep}, {active} task(s) active)"
            );
            drop(st);
            self.fire(IncidentKind::Stagnation, &detail, t_sim);
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
        let Some(i) = &self.inner else { return };
        let cfg = i.config;
        if orthogonality > cfg.orthogonality_ceiling {
            self.fire(
                IncidentKind::OrthogonalityDrift,
                &format!(
                    "matrix {matrix}: ||U^T U - I|| = {orthogonality:.3e} \
                     exceeds ceiling {:.1e}",
                    cfg.orthogonality_ceiling
                ),
                t_sim,
            );
        }
        if let Some(r) = residual {
            if r > cfg.residual_ceiling {
                self.fire(
                    IncidentKind::ResidualDrift,
                    &format!(
                        "matrix {matrix}: relative residual {r:.3e} exceeds ceiling {:.1e}",
                        cfg.residual_ceiling
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
    /// killed rank is first detected — at a collective barrier or, on the
    /// elastic path, at a chunk-pull boundary). Latched per rank, so two
    /// dead ranks produce two incidents but repeated checks of one rank do
    /// not.
    pub fn shard_dead(&self, rank: usize, t_sim: f64) {
        if self.inner.is_some() {
            self.fire_keyed(
                IncidentKind::ShardDead,
                &format!("rank{rank}"),
                &format!("rank {rank} unresponsive at a collective or chunk-pull boundary"),
                t_sim,
            );
        }
    }

    /// Marks rank `rank`'s `shard-dead` incident recovered: the elastic
    /// executor absorbed all of the dead rank's orphaned work, so the
    /// incident documents a survived fault, not a lost run. Also drops a
    /// `shard-recovered` marker in the flight tail.
    pub fn shard_recovered(&self, rank: usize, t_sim: f64) {
        let Some(i) = &self.inner else { return };
        i.recorder
            .record(t_sim, FlightKind::ShardRecovered { rank: rank as u64 });
        let needle = format!("rank {rank} ");
        let mut st = i.state.lock();
        for inc in st
            .incidents
            .iter_mut()
            .filter(|inc| inc.kind == IncidentKind::ShardDead.as_str())
        {
            if inc.detail.contains(&needle) {
                inc.recovered = true;
            }
        }
    }

    /// Records an elastic chunk pull.
    pub fn chunk_pulled(&self, rank: usize, chunk: usize, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder.record(
                t_sim,
                FlightKind::ChunkPulled {
                    rank: rank as u64,
                    chunk: chunk as u64,
                },
            );
        }
    }

    /// Records an elastic work steal.
    pub fn chunk_stolen(&self, thief: usize, victim: usize, chunk: usize, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder.record(
                t_sim,
                FlightKind::ChunkStolen {
                    thief: thief as u64,
                    victim: victim as u64,
                    chunk: chunk as u64,
                },
            );
        }
    }

    /// Records a chunk landing in the requeue pool.
    pub fn chunk_requeued(&self, rank: usize, chunk: usize, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder.record(
                t_sim,
                FlightKind::ChunkRequeued {
                    rank: rank as u64,
                    chunk: chunk as u64,
                },
            );
        }
    }

    /// Records a serialized checkpoint of an elastic run.
    pub fn checkpoint_taken(&self, bytes: u64, t_sim: f64) {
        if let Some(i) = &self.inner {
            i.recorder
                .record(t_sim, FlightKind::CheckpointTaken { bytes });
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
            sweep: st.sweep,
            t_sim,
            plan: st.plan,
            flight_tail: i.recorder.tail(),
            metrics: st.metrics.snapshot(),
            recovered: false,
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

    #[test]
    fn disabled_sink_is_a_strict_noop() {
        let s = HealthSink::disabled();
        assert!(!s.is_enabled());
        s.set_context("e", 7);
        s.kernel_launch("k", 4, 1e-6, 0.0);
        s.plan_selected(1, 8, 64, 256, 0.0);
        s.sweep_sample(1, 1, 0.5, 3, 0.0);
        s.sweep_sample(1, 2, 0.5, 3, 0.0);
        s.batch_check(0, Some(1.0), 1.0, 0.0);
        s.nonfinite("k", 0, "NaN", 0.0);
        s.shard_dead(2, 0.0);
        s.shard_recovered(2, 0.0);
        s.chunk_pulled(0, 1, 0.0);
        s.chunk_stolen(0, 1, 2, 0.0);
        s.chunk_requeued(1, 2, 0.0);
        s.checkpoint_taken(4096, 0.0);
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
    fn stagnation_fires_once_after_k_stuck_sweeps() {
        let s = HealthSink::with_config(WatchdogConfig {
            stall_sweeps: 3,
            ..Default::default()
        });
        s.set_context("t", 99);
        s.plan_selected(1, 8, 64, 256, 0.0);
        // Healthy decay, then a plateau.
        let series = [1e-1, 1e-2, 9.9e-3, 9.9e-3, 9.9e-3, 9.9e-3, 9.9e-3];
        for (k, &x) in series.iter().enumerate() {
            s.sweep_sample(1, k + 1, x, 2, k as f64);
        }
        assert_eq!(s.incident_count(), 1, "{:?}", s.incidents());
        let inc = &s.incidents()[0];
        assert_eq!(inc.kind, "stagnation");
        assert_eq!(inc.seed, 99);
        assert_eq!(inc.experiment, "t");
        assert_eq!(inc.level, Some(1));
        assert_eq!(inc.plan.unwrap().w, 8);
        assert!(matches!(
            inc.flight_tail.last().unwrap().kind,
            FlightKind::WatchdogFire { .. }
        ));
        // Further stuck sweeps are suppressed cascades, not new incidents.
        s.sweep_sample(1, 8, 9.9e-3, 2, 8.0);
        assert_eq!(s.incident_count(), 1);
        assert!(s.suppressed() >= 1);
    }

    #[test]
    fn healthy_decay_and_convergence_stay_green() {
        let s = HealthSink::enabled();
        s.set_context("green", 1);
        let mut x = 1.0;
        for k in 0..12 {
            x *= 0.5;
            s.sweep_sample(1, k + 1, x, 1, k as f64);
        }
        s.sweep_sample(1, 13, 0.0, 0, 13.0); // converged: closes the tracker
        s.batch_check(0, Some(1e-13), 1e-14, 14.0);
        assert_eq!(s.incident_count(), 0, "{:?}", s.incidents());
    }

    #[test]
    fn divergence_fires_immediately() {
        let s = HealthSink::enabled();
        s.set_context("d", 3);
        s.sweep_sample(2, 1, 1e-6, 1, 0.0);
        s.sweep_sample(2, 2, 1e-2, 1, 1.0);
        assert_eq!(s.incident_count(), 1);
        assert_eq!(s.incidents()[0].kind, "divergence");
        assert_eq!(s.incidents()[0].sweep, Some(2));
    }

    #[test]
    fn recursion_reentry_resets_the_level_tracker() {
        let s = HealthSink::with_config(WatchdogConfig {
            stall_sweeps: 2,
            ..Default::default()
        });
        s.set_context("r", 5);
        // Three separate 2-sweep visits to level 2 (as recursion does);
        // each alone is too short to stall even though the values repeat.
        for visit in 0..3 {
            s.sweep_sample(2, 1, 1e-3, 1, visit as f64);
            s.sweep_sample(2, 2, 1e-3, 1, visit as f64 + 0.5);
        }
        assert_eq!(s.incident_count(), 0);
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
    fn shard_recovered_flips_only_the_matching_incident() {
        let s = HealthSink::enabled();
        s.set_context("rec", 9);
        s.shard_dead(2, 0.0);
        s.shard_dead(13, 1.0); // "rank 1" must not match "rank 13"
        assert!(s.incidents().iter().all(|i| !i.recovered));
        s.shard_recovered(1, 2.0); // no rank-1 incident: nothing flips
        assert!(s.incidents().iter().all(|i| !i.recovered));
        s.shard_recovered(2, 3.0);
        let incidents = s.incidents();
        let by_rank = |needle: &str| {
            incidents
                .iter()
                .find(|i| i.detail.contains(needle))
                .unwrap()
        };
        assert!(by_rank("rank 2 ").recovered);
        assert!(!by_rank("rank 13 ").recovered);
        assert!(s
            .tail()
            .iter()
            .any(|e| matches!(e.kind, FlightKind::ShardRecovered { rank: 2 })));
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

    #[test]
    fn incident_json_round_trips() {
        let s = HealthSink::enabled();
        s.set_context("j", 123);
        s.plan_selected(1, 16, 128, 256, 0.5);
        s.nonfinite("gram", 3, "element 7 is NaN", 1.0);
        let json = s.report_json();
        let parsed: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.incidents.len(), 1);
        let inc = &parsed.incidents[0];
        assert_eq!(inc.kind, "non-finite");
        assert_eq!(inc.seed, 123);
        assert_eq!(inc.plan.unwrap().w, 16);
        assert_eq!(inc.flight_tail.len(), 2);
        assert_eq!(parsed.events_recorded, 2);
    }

    #[test]
    fn flight_kinds_round_trip_through_serde() {
        let kinds = vec![
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
            FlightKind::SweepSample {
                level: 2,
                sweep: 3,
                off_norm: 0.25,
                active: 4,
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
            FlightKind::ShardRecovered { rank: 2 },
            FlightKind::ChunkPulled { rank: 1, chunk: 5 },
            FlightKind::ChunkStolen {
                thief: 3,
                victim: 0,
                chunk: 7,
            },
            FlightKind::ChunkRequeued { rank: 0, chunk: 7 },
            FlightKind::CheckpointTaken { bytes: 8192 },
            FlightKind::WatchdogFire {
                kind: "stagnation".into(),
            },
        ];
        for kind in kinds {
            let v = Serialize::to_value(&kind);
            let back = FlightKind::from_value(&v).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn global_defaults_to_disabled() {
        assert!(!global().is_enabled() || GLOBAL.get().is_some());
    }
}
