//! Structured tracing for the W-cycle SVD stack.
//!
//! Events are recorded against **simulated** time (the `gpu-sim` clock), not
//! host wall-clock, so a trace of a seeded workload is a deterministic
//! artifact: the same run produces byte-identical output. Three event kinds
//! cover the stack's needs:
//!
//! * **spans** — an interval on a track (a kernel launch, a W-cycle level);
//! * **instants** — a point event (a sweep finishing, a plan being chosen);
//! * **counters** — a sampled time series (occupancy, GM bytes).
//!
//! The [`TraceSink`] is opt-in: the default handle is disabled and every
//! recording call is a single `Option` check, so instrumented hot paths cost
//! nothing when tracing is off. Call sites that must *compute* values for a
//! trace (e.g. off-diagonal coherence) should guard on
//! [`TraceSink::is_enabled`].
//!
//! Two exporters turn a recorded event list into artifacts:
//! [`chrome_trace_json`] writes the Chrome trace-event format (loadable in
//! Perfetto or `chrome://tracing`), and [`flame_summary`] renders a
//! human-readable per-track time breakdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

/// A value attached to an event under a named key.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counters, counts, sizes).
    U64(u64),
    /// Floating-point (seconds, coherence, scores).
    F64(f64),
    /// Short label.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What happened and when (times in simulated seconds).
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// An interval `[start, start + dur]`.
    Span {
        /// Start time in simulated seconds.
        start: f64,
        /// Duration in simulated seconds.
        dur: f64,
    },
    /// A point event.
    Instant {
        /// Time in simulated seconds.
        ts: f64,
    },
    /// One sample of a named time series.
    Counter {
        /// Sample time in simulated seconds.
        ts: f64,
        /// Sampled value.
        value: f64,
    },
}

/// One trace event on a `(pid, track)` lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Process id: groups tracks that belong together (one per simulated
    /// GPU, or a logical domain like the W-cycle orchestrator).
    pub pid: u32,
    /// Track (thread lane) name within the process.
    pub track: String,
    /// Event name.
    pub name: String,
    /// Kind and timing.
    pub kind: EventKind,
    /// Key/value payload shown in trace viewers.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Default)]
struct Inner {
    events: Vec<Event>,
    /// Human names for pids, in registration order.
    processes: Vec<(u32, String)>,
    next_pid: AtomicU32,
    /// Experiment scope prefixed to process names registered under it.
    scope: String,
}

/// A cheaply clonable handle that event producers record into.
///
/// `TraceSink::default()` is **disabled**: all recording methods return
/// immediately after one `Option` check. An enabled sink appends to a shared
/// in-memory buffer; emission order is the deterministic order of the
/// single-threaded orchestration code, which is what makes exported traces
/// byte-identical run-to-run.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl TraceSink {
    /// A recording sink.
    pub fn enabled() -> Self {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(Inner {
                next_pid: AtomicU32::new(1),
                ..Inner::default()
            }))),
        }
    }

    /// A no-op sink (same as `default()`).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Whether events are being recorded. Producers should guard any
    /// non-trivial computation done *only* for tracing behind this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the experiment scope: processes registered from now on are
    /// named `"<scope> · <name>"`, so the devices of two experiments in one
    /// trace never share a name. An empty scope (the default) keeps bare
    /// names.
    pub fn set_scope(&self, scope: &str) {
        if let Some(m) = &self.inner {
            m.lock().unwrap_or_else(|e| e.into_inner()).scope = scope.to_string();
        }
    }

    /// Allocates a fresh pid and registers its display name, prefixed by
    /// the current scope. Returns 0 on a disabled sink (no id is consumed,
    /// keeping enabled runs reproducible).
    pub fn register_process(&self, name: &str) -> u32 {
        match &self.inner {
            None => 0,
            Some(m) => {
                let mut inner = m.lock().unwrap_or_else(|e| e.into_inner());
                let pid = inner.next_pid.fetch_add(1, Ordering::Relaxed);
                let name = match inner.scope.as_str() {
                    "" => name.to_string(),
                    scope => format!("{scope} · {name}"),
                };
                inner.processes.push((pid, name));
                pid
            }
        }
    }

    /// Records a fully-formed event.
    pub fn record(&self, event: Event) {
        if let Some(m) = &self.inner {
            m.lock()
                .unwrap_or_else(|e| e.into_inner())
                .events
                .push(event);
        }
    }

    /// Records a span of `dur` simulated seconds starting at `start`.
    pub fn span(
        &self,
        pid: u32,
        track: &str,
        name: &str,
        start: f64,
        dur: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.inner.is_some() {
            self.record(Event {
                pid,
                track: track.to_string(),
                name: name.to_string(),
                kind: EventKind::Span { start, dur },
                args,
            });
        }
    }

    /// Records a point event at simulated time `ts`.
    pub fn instant(
        &self,
        pid: u32,
        track: &str,
        name: &str,
        ts: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.inner.is_some() {
            self.record(Event {
                pid,
                track: track.to_string(),
                name: name.to_string(),
                kind: EventKind::Instant { ts },
                args,
            });
        }
    }

    /// Records one sample of the counter series `name`.
    pub fn counter(&self, pid: u32, track: &str, name: &str, ts: f64, value: f64) {
        if self.inner.is_some() {
            self.record(Event {
                pid,
                track: track.to_string(),
                name: name.to_string(),
                kind: EventKind::Counter { ts, value },
                args: Vec::new(),
            });
        }
    }

    /// Snapshot of all events recorded so far (empty for a disabled sink).
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(m) => m.lock().unwrap_or_else(|e| e.into_inner()).events.clone(),
        }
    }

    /// Snapshot of registered `(pid, name)` pairs.
    pub fn processes(&self) -> Vec<(u32, String)> {
        match &self.inner {
            None => Vec::new(),
            Some(m) => m
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .processes
                .clone(),
        }
    }
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Deterministic `(pid, track) -> tid` assignment by first appearance.
fn assign_tids(events: &[Event]) -> BTreeMap<(u32, String), u64> {
    let mut tids = BTreeMap::new();
    let mut order: Vec<(u32, String)> = Vec::new();
    for ev in events {
        let key = (ev.pid, ev.track.clone());
        if !tids.contains_key(&key) {
            tids.insert(key.clone(), 1 + order.len() as u64);
            order.push(key);
        }
    }
    tids
}

fn args_value(args: &[(&'static str, ArgValue)]) -> Value {
    Value::Map(
        args.iter()
            .map(|(k, v)| {
                let val = match v {
                    ArgValue::U64(u) => Value::U64(*u),
                    ArgValue::F64(f) => Value::F64(*f),
                    ArgValue::Str(s) => Value::Str(s.clone()),
                };
                (k.to_string(), val)
            })
            .collect(),
    )
}

/// Exports events as Chrome trace-event JSON (the `traceEvents` object
/// form), loadable in Perfetto and `chrome://tracing`. Timestamps are
/// simulated microseconds. Output is a pure function of the event list, so
/// identical runs export byte-identical traces.
pub fn chrome_trace_json(events: &[Event], processes: &[(u32, String)]) -> String {
    let tids = assign_tids(events);
    let mut out: Vec<Value> = Vec::new();

    let meta = |name: &str, pid: u32, tid: u64, label: &str| {
        Value::Map(vec![
            ("name".into(), Value::Str(name.to_string())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(pid as u64)),
            ("tid".into(), Value::U64(tid)),
            (
                "args".into(),
                Value::Map(vec![("name".into(), Value::Str(label.to_string()))]),
            ),
        ])
    };
    for (pid, name) in processes {
        out.push(meta("process_name", *pid, 0, name));
    }
    let mut lanes: Vec<(&(u32, String), &u64)> = tids.iter().collect();
    lanes.sort_by_key(|&(_, tid)| *tid);
    for (&(pid, ref track), &tid) in lanes {
        out.push(meta("thread_name", pid, tid, track));
    }

    for ev in events {
        let tid = tids[&(ev.pid, ev.track.clone())];
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(ev.name.clone())),
            ("pid".into(), Value::U64(ev.pid as u64)),
            ("tid".into(), Value::U64(tid)),
        ];
        match &ev.kind {
            EventKind::Span { start, dur } => {
                fields.push(("ph".into(), Value::Str("X".into())));
                fields.push(("ts".into(), Value::F64(us(*start))));
                fields.push(("dur".into(), Value::F64(us(*dur))));
            }
            EventKind::Instant { ts } => {
                fields.push(("ph".into(), Value::Str("i".into())));
                fields.push(("ts".into(), Value::F64(us(*ts))));
                fields.push(("s".into(), Value::Str("t".into())));
            }
            EventKind::Counter { ts, value } => {
                fields.push(("ph".into(), Value::Str("C".into())));
                fields.push(("ts".into(), Value::F64(us(*ts))));
                fields.push((
                    "args".into(),
                    Value::Map(vec![("value".into(), Value::F64(*value))]),
                ));
                out.push(Value::Map(fields));
                continue;
            }
        }
        if !ev.args.is_empty() {
            fields.push(("args".into(), args_value(&ev.args)));
        }
        out.push(Value::Map(fields));
    }

    let root = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(out)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ]);
    serde_json::to_string(&root).expect("trace serialization is infallible")
}

/// Renders a human-readable flame summary: per `(process, track)`, every
/// span name with call count, total simulated seconds, and share of the
/// track's busy time, hottest first.
pub fn flame_summary(events: &[Event], processes: &[(u32, String)]) -> String {
    use std::fmt::Write as _;
    let pname: BTreeMap<u32, &str> = processes
        .iter()
        .map(|(pid, n)| (*pid, n.as_str()))
        .collect();

    // (pid, track) -> name -> (count, total_dur)
    let mut tracks: BTreeMap<(u32, String), BTreeMap<String, (u64, f64)>> = BTreeMap::new();
    let mut instants: BTreeMap<(u32, String), u64> = BTreeMap::new();
    for ev in events {
        let key = (ev.pid, ev.track.clone());
        match ev.kind {
            EventKind::Span { dur, .. } => {
                let slot = tracks
                    .entry(key)
                    .or_default()
                    .entry(ev.name.clone())
                    .or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += dur;
            }
            EventKind::Instant { .. } => *instants.entry(key).or_insert(0) += 1,
            EventKind::Counter { .. } => {}
        }
    }

    let mut out = String::new();
    for ((pid, track), names) in &tracks {
        let proc_label = pname.get(pid).copied().unwrap_or("?");
        let busy: f64 = names.values().map(|(_, d)| d).sum();
        let _ = writeln!(out, "[{proc_label}] {track} — busy {busy:.3e} s");
        let mut rows: Vec<(&String, &(u64, f64))> = names.iter().collect();
        rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
        for (name, (count, dur)) in rows {
            let share = if busy > 0.0 { 100.0 * dur / busy } else { 0.0 };
            let _ = writeln!(out, "  {share:>5.1}%  {dur:>11.3e} s  {count:>6}x  {name}");
        }
        if let Some(n) = instants.get(&(*pid, track.clone())) {
            let _ = writeln!(out, "  ------  {n} instant event(s)");
        }
    }
    for ((pid, track), n) in &instants {
        if !tracks.contains_key(&(*pid, track.clone())) {
            let proc_label = pname.get(pid).copied().unwrap_or("?");
            let _ = writeln!(out, "[{proc_label}] {track} — {n} instant event(s)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events(sink: &TraceSink) -> u32 {
        let pid = sink.register_process("Test GPU");
        sink.span(
            pid,
            "kernels",
            "gemm",
            0.0,
            2.0e-3,
            vec![("grid", 8usize.into())],
        );
        sink.span(pid, "kernels", "svd", 2.0e-3, 1.0e-3, Vec::new());
        sink.span(pid, "kernels", "gemm", 3.0e-3, 2.0e-3, Vec::new());
        sink.instant(
            pid,
            "wcycle",
            "sweep",
            4.0e-3,
            vec![("coherence", 0.25.into())],
        );
        sink.counter(pid, "occupancy", "occupancy", 1.0e-3, 0.5);
        pid
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let pid = sample_events(&sink);
        assert_eq!(pid, 0);
        assert!(sink.events().is_empty());
        assert!(sink.processes().is_empty());
    }

    #[test]
    fn enabled_sink_preserves_emission_order() {
        let sink = TraceSink::enabled();
        assert!(sink.is_enabled());
        sample_events(&sink);
        let evs = sink.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].name, "gemm");
        assert_eq!(evs[3].name, "sweep");
        assert!(matches!(evs[4].kind, EventKind::Counter { value, .. } if value == 0.5));
        assert_eq!(sink.processes(), vec![(1, "Test GPU".to_string())]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_metadata() {
        let sink = TraceSink::enabled();
        sample_events(&sink);
        let json = chrome_trace_json(&sink.events(), &sink.processes());
        let v: Value = serde_json::from_str(&json).expect("chrome trace must re-parse");
        let evs = v.get("traceEvents").unwrap().as_seq().unwrap();
        // 1 process_name + 3 thread_name + 5 events.
        assert_eq!(evs.len(), 9);
        assert_eq!(evs[0].get("ph").unwrap().as_str().unwrap(), "M");
        let span = &evs[4];
        assert_eq!(span.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(span.get("ts").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(span.get("dur").unwrap().as_f64().unwrap(), 2000.0); // 2 ms = 2000 µs
        assert_eq!(
            span.get("args")
                .unwrap()
                .get("grid")
                .unwrap()
                .as_u64()
                .unwrap(),
            8
        );
    }

    #[test]
    fn chrome_export_is_byte_identical_across_runs() {
        let run = || {
            let sink = TraceSink::enabled();
            sample_events(&sink);
            chrome_trace_json(&sink.events(), &sink.processes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flame_summary_ranks_hottest_first() {
        let sink = TraceSink::enabled();
        sample_events(&sink);
        let s = flame_summary(&sink.events(), &sink.processes());
        assert!(s.contains("[Test GPU] kernels"));
        let gemm = s.find("gemm").unwrap();
        let svd = s.find("svd").unwrap();
        assert!(gemm < svd, "{s}");
        assert!(s.contains("instant event"));
    }
}
