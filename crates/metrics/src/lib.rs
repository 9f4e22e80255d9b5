//! `wsvd-metrics` — a deterministic metrics registry for the W-cycle stack.
//!
//! The simulator and the algorithm layers above it already compute every
//! quantity the paper argues performance through (TLP, arithmetic intensity,
//! occupancy, GM transactions — Eqs. 8–10), but until this crate they were
//! only reachable as raw per-`Gpu` structs or PR 1's event traces. The
//! registry aggregates them into **counters**, **gauges** and **fixed-bucket
//! histograms** keyed by `(experiment, kernel, level)`, so a whole `repro`
//! invocation becomes one queryable, machine-readable snapshot.
//!
//! Design rules, mirroring `wsvd-trace` and the sanitizer:
//!
//! * **Zero-cost no-op mode.** [`MetricsSink::default()`] is disabled: every
//!   recording method returns after one `Option` check. Producers guard any
//!   metrics-only computation behind [`MetricsSink::is_enabled`], so with the
//!   sink off, simulated time and numerics are bit-identical to a build
//!   without the crate.
//! * **Determinism.** All recording happens in the host-side serial
//!   orchestration code (kernel *bodies* run on the worker pool, but
//!   launches retire serially), and the registry stores everything in `BTreeMap`s — two
//!   identical runs produce byte-identical [`Snapshot`] JSON.
//! * **Per-run deltas.** Counters backed by process-cumulative state (the
//!   autotune plan cache) are recorded as *increments*, and
//!   [`Snapshot::since`] subtracts an earlier snapshot, so per-experiment and
//!   per-region queries work even across a warm cache.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Separator between the `experiment`, `kernel`, `level` and metric-name
/// components of a flattened registry key. None of the stack's experiment
/// ids or kernel labels contain it.
pub const KEY_SEP: char = '/';

/// Flattens `(experiment, kernel, level, name)` into the registry's string
/// key: `experiment/kernel/L<level>/name` (level `-` when not applicable).
pub fn metric_key(experiment: &str, kernel: &str, level: Option<usize>, name: &str) -> String {
    let lvl = match level {
        Some(l) => format!("L{l}"),
        None => "-".to_string(),
    };
    format!("{experiment}{KEY_SEP}{kernel}{KEY_SEP}{lvl}{KEY_SEP}{name}")
}

/// Splits a flattened key back into `(experiment, kernel, level, name)`.
/// Returns `None` for keys that do not have exactly four components.
pub fn parse_key(key: &str) -> Option<(&str, &str, Option<usize>, &str)> {
    let mut it = key.splitn(4, KEY_SEP);
    let experiment = it.next()?;
    let kernel = it.next()?;
    let lvl = it.next()?;
    let name = it.next()?;
    let level = if lvl == "-" {
        None
    } else {
        Some(lvl.strip_prefix('L')?.parse().ok()?)
    };
    Some((experiment, kernel, level, name))
}

/// One retained histogram exemplar: the identity and value of the largest
/// observation that landed in a bucket. The id is producer-chosen (the
/// serve layer records its request id), so a tail bucket links directly to
/// a replayable request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Producer-chosen identifier of the observation (e.g. a request id).
    pub id: u64,
    /// The observed value.
    pub value: f64,
}

/// One fixed-bucket histogram: `counts[i]` holds observations
/// `<= bounds[i]`, with one extra overflow bucket at the end.
///
/// Serialization is hand-written (not derived): the `exemplars` field is
/// emitted only when non-empty and defaults to empty when absent, so
/// snapshots recorded before exemplars existed parse unchanged and
/// exemplar-free histograms serialize byte-identically to them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending. The bucket layout is fixed by the
    /// first observation of a key and never changes afterwards.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the last entry counts observations above every bound).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Per-bucket retained exemplars, parallel to `counts`. Empty unless an
    /// identified observation ([`MetricsSink::observe_exemplar`]) has been
    /// recorded; retention is deterministic (strictly larger value wins,
    /// first observation wins ties), so identical runs carry byte-identical
    /// exemplars. Skipped in JSON when empty, keeping pre-exemplar
    /// snapshots parse- and byte-compatible.
    pub exemplars: Vec<Option<Exemplar>>,
}

impl Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = vec![
            ("bounds".to_string(), self.bounds.to_value()),
            ("counts".to_string(), self.counts.to_value()),
            ("total".to_string(), self.total.to_value()),
            ("sum".to_string(), self.sum.to_value()),
        ];
        if !self.exemplars.is_empty() {
            m.push(("exemplars".to_string(), self.exemplars.to_value()));
        }
        serde::Value::Map(m)
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::msg("expected JSON object for Histogram"))?;
        Ok(Histogram {
            bounds: Deserialize::from_value(serde::map_field(m, "bounds", "Histogram")?)?,
            counts: Deserialize::from_value(serde::map_field(m, "counts", "Histogram")?)?,
            total: Deserialize::from_value(serde::map_field(m, "total", "Histogram")?)?,
            sum: Deserialize::from_value(serde::map_field(m, "sum", "Histogram")?)?,
            exemplars: match m.iter().find(|(k, _)| k == "exemplars") {
                Some((_, v)) => Deserialize::from_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            exemplars: Vec::new(),
        }
    }

    /// Bucket index `value` falls into (the overflow bucket for values
    /// above every bound).
    fn bucket_index(&self, value: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    fn observe(&mut self, value: f64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    fn observe_exemplar(&mut self, value: f64, id: u64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if self.exemplars.is_empty() {
            self.exemplars = vec![None; self.counts.len()];
        }
        // Max-observation retention: a strictly larger value replaces the
        // bucket's exemplar; ties keep the first observation, so retention
        // is independent of everything but the observation order.
        let slot = &mut self.exemplars[idx];
        if slot.map(|e| value > e.value).unwrap_or(true) {
            *slot = Some(Exemplar { id, value });
        }
    }

    /// The retained exemplar of bucket `idx` (`None` when the bucket never
    /// saw an identified observation, or `idx` is out of range).
    pub fn exemplar(&self, idx: usize) -> Option<Exemplar> {
        self.exemplars.get(idx).copied().flatten()
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total > 0 {
            self.sum / self.total as f64
        } else {
            0.0
        }
    }
}

#[derive(Default)]
struct Registry {
    /// Experiment scope stamped into every key recorded from now on.
    experiment: String,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A cheaply clonable handle producers record into.
///
/// `MetricsSink::default()` is **disabled**: every recording method returns
/// after one `Option` check, and [`MetricsSink::snapshot`] yields an empty
/// snapshot. An enabled sink shares one registry across clones (the `Gpu`,
/// the W-cycle, the autotuner and the bench harness all see the same maps).
#[derive(Clone, Default)]
pub struct MetricsSink {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl MetricsSink {
    /// A recording sink with an empty registry and no experiment scope.
    pub fn enabled() -> Self {
        MetricsSink {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// A no-op sink (same as `default()`).
    pub fn disabled() -> Self {
        MetricsSink::default()
    }

    /// Whether metrics are being recorded. Producers must guard any
    /// computation done *only* for metrics behind this, preserving the
    /// bit-identity guarantee of the disabled mode.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the experiment component stamped into subsequently recorded
    /// keys (e.g. `"fig9"`). Empty until first set.
    pub fn set_experiment(&self, id: &str) {
        if let Some(m) = &self.inner {
            let mut reg = m.lock().unwrap_or_else(|e| e.into_inner());
            reg.experiment = id.to_string();
        }
    }

    /// Adds `delta` to the counter `(experiment, kernel, level, name)`.
    /// Counters are monotone sums over a run; record increments, not
    /// cumulative process-wide values.
    pub fn counter_add(&self, kernel: &str, level: Option<usize>, name: &str, delta: f64) {
        if let Some(m) = &self.inner {
            let mut reg = m.lock().unwrap_or_else(|e| e.into_inner());
            let key = metric_key(&reg.experiment, kernel, level, name);
            *reg.counters.entry(key).or_insert(0.0) += delta;
        }
    }

    /// Sets the gauge `(experiment, kernel, level, name)` to `value`
    /// (last write wins — device constants, chosen plan parameters).
    pub fn gauge_set(&self, kernel: &str, level: Option<usize>, name: &str, value: f64) {
        if let Some(m) = &self.inner {
            let mut reg = m.lock().unwrap_or_else(|e| e.into_inner());
            let key = metric_key(&reg.experiment, kernel, level, name);
            reg.gauges.insert(key, value);
        }
    }

    /// Observes `value` in the fixed-bucket histogram
    /// `(experiment, kernel, level, name)`. The bucket layout is taken from
    /// `bounds` on the key's first observation and kept thereafter.
    pub fn observe(
        &self,
        kernel: &str,
        level: Option<usize>,
        name: &str,
        bounds: &[f64],
        value: f64,
    ) {
        if let Some(m) = &self.inner {
            let mut reg = m.lock().unwrap_or_else(|e| e.into_inner());
            let key = metric_key(&reg.experiment, kernel, level, name);
            reg.histograms
                .entry(key)
                .or_insert_with(|| Histogram::new(bounds))
                .observe(value);
        }
    }

    /// Like [`MetricsSink::observe`], additionally offering `(id, value)`
    /// as the target bucket's exemplar: the bucket retains the largest
    /// identified observation it has seen (ties keep the first), so a
    /// histogram's tail bucket always names a concrete, replayable
    /// observation. Counting is identical to `observe`.
    pub fn observe_exemplar(
        &self,
        kernel: &str,
        level: Option<usize>,
        name: &str,
        bounds: &[f64],
        value: f64,
        id: u64,
    ) {
        if let Some(m) = &self.inner {
            let mut reg = m.lock().unwrap_or_else(|e| e.into_inner());
            let key = metric_key(&reg.experiment, kernel, level, name);
            reg.histograms
                .entry(key)
                .or_insert_with(|| Histogram::new(bounds))
                .observe_exemplar(value, id);
        }
    }

    /// Deterministic snapshot of the whole registry (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(m) => {
                let reg = m.lock().unwrap_or_else(|e| e.into_inner());
                Snapshot {
                    counters: reg.counters.clone(),
                    gauges: reg.gauges.clone(),
                    histograms: reg.histograms.clone(),
                }
            }
        }
    }
}

/// An immutable, serializable copy of the registry at one point in time.
/// Maps are `BTreeMap`s over the flattened keys of [`metric_key`], so JSON
/// serialization is deterministic (sorted keys, shortest-round-trip floats).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotone sums keyed by `experiment/kernel/level/name`.
    pub counters: BTreeMap<String, f64>,
    /// Last-write-wins values keyed like `counters`.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms keyed like `counters`.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// The delta accumulated between `earlier` and `self`: counters and
    /// histogram counts subtract (clamped at zero for keys that shrank,
    /// which a well-behaved producer never does), gauges keep the later
    /// value. This is what makes process-cumulative producers (the global
    /// autotune plan cache) queryable per run.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let base = earlier.counters.get(k).copied().unwrap_or(0.0);
                (k.clone(), (v - base).max(0.0))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match earlier.histograms.get(k) {
                    Some(e) if e.bounds == h.bounds => Histogram {
                        bounds: h.bounds.clone(),
                        counts: h
                            .counts
                            .iter()
                            .zip(&e.counts)
                            .map(|(&a, &b)| a.saturating_sub(b))
                            .collect(),
                        total: h.total.saturating_sub(e.total),
                        sum: h.sum - e.sum,
                        // Exemplars are max-retained, not additive: the
                        // later snapshot's exemplar is the best known
                        // representative of each bucket, so the delta
                        // keeps it as-is.
                        exemplars: h.exemplars.clone(),
                    },
                    _ => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Counter value for the exact key, 0.0 when absent.
    pub fn counter(&self, experiment: &str, kernel: &str, level: Option<usize>, name: &str) -> f64 {
        self.counters
            .get(&metric_key(experiment, kernel, level, name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Gauge value for the exact key, if set.
    pub fn gauge(
        &self,
        experiment: &str,
        kernel: &str,
        level: Option<usize>,
        name: &str,
    ) -> Option<f64> {
        self.gauges
            .get(&metric_key(experiment, kernel, level, name))
            .copied()
    }

    /// Histogram for the exact key, if observed.
    pub fn histogram(
        &self,
        experiment: &str,
        kernel: &str,
        level: Option<usize>,
        name: &str,
    ) -> Option<&Histogram> {
        self.histograms
            .get(&metric_key(experiment, kernel, level, name))
    }

    /// Distinct experiment ids present in any map, sorted.
    pub fn experiments(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for key in self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
        {
            if let Some((exp, _, _, _)) = parse_key(key) {
                if out.last().map(String::as_str) != Some(exp) && !out.iter().any(|e| e == exp) {
                    out.push(exp.to_string());
                }
            }
        }
        out.sort();
        out
    }

    /// Distinct kernel labels recorded under `experiment` (counters only),
    /// sorted.
    pub fn kernels(&self, experiment: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for key in self.counters.keys() {
            if let Some((exp, kernel, _, _)) = parse_key(key) {
                if exp == experiment && !out.iter().any(|k| k == kernel) {
                    out.push(kernel.to_string());
                }
            }
        }
        out.sort();
        out
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Pretty-printed JSON (deterministic: sorted keys, shortest
    /// round-trip floats).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        serde_json::from_str(s).map_err(|e| format!("snapshot parse error: {e:?}"))
    }

    /// Prometheus text exposition of the whole snapshot: one metric family
    /// per metric *name* (a `# HELP` line, a `# TYPE` line, then its
    /// samples), with `experiment`, `kernel` and `level` labels. Histograms
    /// follow the cumulative `_bucket`/`_sum`/`_count` convention. Label
    /// values escape backslash, double quote and line feed per the text
    /// exposition format. A `_bucket` row whose bucket retains an exemplar
    /// carries it in OpenMetrics exemplar syntax —
    /// `… <count> # {request_id="<id>"} <value>` — linking the bucket to
    /// the replayable observation behind its largest member.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut families: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        let labels = |key: &str| -> Option<(String, String)> {
            let (exp, kernel, level, name) = parse_key(key)?;
            let lvl = level.map(|l| l.to_string()).unwrap_or_default();
            Some((
                prom_name(name),
                format!(
                    "experiment=\"{}\",kernel=\"{}\",level=\"{}\"",
                    prom_escape(exp),
                    prom_escape(kernel),
                    lvl
                ),
            ))
        };
        for (kind, map) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (key, &value) in map {
                let Some((fam, lbl)) = labels(key) else {
                    continue;
                };
                families
                    .entry(format!("{kind} {fam}"))
                    .or_default()
                    .push((lbl, fmt_prom(value)));
            }
        }
        for (key, h) in &self.histograms {
            let Some((fam, lbl)) = labels(key) else {
                continue;
            };
            let rows = families.entry(format!("histogram {fam}")).or_default();
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = match h.bounds.get(i) {
                    Some(b) => fmt_prom(*b),
                    None => "+Inf".to_string(),
                };
                let value = match h.exemplar(i) {
                    Some(ex) => format!(
                        "{} # {{request_id=\"{}\"}} {}",
                        cumulative,
                        ex.id,
                        fmt_prom(ex.value)
                    ),
                    None => cumulative.to_string(),
                };
                rows.push((format!("{lbl},le=\"{le}\"#bucket"), value));
            }
            rows.push((format!("{lbl}#sum"), fmt_prom(h.sum)));
            rows.push((format!("{lbl}#count"), h.total.to_string()));
        }
        for (family, rows) in families {
            let (kind, name) = family.split_once(' ').expect("family has kind prefix");
            let _ = writeln!(
                out,
                "# HELP {name} wsvd-metrics {kind} series recorded by the repro harness."
            );
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (lbl, value) in rows {
                // Histogram rows smuggle their series suffix after a '#'.
                let (lbl, suffix) = lbl.split_once('#').unwrap_or((lbl.as_str(), ""));
                let series = if suffix.is_empty() {
                    name.to_string()
                } else {
                    format!("{name}_{suffix}")
                };
                let _ = writeln!(out, "{series}{{{lbl}}} {value}");
            }
        }
        out
    }
}

/// Sanitizes a metric-name component into a full Prometheus metric name.
/// Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`: every illegal
/// character maps to `_`, and the `wsvd_` prefix keeps the first character
/// legal even when the component starts with a digit.
fn prom_name(name: &str) -> String {
    let mut out = String::from("wsvd_");
    out.extend(
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
    );
    out
}

/// Escapes a label value: the text exposition format requires `\\` for
/// backslash, `\"` for double quote and `\n` for line feed.
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Deterministic float formatting for Prometheus rows: integers print
/// without a fraction, everything else with shortest round-trip.
fn fmt_prom(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = MetricsSink::disabled();
        assert!(!s.is_enabled());
        s.set_experiment("e");
        s.counter_add("k", None, "c", 1.0);
        s.gauge_set("k", None, "g", 2.0);
        s.observe("k", None, "h", &[1.0], 0.5);
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn keys_round_trip() {
        let k = metric_key("fig9", "gram_gemm", Some(2), "flops");
        assert_eq!(k, "fig9/gram_gemm/L2/flops");
        assert_eq!(parse_key(&k), Some(("fig9", "gram_gemm", Some(2), "flops")));
        let k = metric_key("e", "k", None, "n");
        assert_eq!(parse_key(&k), Some(("e", "k", None, "n")));
        assert_eq!(parse_key("only/three/parts"), None);
    }

    #[test]
    fn counters_accumulate_and_scope_by_experiment() {
        let s = MetricsSink::enabled();
        s.set_experiment("a");
        s.counter_add("k", None, "c", 1.0);
        s.counter_add("k", None, "c", 2.0);
        s.set_experiment("b");
        s.counter_add("k", None, "c", 5.0);
        let snap = s.snapshot();
        assert_eq!(snap.counter("a", "k", None, "c"), 3.0);
        assert_eq!(snap.counter("b", "k", None, "c"), 5.0);
        assert_eq!(snap.experiments(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(snap.kernels("a"), vec!["k".to_string()]);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let s = MetricsSink::enabled();
        s.set_experiment("e");
        let bounds = [0.25, 0.5, 1.0];
        for v in [0.1, 0.25, 0.6, 2.0] {
            s.observe("k", None, "occ", &bounds, v);
        }
        let snap = s.snapshot();
        let h = snap.histogram("e", "k", None, "occ").unwrap();
        assert_eq!(h.counts, vec![2, 0, 1, 1]);
        assert_eq!(h.total, 4);
        assert!((h.sum - 2.95).abs() < 1e-12);
        assert!((h.mean() - 0.7375).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_counters_and_histograms_keeps_gauges() {
        let s = MetricsSink::enabled();
        s.set_experiment("e");
        s.counter_add("k", Some(1), "c", 10.0);
        s.gauge_set("k", Some(1), "g", 1.0);
        s.observe("k", None, "h", &[1.0], 0.5);
        let first = s.snapshot();
        s.counter_add("k", Some(1), "c", 7.0);
        s.gauge_set("k", Some(1), "g", 9.0);
        s.observe("k", None, "h", &[1.0], 2.0);
        let second = s.snapshot();
        let d = second.since(&first);
        assert_eq!(d.counter("e", "k", Some(1), "c"), 7.0);
        assert_eq!(d.gauge("e", "k", Some(1), "g"), Some(9.0));
        let h = d.histogram("e", "k", None, "h").unwrap();
        assert_eq!(h.counts, vec![0, 1]);
        assert_eq!(h.total, 1);
        // A self-delta is empty-valued but keeps the keys.
        let zero = second.since(&second);
        assert_eq!(zero.counter("e", "k", Some(1), "c"), 0.0);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let record = || {
            let s = MetricsSink::enabled();
            s.set_experiment("e");
            s.counter_add("b", None, "c", 1.5);
            s.counter_add("a", Some(3), "c", 2.0);
            s.gauge_set("a", None, "g", 0.125);
            s.observe("a", None, "h", &[0.5, 1.0], 0.75);
            s.snapshot()
        };
        let (s1, s2) = (record(), record());
        assert_eq!(
            s1.to_json(),
            s2.to_json(),
            "snapshots must be byte-identical"
        );
        let parsed = Snapshot::from_json(&s1.to_json()).unwrap();
        assert_eq!(parsed, s1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let s = MetricsSink::enabled();
        s.set_experiment("fig9");
        s.counter_add("gemm", Some(1), "flops", 100.0);
        s.gauge_set("gemm", None, "peak_flops", 7.0e12);
        s.observe("gemm", None, "occupancy", &[0.5, 1.0], 0.75);
        let text = s.snapshot().to_prometheus();
        assert!(text.contains("# TYPE wsvd_flops counter"), "{text}");
        assert!(
            text.contains("wsvd_flops{experiment=\"fig9\",kernel=\"gemm\",level=\"1\"} 100"),
            "{text}"
        );
        assert!(text.contains("# TYPE wsvd_occupancy histogram"), "{text}");
        assert!(text.contains("wsvd_occupancy_bucket"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("wsvd_occupancy_count"), "{text}");
        assert!(text.contains("# TYPE wsvd_peak_flops gauge"), "{text}");
    }

    #[test]
    fn prometheus_exposition_conforms_to_the_text_format() {
        // Line-level audit against the Prometheus text exposition format:
        // metric and label names match the identifier grammar, every family
        // gets exactly one `# HELP` + `# TYPE` pair (HELP first), sample
        // values parse as floats, and label values escape `\`, `"` and
        // line feeds so no sample ever spans two lines.
        fn valid_name(s: &str) -> bool {
            let mut ch = s.chars();
            matches!(ch.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
                && ch.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        fn valid_label_name(s: &str) -> bool {
            let mut ch = s.chars();
            matches!(ch.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
                && ch.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        // Parses `name="value",...`, rejecting bad escapes and raw quotes.
        fn parse_labels(s: &str) -> Result<Vec<String>, String> {
            let mut names = Vec::new();
            let mut it = s.chars();
            loop {
                let mut name = String::new();
                for c in it.by_ref() {
                    if c == '=' {
                        break;
                    }
                    name.push(c);
                }
                if it.next() != Some('"') {
                    return Err(format!("label '{name}': missing open quote"));
                }
                loop {
                    match it.next() {
                        Some('\\') => match it.next() {
                            Some('\\') | Some('"') | Some('n') => {}
                            other => return Err(format!("bad escape \\{other:?}")),
                        },
                        Some('"') => break,
                        Some(_) => {}
                        None => return Err("unterminated label value".to_string()),
                    }
                }
                names.push(name);
                match it.next() {
                    Some(',') => continue,
                    None => return Ok(names),
                    Some(c) => return Err(format!("unexpected '{c}' after label value")),
                }
            }
        }

        let s = MetricsSink::enabled();
        // A hostile experiment name: quote, backslash and a line feed, all
        // of which must be escaped in label values.
        s.set_experiment("we\"ird\\exp\nline");
        // A metric component with a leading digit: the emitted family name
        // must still start with a legal character.
        s.counter_add("gemm", Some(1), "2nd_pass_flops", 100.0);
        s.gauge_set("gemm", None, "peak_flops", 7.0e12);
        s.observe("gemm", None, "occupancy", &[0.5, 1.0], 0.75);
        // An identified observation: its bucket row must carry a
        // well-formed OpenMetrics exemplar.
        s.observe_exemplar("serve", None, "e2e_us", &[10.0, 100.0], 42.5, 7);
        let text = s.snapshot().to_prometheus();
        assert!(
            text.contains("# {request_id=\"7\"} 42.5"),
            "exemplar missing from exposition: {text}"
        );

        let mut helped: Vec<String> = Vec::new();
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has text");
                assert!(valid_name(name), "bad HELP name in: {line}");
                assert!(!help.is_empty());
                helped.push(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has kind");
                assert!(valid_name(name), "bad TYPE name in: {line}");
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
                assert_eq!(
                    helped.last().map(String::as_str),
                    Some(name),
                    "HELP must immediately precede TYPE: {line}"
                );
                assert!(!typed.contains(&name.to_string()), "duplicate TYPE: {line}");
                typed.push(name.to_string());
            } else {
                // An OpenMetrics exemplar rides after the sample value as
                // ` # {request_id="<id>"} <value>`; split it off and check
                // it separately so the base sample still parses strictly.
                let (sample, exemplar) = match line.split_once(" # {") {
                    Some((base, ex)) => (base, Some(ex)),
                    None => (line, None),
                };
                if let Some(ex) = exemplar {
                    let (ex_labels, ex_value) = ex.rsplit_once("} ").expect("exemplar has value");
                    let names = parse_labels(ex_labels).unwrap_or_else(|e| {
                        panic!("bad exemplar label block '{ex_labels}': {e}");
                    });
                    assert_eq!(names, vec!["request_id".to_string()], "{line}");
                    ex_value.parse::<f64>().unwrap_or_else(|e| {
                        panic!("unparseable exemplar value '{ex_value}': {e}");
                    });
                    assert!(
                        sample.contains("_bucket{"),
                        "exemplar outside a _bucket row: {line}"
                    );
                }
                let (series, rest) = sample.split_once('{').expect("sample has labels");
                assert!(valid_name(series), "bad series name in: {line}");
                let family = typed.last().expect("samples follow their TYPE");
                assert!(
                    series == *family
                        || ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|sfx| series == format!("{family}{sfx}")),
                    "sample '{series}' outside family '{family}'"
                );
                let (labels, value) = rest.rsplit_once("} ").expect("sample has value");
                value.parse::<f64>().unwrap_or_else(|e| {
                    panic!("unparseable sample value '{value}': {e}");
                });
                let names = parse_labels(labels).unwrap_or_else(|e| {
                    panic!("bad label block '{labels}': {e}");
                });
                for n in &names {
                    assert!(valid_label_name(n), "bad label name '{n}' in: {line}");
                }
            }
        }
        assert_eq!(helped, typed, "every family has exactly one HELP + TYPE");
        assert!(
            text.contains("\\n"),
            "line feed in a label value must be escaped: {text}"
        );
        assert!(
            text.contains("wsvd_2nd_pass_flops"),
            "leading-digit component keeps the wsvd_ prefix: {text}"
        );
    }

    #[test]
    fn exemplars_retain_the_max_observation_per_bucket() {
        let s = MetricsSink::enabled();
        s.set_experiment("e");
        let bounds = [1.0, 10.0];
        // Bucket 0: 0.5 then 0.9 (max wins), then a tie at 0.9 (first wins).
        s.observe_exemplar("k", None, "lat", &bounds, 0.5, 1);
        s.observe_exemplar("k", None, "lat", &bounds, 0.9, 2);
        s.observe_exemplar("k", None, "lat", &bounds, 0.9, 3);
        // Bucket 1 via the unidentified path: counted, no exemplar.
        s.observe("k", None, "lat", &bounds, 5.0);
        // Overflow bucket.
        s.observe_exemplar("k", None, "lat", &bounds, 99.0, 4);
        let snap = s.snapshot();
        let h = snap.histogram("e", "k", None, "lat").unwrap();
        assert_eq!(h.counts, vec![3, 1, 1]);
        assert_eq!(h.total, 5);
        assert_eq!(h.exemplar(0), Some(Exemplar { id: 2, value: 0.9 }));
        assert_eq!(h.exemplar(1), None);
        assert_eq!(h.exemplar(2), Some(Exemplar { id: 4, value: 99.0 }));
        assert_eq!(h.exemplar(3), None, "out of range is None");
    }

    #[test]
    fn exemplar_snapshots_are_deterministic_and_round_trip() {
        let record = || {
            let s = MetricsSink::enabled();
            s.set_experiment("e");
            for (i, v) in [3.0, 0.5, 42.0, 0.25].into_iter().enumerate() {
                s.observe_exemplar("k", None, "lat", &[1.0, 10.0], v, i as u64);
            }
            s.snapshot()
        };
        let (a, b) = (record(), record());
        assert_eq!(a.to_json(), b.to_json(), "exemplars must be byte-stable");
        let parsed = Snapshot::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed, a);
        // A histogram without exemplars serializes without the field, so a
        // pre-exemplar snapshot parses (and re-serializes) unchanged.
        let s = MetricsSink::enabled();
        s.set_experiment("e");
        s.observe("k", None, "h", &[1.0], 0.5);
        let json = s.snapshot().to_json();
        assert!(!json.contains("exemplars"), "{json}");
        let old = r#"{"counters":{},"gauges":{},"histograms":{"e/k/-/h":
            {"bounds":[1.0],"counts":[1,0],"total":1,"sum":0.5}}}"#;
        let parsed = Snapshot::from_json(old).unwrap();
        assert_eq!(parsed.histogram("e", "k", None, "h").unwrap().total, 1);
        assert!(parsed
            .histogram("e", "k", None, "h")
            .unwrap()
            .exemplars
            .is_empty());
    }

    #[test]
    fn since_keeps_the_later_exemplars() {
        let s = MetricsSink::enabled();
        s.set_experiment("e");
        s.observe_exemplar("k", None, "lat", &[1.0], 0.5, 1);
        let first = s.snapshot();
        s.observe_exemplar("k", None, "lat", &[1.0], 0.75, 2);
        let d = s.snapshot().since(&first);
        let h = d.histogram("e", "k", None, "lat").unwrap();
        assert_eq!(h.total, 1, "counts subtract");
        assert_eq!(h.exemplar(0), Some(Exemplar { id: 2, value: 0.75 }));
    }
}
