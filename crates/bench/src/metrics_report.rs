//! Per-kernel reports and the perf-regression snapshot format.
//!
//! This module turns a [`wsvd_metrics::Snapshot`] into the two artifacts the
//! BENCH trajectory is built on:
//!
//! * **Reports** — for each experiment in the snapshot, a per-kernel table
//!   attributing simulated time, achieved occupancy, arithmetic intensity and
//!   the roofline ceiling of Eqs. 8–10 (via
//!   [`wsvd_gpu_sim::KernelObservation::derive`], the one roofline
//!   implementation in the tree), plus GM-transaction efficiency and the
//!   launch/graph overhead share. `ext-profile` renders its columns from the
//!   same [`kernel_rows`].
//! * **[`BenchSnapshot`]** — a stable, deterministic JSON snapshot of one
//!   `repro` invocation (`repro --bench-out BENCH_<n>.json`), compared by the
//!   `wsvd-bench-diff` binary under configurable relative tolerances so CI
//!   can gate on a committed baseline.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wsvd_gpu_sim::{time_share_percent, KernelDerived, KernelObservation};
use wsvd_metrics::{parse_key, Snapshot};

use crate::report::Report;

/// Snapshot format version; bumped when the metric key schema changes.
pub const BENCH_SNAPSHOT_VERSION: u64 = 1;

/// One real kernel's metrics within one experiment, ready for rendering.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel label as recorded by the simulator (e.g. `evd-batched`).
    pub kernel: String,
    /// Total simulated seconds (kernel body + launch overhead).
    pub seconds: f64,
    /// Number of launches.
    pub launches: f64,
    /// Time-weighted achieved SM-slot occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// The raw observation fed to the roofline model.
    pub observation: KernelObservation,
    /// Eqs. 8–10 derived quantities (AI, ceiling, roof fraction, ...).
    pub derived: KernelDerived,
}

/// Extracts the per-kernel rows for `experiment`, sorted by descending
/// simulated time. Pseudo-kernels (`device`, `launch-graph`, `wcycle`,
/// `autotune`, `plan-cache`) carry no `launches` counter and are skipped.
pub fn kernel_rows(snap: &Snapshot, experiment: &str) -> Vec<KernelRow> {
    let peak_flops = snap
        .gauge(experiment, "device", None, "peak_fp64_flops")
        .unwrap_or(0.0);
    let gm_bandwidth = snap
        .gauge(experiment, "device", None, "gm_bandwidth_bytes_per_s")
        .unwrap_or(0.0);
    let gm_transaction_bytes = snap
        .gauge(experiment, "device", None, "gm_transaction_bytes")
        .unwrap_or(32.0);
    let mut rows = Vec::new();
    for kernel in snap.kernels(experiment) {
        let launches = snap.counter(experiment, &kernel, None, "launches");
        if launches <= 0.0 {
            continue; // pseudo-kernel track, not a launched kernel
        }
        let c = |name: &str| snap.counter(experiment, &kernel, None, name);
        let kernel_seconds = c("kernel_seconds");
        let overhead_seconds = c("overhead_seconds");
        let seconds = kernel_seconds + overhead_seconds;
        let observation = KernelObservation {
            flops: c("flops"),
            gm_bytes: c("gm_load_bytes") + c("gm_store_bytes"),
            gm_transactions: c("gm_transactions"),
            kernel_seconds,
            overhead_seconds,
            peak_flops,
            gm_bandwidth,
            gm_transaction_bytes,
        };
        let occupancy = if seconds > 0.0 {
            c("occ_seconds") / seconds
        } else {
            0.0
        };
        rows.push(KernelRow {
            kernel,
            seconds,
            launches,
            occupancy,
            derived: observation.derive(),
            observation,
        });
    }
    rows.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.kernel.cmp(&b.kernel))
    });
    rows
}

/// Builds the per-kernel profiler [`Report`] for one experiment in the
/// snapshot: time share, achieved occupancy, AI, roofline-ceiling
/// attribution, roof fraction, GM-transaction efficiency and launch-overhead
/// share, one row per kernel.
pub fn kernel_report(snap: &Snapshot, experiment: &str) -> Report {
    let rows = kernel_rows(snap, experiment);
    let total: f64 = rows.iter().map(|r| r.seconds).sum();
    let mut rep = Report::new(
        &format!("report-{experiment}"),
        &format!("Per-kernel profiler report — {experiment}"),
        "derived from the wsvd-metrics registry (Eqs. 8-10 attribution)",
        &[
            "kernel",
            "time%",
            "occ",
            "AI",
            "bound",
            "roof%",
            "GM-tx eff",
            "ovh%",
            "launches",
        ],
        "roofline ceiling per kernel: compute-bound hits peak FLOPS, memory-bound hits AI*BW",
    );
    for r in &rows {
        let d = &r.derived;
        rep.push_row(vec![
            r.kernel.clone(),
            format!("{:.1}%", time_share_percent(r.seconds, total)),
            format!("{:.3}", r.occupancy),
            if d.ai.is_finite() {
                format!("{:.2}", d.ai)
            } else {
                "inf".to_string()
            },
            if d.compute_bound { "compute" } else { "memory" }.to_string(),
            format!("{:.1}%", 100.0 * d.roof_fraction),
            format!("{:.3}", d.gm_transaction_efficiency),
            format!("{:.1}%", 100.0 * d.overhead_share),
            format!("{:.0}", r.launches),
        ]);
    }
    rep
}

/// Renders the full `repro --report` text: one per-kernel table per
/// experiment recorded in the snapshot, followed by the launch-graph
/// summary counters when the fused pipeline ran.
pub fn render_report(snap: &Snapshot) -> String {
    let mut out = String::new();
    for exp in snap.experiments() {
        let rep = kernel_report(snap, &exp);
        if rep.rows.is_empty() {
            continue;
        }
        out.push_str(&rep.render());
        let graphs = snap.counter(&exp, "launch-graph", None, "graphs");
        if graphs > 0.0 {
            out.push_str(&format!(
                "   launch graphs: {:.0} ({:.0} nodes, {:.0} coalesced); overhead saved {:.3e} s\n",
                graphs,
                snap.counter(&exp, "launch-graph", None, "nodes"),
                snap.counter(&exp, "launch-graph", None, "coalesced"),
                snap.counter(&exp, "launch-graph", None, "overhead_saved_seconds"),
            ));
        }
        out.push('\n');
    }
    out
}

/// A stable perf snapshot of one `repro` invocation: which experiments ran,
/// at which scale, and every metric series the registry accumulated.
/// Written by `repro --bench-out`, compared by `wsvd-bench-diff`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Format version ([`BENCH_SNAPSHOT_VERSION`]).
    pub version: f64,
    /// Scale the experiments ran at (`reduced` or `full`).
    pub scale: String,
    /// Experiment ids, in run order.
    pub experiments: Vec<String>,
    /// The metrics registry contents at the end of the run.
    pub metrics: Snapshot,
}

/// Relative tolerances for [`BenchSnapshot::compare`].
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Allowed relative drift on time-like series (names ending `seconds`).
    pub time: f64,
    /// Allowed relative drift on every other counter/gauge/histogram count.
    pub counter: f64,
    /// Accept series present only in the new snapshot (series present only
    /// in the baseline still violate). This is how CI gates a snapshot that
    /// legitimately *adds* experiments against the previous baseline.
    pub allow_new: bool,
    /// Key prefixes whose *value drift* is accepted as an intended change
    /// when gating against the previous release's baseline. Missing or
    /// extra series under an accepted prefix still violate — the flag
    /// waives a documented behavior change, not a lost series.
    pub accept_prefixes: Vec<String>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            time: 0.01,
            counter: 0.0,
            allow_new: false,
            accept_prefixes: Vec::new(),
        }
    }
}

impl Tolerances {
    fn accepts(&self, key: &str) -> bool {
        self.accept_prefixes.iter().any(|p| key.starts_with(p))
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// `true` when the series name carries simulated time (tolerated drift);
/// everything else is a count and held to the counter tolerance.
fn is_time_series(key: &str) -> bool {
    parse_key(key).is_some_and(|(_, _, _, name)| name.ends_with("seconds"))
}

impl BenchSnapshot {
    /// Serializes to deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses a snapshot written by [`BenchSnapshot::to_json`].
    pub fn from_json(s: &str) -> Result<BenchSnapshot, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Compares `self` (the baseline) against `fresh`, returning one
    /// human-readable violation per series outside tolerance. Missing or
    /// extra series are always violations; time-like series (`*seconds`)
    /// use `tol.time`, all other counters/gauges use `tol.counter`, and
    /// histogram bucket counts are compared under `tol.counter`. Value
    /// drift on a series under `tol.accept_prefixes` is waived (missing
    /// or extra series under a prefix still violate).
    pub fn compare(&self, fresh: &BenchSnapshot, tol: &Tolerances) -> Vec<String> {
        let mut out = Vec::new();
        if self.version != fresh.version {
            out.push(format!(
                "snapshot version mismatch: baseline v{} vs new v{}",
                self.version, fresh.version
            ));
            return out;
        }
        if self.scale != fresh.scale {
            out.push(format!(
                "scale mismatch: baseline '{}' vs new '{}'",
                self.scale, fresh.scale
            ));
        }
        compare_maps(
            "counter",
            &self.metrics.counters,
            &fresh.metrics.counters,
            tol,
            &mut out,
        );
        compare_maps(
            "gauge",
            &self.metrics.gauges,
            &fresh.metrics.gauges,
            tol,
            &mut out,
        );
        let keys: std::collections::BTreeSet<&String> = self
            .metrics
            .histograms
            .keys()
            .chain(fresh.metrics.histograms.keys())
            .collect();
        for key in keys {
            match (
                self.metrics.histograms.get(key),
                fresh.metrics.histograms.get(key),
            ) {
                (Some(a), Some(b)) => {
                    let d = rel_diff(a.total as f64, b.total as f64);
                    if d > tol.counter && !tol.accepts(key) {
                        out.push(format!(
                            "histogram {key}: baseline count {} vs new {} (rel {:.2e} > tol {:.2e})",
                            a.total, b.total, d, tol.counter
                        ));
                    }
                }
                (Some(_), None) => out.push(format!("histogram {key}: missing from new snapshot")),
                (None, Some(_)) if !tol.allow_new => {
                    out.push(format!("histogram {key}: not in baseline"))
                }
                _ => {}
            }
        }
        out
    }

    /// Total number of metric series in the snapshot (for diff summaries).
    pub fn series_count(&self) -> usize {
        self.metrics.counters.len() + self.metrics.gauges.len() + self.metrics.histograms.len()
    }
}

fn compare_maps(
    kind: &str,
    base: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    tol: &Tolerances,
    out: &mut Vec<String>,
) {
    let keys: std::collections::BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    for key in keys {
        match (base.get(key), fresh.get(key)) {
            (Some(&a), Some(&b)) => {
                let t = if is_time_series(key) {
                    tol.time
                } else {
                    tol.counter
                };
                let d = rel_diff(a, b);
                if d > t && !tol.accepts(key) {
                    out.push(format!(
                        "{kind} {key}: baseline {a} vs new {b} (rel {d:.2e} > tol {t:.2e})"
                    ));
                }
            }
            (Some(_), None) => out.push(format!("{kind} {key}: missing from new snapshot")),
            (None, Some(_)) if !tol.allow_new => out.push(format!("{kind} {key}: not in baseline")),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_metrics::MetricsSink;

    fn sample_sink() -> MetricsSink {
        let sink = MetricsSink::enabled();
        sink.set_experiment("t");
        sink.counter_add("evd", None, "launches", 2.0);
        sink.counter_add("evd", None, "flops", 1.0e9);
        sink.counter_add("evd", None, "gm_load_bytes", 1.0e6);
        sink.counter_add("evd", None, "gm_store_bytes", 1.0e6);
        sink.counter_add("evd", None, "gm_transactions", 70_000.0);
        sink.counter_add("evd", None, "kernel_seconds", 1.0e-3);
        sink.counter_add("evd", None, "overhead_seconds", 1.0e-5);
        sink.counter_add("evd", None, "occ_seconds", 0.75 * 1.01e-3);
        sink.gauge_set("device", None, "peak_fp64_flops", 7.0e12);
        sink.gauge_set("device", None, "gm_bandwidth_bytes_per_s", 9.0e11);
        sink.gauge_set("device", None, "gm_transaction_bytes", 32.0);
        sink
    }

    fn sample_snapshot() -> Snapshot {
        sample_sink().snapshot()
    }

    #[test]
    fn kernel_rows_skip_pseudo_kernels_and_derive_roofline() {
        let snap = sample_snapshot();
        let rows = kernel_rows(&snap, "t");
        assert_eq!(rows.len(), 1, "device gauge track must not become a row");
        let r = &rows[0];
        assert_eq!(r.kernel, "evd");
        assert_eq!(r.launches, 2.0);
        assert!((r.occupancy - 0.75).abs() < 1e-12);
        // AI = 1e9 / 2e6 = 500 >= ridge (7e12/9e11 ~ 7.8) -> compute bound.
        assert!(r.derived.compute_bound);
        assert!((r.derived.ai - 500.0).abs() < 1e-9);
        let rep = kernel_report(&snap, "t");
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.rows[0][1], "100.0%");
        assert_eq!(rep.rows[0][4], "compute");

        // NaN seconds must neither panic the sort nor scramble it:
        // `total_cmp` orders a (positive) NaN above every finite time.
        let sink = sample_sink();
        sink.counter_add("nan", None, "launches", 1.0);
        sink.counter_add("nan", None, "kernel_seconds", f64::NAN);
        let snap = sink.snapshot();
        let order: Vec<String> = kernel_rows(&snap, "t")
            .into_iter()
            .map(|r| r.kernel)
            .collect();
        assert_eq!(order, ["nan", "evd"]);
        assert_eq!(kernel_report(&snap, "t").rows.len(), 2);
    }

    #[test]
    fn bench_snapshot_round_trips_and_self_compares_clean() {
        let snap = BenchSnapshot {
            version: BENCH_SNAPSHOT_VERSION as f64,
            scale: "reduced".to_string(),
            experiments: vec!["fig7".to_string()],
            metrics: sample_snapshot(),
        };
        let json = snap.to_json();
        let back = BenchSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert!(snap.compare(&back, &Tolerances::default()).is_empty());
        assert_eq!(json, back.to_json(), "serialization must be deterministic");
    }

    #[test]
    fn compare_classifies_time_vs_counter_series() {
        let base = BenchSnapshot {
            version: 1.0,
            scale: "reduced".to_string(),
            experiments: vec![],
            metrics: sample_snapshot(),
        };
        let mut fresh = base.clone();
        // 0.5% drift on a time series: inside the 1% time tolerance.
        if let Some(v) = fresh.metrics.counters.get_mut("t/evd/-/kernel_seconds") {
            *v *= 1.005;
        }
        let tol = Tolerances::default();
        assert!(base.compare(&fresh, &tol).is_empty());
        // Any drift on a count series violates the exact counter tolerance.
        if let Some(v) = fresh.metrics.counters.get_mut("t/evd/-/launches") {
            *v += 1.0;
        }
        let violations = base.compare(&fresh, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("launches"));
    }

    #[test]
    fn compare_flags_missing_and_extra_series() {
        let base = BenchSnapshot {
            version: 1.0,
            scale: "reduced".to_string(),
            experiments: vec![],
            metrics: sample_snapshot(),
        };
        let mut fresh = base.clone();
        fresh.metrics.counters.remove("t/evd/-/flops");
        fresh
            .metrics
            .counters
            .insert("t/new/-/thing".to_string(), 1.0);
        let violations = base.compare(&fresh, &Tolerances::default());
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("missing from new")));
        assert!(violations.iter().any(|v| v.contains("not in baseline")));
    }

    #[test]
    fn allow_new_accepts_added_series_but_not_removed_ones() {
        let base = BenchSnapshot {
            version: 1.0,
            scale: "reduced".to_string(),
            experiments: vec![],
            metrics: sample_snapshot(),
        };
        let mut fresh = base.clone();
        fresh
            .metrics
            .counters
            .insert("t/new/-/thing".to_string(), 1.0);
        let tol = Tolerances {
            allow_new: true,
            ..Tolerances::default()
        };
        assert!(base.compare(&fresh, &tol).is_empty());
        fresh.metrics.counters.remove("t/evd/-/flops");
        let violations = base.compare(&fresh, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing from new"));
    }

    #[test]
    fn accept_prefixes_waive_value_drift_but_not_lost_series() {
        let base = BenchSnapshot {
            version: 1.0,
            scale: "reduced".to_string(),
            experiments: vec![],
            metrics: sample_snapshot(),
        };
        let mut fresh = base.clone();
        if let Some(v) = fresh.metrics.counters.get_mut("t/evd/-/launches") {
            *v += 7.0;
        }
        let tol = Tolerances {
            accept_prefixes: vec!["t/evd/-/launches".to_string()],
            ..Tolerances::default()
        };
        assert!(
            base.compare(&fresh, &tol).is_empty(),
            "drift on the accepted key must be waived"
        );
        // Drift outside the accepted prefix still violates...
        if let Some(v) = fresh.metrics.counters.get_mut("t/evd/-/flops") {
            *v += 1.0;
        }
        let violations = base.compare(&fresh, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("flops"));
        // ...and an accepted series going missing is never waived.
        if let Some(v) = fresh.metrics.counters.get_mut("t/evd/-/flops") {
            *v -= 1.0;
        }
        fresh.metrics.counters.remove("t/evd/-/launches");
        let violations = base.compare(&fresh, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing from new"));
    }
}
