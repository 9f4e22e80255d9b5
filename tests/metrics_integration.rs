//! Cross-layer metrics integration: real W-cycle workloads drive the
//! simulator with an enabled [`wsvd_metrics::MetricsSink`], and the registry
//! — the store of per-kernel totals — must agree with the structured-trace
//! span totals while remaining a strict no-op (bit-identical simulated time
//! and numerics) when disabled, and byte-identical across repeated seeded
//! runs.

use std::collections::BTreeMap;

use wsvd_bench::metrics_report::{kernel_report, kernel_rows};
use wsvd_bench::{BenchSnapshot, Tolerances, BENCH_SNAPSHOT_VERSION};
use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_linalg::generate::random_batch;
use wsvd_metrics::{parse_key, MetricsSink, Snapshot};
use wsvd_trace::{ArgValue, EventKind, TraceSink};

/// Runs a mixed batch (level-0 matrices plus one W-cycle descent) on a GPU
/// metered by `sink`, under experiment id `exp`.
fn metered_run(sink: &MetricsSink, exp: &str, batch: &[(usize, usize, usize, u64)]) -> Gpu {
    sink.set_experiment(exp);
    let mut gpu = Gpu::new(V100);
    gpu.set_metrics(sink.clone());
    let mut mats = Vec::new();
    for &(count, m, n, seed) in batch {
        mats.extend(random_batch(count, m, n, seed));
    }
    wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    gpu
}

/// The registry is the one store of per-kernel totals; the trace's kernel
/// spans are a second view of the same launches. For every kernel label
/// both report the same simulated seconds, launch count and FLOPs, and
/// neither sees a label the other does not.
#[test]
fn metrics_totals_match_trace_spans() {
    let trace = TraceSink::enabled();
    let sink = MetricsSink::enabled();
    sink.set_experiment("itest-totals");
    let mut gpu = Gpu::with_trace(V100, trace.clone());
    gpu.set_metrics(sink.clone());
    let mut mats = random_batch(3, 24, 24, 7);
    mats.extend(random_batch(1, 96, 96, 9));
    wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();

    // Trace-span totals per label: span duration + launch-overhead arg,
    // launch count and FLOPs.
    let mut spans: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    for e in trace.events().iter().filter(|e| e.track == "kernels") {
        if let EventKind::Span { dur, .. } = e.kind {
            let arg = |name: &str| {
                e.args
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| panic!("kernel spans carry {name}"))
            };
            let ArgValue::F64(overhead) = arg("launch_overhead_s") else {
                panic!("launch_overhead_s is a float");
            };
            let ArgValue::U64(flops) = arg("flops") else {
                panic!("flops is an integer");
            };
            let t = spans.entry(e.name.clone()).or_insert((0.0, 0, 0));
            t.0 += dur + overhead;
            t.1 += 1;
            t.2 += flops;
        }
    }

    let snap = sink.snapshot();
    let rows = kernel_rows(&snap, "itest-totals");
    assert!(rows.len() >= 3, "expected several kernel labels");
    for r in &rows {
        let Some(&(seconds, launches, flops)) = spans.get(&r.kernel) else {
            panic!("registry label {} has no trace spans", r.kernel);
        };
        assert!(
            (r.seconds - seconds).abs() <= 1e-12 * r.seconds.max(1e-30),
            "label {}: registry {} vs trace {seconds}",
            r.kernel,
            r.seconds
        );
        assert_eq!(r.launches, launches as f64, "label {} launches", r.kernel);
        assert_eq!(
            r.observation.flops, flops as f64,
            "label {} flops",
            r.kernel
        );
    }
    for label in spans.keys() {
        assert!(
            rows.iter().any(|r| &r.kernel == label),
            "trace label {label} is missing from the registry"
        );
    }
}

/// Strips the `plan-cache` counter series, which carry per-run deltas of the
/// *global* autotune cache and legitimately differ between a cold and a warm
/// run of the same shapes (misses become hits).
fn without_plan_cache(snap: &Snapshot) -> Snapshot {
    let mut s = snap.clone();
    s.counters
        .retain(|k, _| parse_key(k).map(|(_, kernel, _, _)| kernel) != Some("plan-cache"));
    s
}

/// Histogram determinism under rayon: block bodies run on a thread pool, but
/// all metric recording happens on the host-serial timeline, so two identical
/// seeded runs must serialize to byte-identical JSON.
#[test]
fn identical_runs_yield_byte_identical_snapshots() {
    let run = || {
        let sink = MetricsSink::enabled();
        metered_run(
            &sink,
            "itest-determinism",
            &[(2, 20, 20, 11), (1, 72, 72, 13)],
        );
        without_plan_cache(&sink.snapshot()).to_json()
    };
    let json1 = run();
    let json2 = run();
    assert!(!json1.is_empty());
    assert_eq!(json1, json2, "snapshots must be byte-identical");
}

/// The zero-cost claim: a disabled sink records nothing and changes nothing.
/// Simulated time and every singular value must be bit-identical with the
/// registry off and on.
#[test]
fn metrics_off_is_bit_identical() {
    let run = |sink: MetricsSink| {
        let mut gpu = Gpu::new(V100);
        gpu.set_metrics(sink);
        let mats = random_batch(1, 64, 64, 17);
        let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
        (gpu.elapsed_seconds(), out.results[0].sigma.clone())
    };
    let (t_off, sigma_off) = run(MetricsSink::disabled());
    let (t_on, sigma_on) = run(MetricsSink::enabled());
    assert_eq!(
        t_off.to_bits(),
        t_on.to_bits(),
        "metered simulated time must be bit-identical"
    );
    assert_eq!(sigma_off.len(), sigma_on.len());
    for (a, b) in sigma_off.iter().zip(&sigma_on) {
        assert_eq!(a.to_bits(), b.to_bits(), "sigma must be bit-identical");
    }
}

/// Satellite fix for the process-cumulative plan-cache semantics: the
/// registry records hit/miss as per-call increments, so `Snapshot::since`
/// yields exact per-run deltas — a cold run is all misses, a warm rerun of
/// the same shapes is all hits.
#[test]
fn plan_cache_counters_are_per_run_deltas() {
    let sink = MetricsSink::enabled();
    // 88x88 descends through level sizes no other test in this binary
    // touches, so the global plan cache is guaranteed cold here.
    let shapes: &[(usize, usize, usize, u64)] = &[(1, 88, 88, 19)];
    let c =
        |snap: &Snapshot, name: &str| snap.counter("itest-plan-cache", "plan-cache", None, name);

    let base = sink.snapshot();
    metered_run(&sink, "itest-plan-cache", shapes);
    let cold = sink.snapshot().since(&base);
    assert!(c(&cold, "misses") > 0.0, "cold run must miss");
    assert_eq!(c(&cold, "hits"), 0.0, "cold run cannot hit");

    let base = sink.snapshot();
    metered_run(&sink, "itest-plan-cache", shapes);
    let warm = sink.snapshot().since(&base);
    assert_eq!(c(&warm, "misses"), 0.0, "warm rerun cannot miss");
    assert_eq!(
        c(&warm, "hits"),
        c(&cold, "misses"),
        "every cold miss becomes a warm hit"
    );
}

/// A `BenchSnapshot` built from a real run round-trips through JSON and
/// self-compares clean under the default gate tolerances, and the per-kernel
/// report derived from it attributes every kernel to a roofline ceiling.
#[test]
fn bench_snapshot_from_real_run_round_trips() {
    let sink = MetricsSink::enabled();
    metered_run(&sink, "itest-bench", &[(1, 56, 56, 23)]);
    let bench = BenchSnapshot {
        version: BENCH_SNAPSHOT_VERSION as f64,
        scale: "reduced".to_string(),
        experiments: vec!["itest-bench".to_string()],
        metrics: sink.snapshot(),
    };
    let json = bench.to_json();
    let back = BenchSnapshot::from_json(&json).unwrap();
    assert_eq!(bench, back);
    assert_eq!(json, back.to_json(), "serialization must be deterministic");
    assert!(
        bench.compare(&back, &Tolerances::default()).is_empty(),
        "self-diff must be empty"
    );

    let rep = kernel_report(&bench.metrics, "itest-bench");
    assert!(rep.rows.len() >= 3, "expected several kernel rows");
    for row in &rep.rows {
        assert!(
            row[4] == "compute" || row[4] == "memory",
            "every kernel is attributed to a ceiling, got {:?}",
            row[4]
        );
    }
}
