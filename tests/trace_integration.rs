//! Cross-layer trace integration: a real W-cycle workload drives the
//! simulator with an enabled sink, and the exported timeline must be
//! (a) valid Chrome trace-event JSON with sane per-track timestamps,
//! (b) byte-identical across repeated seeded runs (modulo the
//! process-cumulative `plan-cache` counter track, which must only warm up),
//! and (c) in agreement with each matrix's returned convergence status on
//! the per-sweep convergence samples. (Kernel totals agree with the metrics
//! registry: `metrics_integration::metrics_totals_match_trace_spans`.)

use std::collections::BTreeMap;

use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_linalg::generate::random_batch;
use wsvd_trace::{chrome_trace_json, ArgValue, Event, EventKind, TraceSink};

/// Mixed batch: three level-0 matrices plus one that descends the W-cycle,
/// so the trace exercises kernel spans, sweep instants and plan events.
fn traced_workload() -> TraceSink {
    let sink = TraceSink::enabled();
    let gpu = Gpu::with_trace(V100, sink.clone());
    let mut mats = random_batch(3, 24, 24, 7);
    mats.extend(random_batch(1, 96, 96, 9));
    wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();
    sink
}

fn span_bounds(e: &Event) -> Option<(f64, f64)> {
    match e.kind {
        EventKind::Span { start, dur } => Some((start, start + dur)),
        _ => None,
    }
}

#[test]
fn chrome_export_reparses_with_serde_json() {
    let sink = traced_workload();
    let json = chrome_trace_json(&sink.events(), &sink.processes());
    let v: serde_json::Value = serde_json::from_str(&json).expect("exporter must emit valid JSON");
    let evs = v
        .get("traceEvents")
        .and_then(|e| e.as_seq())
        .expect("traceEvents array");
    assert!(
        evs.len() > 20,
        "expected a non-trivial trace, got {} events",
        evs.len()
    );
    for e in evs {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .expect("every event has ph");
        assert!(matches!(ph, "X" | "i" | "C" | "M"), "unexpected phase {ph}");
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        if ph != "M" {
            let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts present");
            assert!(ts.is_finite() && ts >= 0.0, "ts {ts} out of range");
        }
        if ph == "X" {
            let dur = e.get("dur").and_then(|d| d.as_f64()).expect("dur present");
            assert!(dur.is_finite() && dur >= 0.0, "dur {dur} out of range");
        }
    }
}

#[test]
fn span_timestamps_are_monotone_per_track() {
    let sink = traced_workload();
    let events = sink.events();
    let mut lanes: BTreeMap<(u32, &str), Vec<(f64, f64)>> = BTreeMap::new();
    for e in &events {
        if let Some(b) = span_bounds(e) {
            lanes.entry((e.pid, e.track.as_str())).or_default().push(b);
        }
    }
    assert!(lanes.keys().any(|(_, t)| *t == "kernels"));
    for ((pid, track), spans) in lanes {
        if track == "wcycle" {
            // Recursion spans nest (the W shape): any two either disjoint
            // or one inside the other, never partially overlapping.
            for (i, &(s1, e1)) in spans.iter().enumerate() {
                for &(s2, e2) in &spans[i + 1..] {
                    let disjoint = e1 <= s2 || e2 <= s1;
                    let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                    assert!(
                        disjoint || nested,
                        "wcycle spans partially overlap: [{s1}, {e1}] vs [{s2}, {e2}]"
                    );
                }
            }
        } else {
            // Launch-ordered lanes never run backwards or overlap.
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-15,
                    "track {track} (pid {pid}) overlaps: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn repeated_seeded_runs_export_identical_traces() {
    // The `plan-cache` counter track carries the *process-cumulative*
    // hit/miss counts of the global autotune plan cache, so it is the one
    // track that legitimately differs between a cold first run and a warm
    // second run. Everything else must be byte-identical. (The wsvd-metrics
    // registry fixes this for metrics consumers: it records hit/miss as
    // per-call increments, so `Snapshot::since` yields exact per-run deltas
    // — see `metrics_integration::plan_cache_counters_are_per_run_deltas`.)
    let run = || {
        let sink = traced_workload();
        let (events, processes) = (sink.events(), sink.processes());
        let (cache, rest): (Vec<Event>, Vec<Event>) =
            events.into_iter().partition(|e| e.track == "plan-cache");
        (chrome_trace_json(&rest, &processes), cache)
    };
    let (json1, cache1) = run();
    let (json2, cache2) = run();
    assert_eq!(json1, json2, "seeded traces must be byte-identical");
    // The cache track itself must show the second run warmer, not colder:
    // same sample count, no new misses, strictly more hits.
    let last = |events: &[Event], name: &str| -> f64 {
        events
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::Counter { value, .. } if e.name == name => Some(value),
                _ => None,
            })
            .expect("plan-cache samples present")
    };
    assert_eq!(cache1.len(), cache2.len());
    assert_eq!(
        last(&cache1, "misses"),
        last(&cache2, "misses"),
        "a repeated workload must not re-tune"
    );
    assert!(
        last(&cache2, "hits") > last(&cache1, "hits"),
        "the second run must hit the warm plan cache"
    );
}

/// The per-sweep view of one run — the trace's `wcycle/sweep` instants —
/// agrees with the per-matrix status the run returns, on a batch that mixes
/// level-0 kernel sweeps with multilevel block sweeps: level 0 traces one
/// instant per sweep of its slowest matrix, level 1 (visited once) one per
/// sweep of the descending matrix, and each level's last instant leaves no
/// task active, as every matrix returned converged.
#[test]
fn sweep_views_agree_bitwise() {
    let trace = TraceSink::enabled();
    let gpu = Gpu::with_trace(V100, trace.clone());
    let mut mats = random_batch(3, 24, 24, 7);
    mats.extend(random_batch(1, 96, 96, 9));
    let out = wcycle_svd(&gpu, &mats, &WCycleConfig::default()).unwrap();

    let arg = |e: &Event, name: &str| {
        e.args
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("sweep instant lacks `{name}`"))
    };
    let u = |v: ArgValue| match v {
        ArgValue::U64(x) => x,
        other => panic!("expected an integer arg, got {other:?}"),
    };
    let traced: Vec<(u64, u64, u64)> = trace
        .events()
        .iter()
        .filter(|e| e.track == "wcycle" && e.name == "sweep")
        .map(|e| {
            assert!(matches!(arg(e, "coherence"), ArgValue::F64(_)));
            (u(arg(e, "level")), u(arg(e, "sweep")), u(arg(e, "active")))
        })
        .collect();
    let at_level = |l: u64| -> Vec<(u64, u64)> {
        traced
            .iter()
            .filter(|r| r.0 == l)
            .map(|r| (r.1, r.2))
            .collect()
    };
    assert!(out.results.iter().all(|r| r.converged));
    for (level, results) in [(0, &out.results[..3]), (1, &out.results[3..])] {
        let sweeps = at_level(level);
        let want = results.iter().map(|r| r.sweeps).max().unwrap() as u64;
        let numbers: Vec<u64> = sweeps.iter().map(|s| s.0).collect();
        assert_eq!(numbers, (1..=want).collect::<Vec<_>>(), "level {level}");
        assert_eq!(
            sweeps.last().unwrap().1,
            0,
            "level {level} ends with no task active"
        );
    }
}
