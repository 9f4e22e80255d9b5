//! Serve-layer property tests (ISSUE 9 satellite, extended by ISSUE 10):
//! * every accepted request lands in exactly one dispatched bucket;
//! * bucket shapes respect the Table VI caps (member dimensions within the
//!   class cap, bucket size within the policy's effective cap);
//! * per-request `queue_delay + service == end_to_end` *and*
//!   `admission_wait + backlog == queue_delay` hold *bitwise* in simulated
//!   time;
//! * identical seeds replay byte-identical latency histograms and
//!   exemplars;
//! * every request record has exactly one request span whose duration is
//!   its end-to-end latency, every bucket span sits on the track of the
//!   stream that ran it with no two spans of a track overlapping, and an
//!   enabled trace sink never perturbs the served timeline.

use proptest::prelude::*;

use wcycle_svd::gpu::{Gpu, V100};
use wsvd_datasets::TABLE_VI;
use wsvd_metrics::MetricsSink;
use wsvd_serve::{serve_trace, tail_report, BatchPolicy, ServeConfig, ServeOutcome, Trace};
use wsvd_trace::{EventKind, TraceSink};

fn arb_policy() -> impl Strategy<Value = BatchPolicy> {
    (0u64..5_000, 1usize..16).prop_map(|(max_wait_us, max_batch)| BatchPolicy {
        max_wait_us,
        max_batch,
    })
}

fn run(trace: &Trace, policy: BatchPolicy) -> ServeOutcome {
    let gpu = Gpu::new(V100);
    let cfg = ServeConfig {
        policy,
        ..ServeConfig::default()
    };
    serve_trace(&gpu, trace, &cfg, &MetricsSink::disabled()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_accepted_request_lands_in_exactly_one_bucket(
        seed in 0u64..1_000,
        policy in arb_policy(),
    ) {
        let trace = Trace::poisson(18, 4_000.0, (6, 40), seed);
        let out = run(&trace, policy);
        // Nothing in this dimension range is rejectable.
        prop_assert_eq!(out.rejected, 0);
        prop_assert_eq!(out.records.len(), trace.requests.len());
        // Partition: bucket sizes sum to the record count, and every trace
        // id appears exactly once with a valid bucket back-reference.
        let batched: usize = out.batches.iter().map(|b| b.len).sum();
        prop_assert_eq!(batched, out.records.len());
        let mut ids: Vec<usize> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let want: Vec<usize> = (0..trace.requests.len()).collect();
        prop_assert_eq!(ids, want);
        for r in &out.records {
            prop_assert!(r.batch_id < out.batches.len());
            prop_assert_eq!(out.batches[r.batch_id].class, r.class);
        }
    }

    #[test]
    fn bucket_shapes_respect_table_vi_caps(
        seed in 0u64..1_000,
        policy in arb_policy(),
    ) {
        let trace = Trace::bursty(18, 5, 20_000.0, 30_000, (6, 80), seed);
        let out = run(&trace, policy);
        for b in &out.batches {
            prop_assert!(b.len <= policy.max_batch.clamp(1, TABLE_VI[b.class].batch),
                "bucket of {} exceeds the policy cap", b.len);
            let cap = TABLE_VI[b.class].cap;
            for r in out.records.iter().filter(|r| r.batch_id == b.batch_id) {
                prop_assert!(r.rows.max(r.cols) <= cap,
                    "a {}x{} member in a class-{} (cap {cap}) bucket", r.rows, r.cols, b.class);
            }
        }
    }

    #[test]
    fn queue_plus_service_is_end_to_end_bitwise(
        seed in 0u64..1_000,
        policy in arb_policy(),
    ) {
        let trace = Trace::assimilation(15, 6, 40, 4_000.0, seed);
        let out = run(&trace, policy);
        for r in &out.records {
            prop_assert_eq!(
                (r.queue_delay_us + r.service_us).to_bits(),
                r.end_to_end_us.to_bits()
            );
            prop_assert!(r.queue_delay_us >= 0.0);
            prop_assert!(r.service_us > 0.0);
        }
    }

    #[test]
    fn admission_plus_backlog_is_queue_delay_bitwise(
        seed in 0u64..1_000,
        policy in arb_policy(),
    ) {
        let trace = Trace::bursty(16, 4, 24_000.0, 20_000, (6, 40), seed);
        let out = run(&trace, policy);
        for r in &out.records {
            prop_assert_eq!(
                (r.admission_wait_us + r.backlog_us).to_bits(),
                r.queue_delay_us.to_bits()
            );
            prop_assert!(r.admission_wait_us >= 0.0);
            prop_assert!(r.backlog_us >= 0.0);
            prop_assert!(r.trigger_us >= r.arrival_us);
            // The policy never holds a request past its wait bound.
            prop_assert!(r.admission_wait_us <= policy.max_wait_us as f64);
        }
        // The tail report over these records is deterministic text.
        prop_assert_eq!(tail_report(&out, 3).render(), tail_report(&out, 3).render());
    }

    #[test]
    fn identical_seeds_replay_byte_identical_histograms(
        seed in 0u64..1_000,
        policy in arb_policy(),
    ) {
        let serve = || {
            let gpu = Gpu::new(V100);
            let sink = MetricsSink::enabled();
            sink.set_experiment("serve-prop");
            let cfg = ServeConfig { policy, ..ServeConfig::default() };
            let trace = Trace::poisson(15, 6_000.0, (6, 40), seed);
            serve_trace(&gpu, &trace, &cfg, &sink).unwrap();
            sink.snapshot().to_json()
        };
        prop_assert_eq!(serve(), serve());
    }
}

#[test]
fn recording_does_not_perturb_the_served_timeline() {
    // The sink observes; it must never steer. A disabled-sink run and an
    // enabled-sink run of the same trace serve bit-identical records.
    let trace = Trace::poisson(15, 6_000.0, (6, 40), 77);
    let quiet = {
        let gpu = Gpu::new(V100);
        serve_trace(
            &gpu,
            &trace,
            &ServeConfig::default(),
            &MetricsSink::disabled(),
        )
        .unwrap()
    };
    let recorded = {
        let gpu = Gpu::new(V100);
        let sink = MetricsSink::enabled();
        sink.set_experiment("serve-prop");
        serve_trace(&gpu, &trace, &ServeConfig::default(), &sink).unwrap()
    };
    assert_eq!(quiet.records.len(), recorded.records.len());
    for (a, b) in quiet.records.iter().zip(&recorded.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.end_to_end_us.to_bits(), b.end_to_end_us.to_bits());
    }
    assert_eq!(quiet.makespan_us.to_bits(), recorded.makespan_us.to_bits());
}

#[test]
fn exemplars_replay_byte_identical_and_reach_the_exposition() {
    // Identical seeds must reproduce identical exemplars — down to the
    // Prometheus exposition bytes — and the serve histograms must carry
    // request-id exemplars on their tail buckets.
    let serve = || {
        let gpu = Gpu::new(V100);
        let sink = MetricsSink::enabled();
        sink.set_experiment("serve-exemplar");
        let trace = Trace::poisson(15, 6_000.0, (6, 40), 99);
        serve_trace(&gpu, &trace, &ServeConfig::default(), &sink).unwrap();
        sink.snapshot().to_prometheus()
    };
    let a = serve();
    assert_eq!(a, serve());
    assert!(
        a.contains("# {request_id=\""),
        "no OpenMetrics exemplars in the serve exposition"
    );
}

#[test]
fn every_record_has_exactly_one_request_span_of_its_end_to_end_duration() {
    // Dimensions up to 96 so at least some buckets decompose multilevel
    // and emit per-level W-cycle spans for the bucket spans to parent.
    let trace = Trace::bursty(15, 4, 24_000.0, 20_000, (24, 96), 101);
    let sink = TraceSink::enabled();
    let gpu = Gpu::with_trace(V100, sink.clone());
    let out = serve_trace(
        &gpu,
        &trace,
        &ServeConfig::default(),
        &MetricsSink::disabled(),
    )
    .unwrap();
    let events = sink.events();
    for r in &out.records {
        let spans: Vec<_> = events
            .iter()
            .filter(|e| {
                e.name == format!("req {}", r.id) && e.track == format!("class {}", r.class)
            })
            .collect();
        assert_eq!(spans.len(), 1, "request {} has {} spans", r.id, spans.len());
        let EventKind::Span { start, dur } = spans[0].kind else {
            panic!("request {} event is not a span", r.id);
        };
        assert_eq!(start.to_bits(), (r.arrival_us as f64 * 1.0e-6).to_bits());
        assert_eq!(dur.to_bits(), (r.end_to_end_us * 1.0e-6).to_bits());
    }
    // Every dispatched bucket appears twice: once on the serving process's
    // track of the stream that ran it and once on the GPU's `wcycle` track.
    let mut bucket_bounds = Vec::new();
    for b in &out.batches {
        let name = format!("bucket {}", b.batch_id);
        let stream = format!("stream {}", b.stream);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == name && e.track == stream)
                .count(),
            1
        );
        let on_gpu: Vec<_> = events
            .iter()
            .filter(|e| e.name == name && e.track == "wcycle" && e.pid == gpu.trace_pid())
            .collect();
        assert_eq!(on_gpu.len(), 1);
        let EventKind::Span { start, dur } = on_gpu[0].kind else {
            panic!("bucket {} event is not a span", b.batch_id);
        };
        bucket_bounds.push((start, start + dur));
    }
    // Every per-level W-cycle span nests inside exactly one bucket span —
    // the parenting Perfetto renders — and multilevel work exists at these
    // dimensions, so the property is not vacuous.
    let levels: Vec<_> = events
        .iter()
        .filter(|e| e.track == "wcycle" && e.pid == gpu.trace_pid() && e.name.starts_with("level "))
        .collect();
    assert!(
        !levels.is_empty(),
        "no per-level W-cycle spans were emitted"
    );
    for lv in levels {
        let EventKind::Span { start, dur } = lv.kind else {
            panic!("level event is not a span");
        };
        let parents = bucket_bounds
            .iter()
            .filter(|(lo, hi)| start >= *lo && start + dur <= hi + 1.0e-12)
            .count();
        assert_eq!(parents, 1, "a level span nests in {parents} bucket spans");
    }
}

#[test]
fn bucket_spans_on_one_stream_track_never_overlap() {
    // Dense arrivals with multilevel dimensions: buckets overlap on the
    // device, so several stream tracks exist and the property is not
    // vacuous.
    let trace = Trace::assimilation(48, 8, 128, 20_000.0, 107);
    let sink = TraceSink::enabled();
    let gpu = Gpu::with_trace(V100, sink.clone());
    let cfg = ServeConfig {
        policy: BatchPolicy::low_latency(),
        ..ServeConfig::default()
    };
    let out = serve_trace(&gpu, &trace, &cfg, &MetricsSink::disabled()).unwrap();
    let events = sink.events();
    let mut by_track: std::collections::BTreeMap<&str, Vec<(f64, f64)>> = Default::default();
    for e in &events {
        if !e.track.starts_with("stream ") {
            continue;
        }
        let EventKind::Span { start, dur } = e.kind else {
            panic!("{} on {} is not a span", e.name, e.track);
        };
        by_track
            .entry(e.track.as_str())
            .or_default()
            .push((start, start + dur));
    }
    assert!(
        by_track.len() > 1,
        "every bucket ran on one stream: vacuous"
    );
    let spans: usize = by_track.values().map(Vec::len).sum();
    assert_eq!(spans, out.batches.len());
    for (track, spans) in &mut by_track {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Back-to-back buckets meet exactly in µs; the seconds-scaled
        // span ends may differ from the next start by rounding.
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1.0e-12,
                "{track}: {:?} overlaps {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn an_enabled_trace_sink_does_not_perturb_the_served_timeline() {
    // Mirror of the metrics no-op property for the trace sink: tracing a
    // served run must replay bit-identical records and makespan.
    let trace = Trace::poisson(15, 6_000.0, (6, 40), 103);
    let quiet = {
        let gpu = Gpu::new(V100);
        serve_trace(
            &gpu,
            &trace,
            &ServeConfig::default(),
            &MetricsSink::disabled(),
        )
        .unwrap()
    };
    let traced = {
        let gpu = Gpu::with_trace(V100, TraceSink::enabled());
        serve_trace(
            &gpu,
            &trace,
            &ServeConfig::default(),
            &MetricsSink::disabled(),
        )
        .unwrap()
    };
    assert_eq!(quiet.records.len(), traced.records.len());
    for (a, b) in quiet.records.iter().zip(&traced.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.admission_wait_us.to_bits(), b.admission_wait_us.to_bits());
        assert_eq!(a.backlog_us.to_bits(), b.backlog_us.to_bits());
        assert_eq!(a.end_to_end_us.to_bits(), b.end_to_end_us.to_bits());
    }
    assert_eq!(quiet.makespan_us.to_bits(), traced.makespan_us.to_bits());
}
