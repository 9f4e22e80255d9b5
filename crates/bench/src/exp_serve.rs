//! `ext-serve` — the online serving layer's batching-policy tradeoff
//! (extension).
//!
//! Three seeded arrival traces (Poisson, bursty on/off, and the §V-F
//! ocean-assimilation mixture) are each served under two admission
//! policies:
//!
//! * **latency** — `max_wait_us = 200`, `max_batch = 8`: buckets dispatch
//!   almost immediately, so requests rarely wait but the device eats a
//!   launch-heavy stream of small batches.
//! * **throughput** — `max_wait_us = 20000`, `max_batch = 64`: requests
//!   wait for batch-mates, buckets are larger, the batched W-cycle
//!   amortizes launches — fewer, bigger dispatches.
//!
//! Each row reports the request count, dispatched buckets, p50/p99
//! end-to-end latency (exact order statistics of the served records),
//! mean queueing delay, sustained (work-normalized) throughput and SLO
//! violations. Everything runs on
//! simulated time with seeded generators, so the whole table is
//! bit-identical across runs and `repro --check` can pin it. The expected
//! shape is the serving tradeoff itself: for a given trace the throughput
//! policy dispatches **no more buckets** than the latency policy, and its
//! extra admission wait shows up in the queueing column.

use wsvd_gpu_sim::{Gpu, V100};
use wsvd_metrics::MetricsSink;
use wsvd_serve::{serve_trace, summarize, BatchPolicy, ServeConfig, ServeSummary, Trace};

use crate::report::Report;
use crate::scale::Scale;

/// Trace seed (shared by all three traces; payload seeds derive from it).
const SEED: u64 = 9292;

/// One (trace, policy) cell: a fresh device and a local sink per run so
/// rows never bleed into each other.
fn run_cell(trace: &Trace, policy: BatchPolicy, slo_e2e_us: f64) -> ServeSummary {
    let sink = MetricsSink::enabled();
    sink.set_experiment("ext-serve");
    let gpu = Gpu::new(V100);
    let cfg = ServeConfig { policy, slo_e2e_us };
    let outcome = serve_trace(&gpu, trace, &cfg, &sink).expect("finite seeded payloads");
    summarize(&sink.snapshot(), "ext-serve", &outcome)
}

/// The `ext-serve` experiment (see the module docs for the row contract).
pub fn ext_serve(scale: Scale) -> Report {
    let requests = scale.pick(24usize, 96);
    let (min_dim, max_dim) = scale.pick((8usize, 48usize), (16, 256));
    let points = 48; // the §V-F mixture size, both scales
    let rate_hz = scale.pick(3000.0, 1500.0);
    let slo_e2e_us = scale.pick(50_000.0, 400_000.0);
    let traces = [
        Trace::poisson(requests, rate_hz, (min_dim, max_dim), SEED),
        Trace::bursty(
            requests,
            (requests / 4).max(2),
            rate_hz * 4.0,
            (4.0e6 / rate_hz) as u64,
            (min_dim, max_dim),
            SEED,
        ),
        Trace::assimilation(points, min_dim, max_dim, rate_hz, SEED),
    ];
    let policies = [
        ("latency", BatchPolicy::low_latency()),
        ("throughput", BatchPolicy::high_throughput()),
    ];
    let mut rep = Report::new(
        "ext-serve",
        "Online serving: admission batching policies under open-loop load (extension)",
        &scale.note(&format!(
            "{requests}-request poisson/bursty traces of {min_dim}..{max_dim}, \
             {points}-point assimilation mixture; SLO p99 {slo_e2e_us} us"
        )),
        &[
            "trace",
            "policy",
            "requests",
            "batches",
            "p50-e2e",
            "p99-e2e",
            "mean-queue",
            "throughput",
            "slo-viol",
        ],
        "waiting longer for batch-mates dispatches fewer, larger buckets (higher sustained \
         throughput) at the cost of queueing delay and tail latency — the batching-policy \
         tradeoff, bit-identical across seeded runs",
    );
    for trace in &traces {
        let mut cells = Vec::new();
        for (label, policy) in policies {
            let s = run_cell(trace, policy, slo_e2e_us);
            cells.push(s.clone());
            rep.push_row(vec![
                trace.name.clone(),
                label.to_string(),
                s.requests.to_string(),
                s.batches.to_string(),
                fmt_us(s.p50_e2e_us),
                fmt_us(s.p99_e2e_us),
                fmt_us(s.mean_queue_us),
                format!("{:.1} r/s", s.throughput_rps),
                s.slo_violations.to_string(),
            ]);
        }
        // The tradeoff is deterministic on simulated time: the patient
        // policy can only merge buckets (never split them), merged buckets
        // amortize launches into higher sustained throughput, and the
        // admission wait it buys that with shows up in the tail.
        let (eager, patient) = (&cells[0], &cells[1]);
        assert!(
            patient.batches <= eager.batches,
            "{}: throughput policy dispatched more buckets ({}) than latency ({})",
            trace.name,
            patient.batches,
            eager.batches,
        );
        assert!(
            patient.throughput_rps >= eager.throughput_rps,
            "{}: batching lost sustained throughput ({:.1} vs {:.1} r/s)",
            trace.name,
            patient.throughput_rps,
            eager.throughput_rps,
        );
        assert!(
            patient.p99_e2e_us >= eager.p99_e2e_us,
            "{}: waiting longer somehow improved p99 ({:.1} vs {:.1} us)",
            trace.name,
            patient.p99_e2e_us,
            eager.p99_e2e_us,
        );
    }
    rep
}

/// Deterministic microsecond formatting for report cells.
fn fmt_us(us: f64) -> String {
    if us >= 1.0e4 {
        format!("{:.2} ms", us / 1.0e3)
    } else {
        format!("{us:.1} us")
    }
}
