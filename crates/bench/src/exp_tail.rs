//! `ext-tail` — tail-latency attribution per trace × policy (extension).
//!
//! The same three seeded traces as `ext-serve`, but offered at a rate
//! deliberately placed **between** the two policies' sustained capacities:
//! the eager `low_latency` policy (200 µs / 8) saturates the device — its
//! launch-heavy stream of small buckets cannot keep up even on concurrent
//! streams, so a backlog of dispatched buckets builds and the tail is
//! device-bound — while the patient `high_throughput` policy
//! (20 000 µs / 64) amortizes launches into large buckets, keeps the device
//! ahead of arrivals, and pays for it with admission wait, so its tail is
//! policy-bound.
//!
//! The dimensions reach past the level-0 in-SM limit (48) at both scales.
//! Buckets of in-SM matrices only hold a few SMs and little bandwidth, so
//! the streams run them side by side faster than the trace generator's
//! 1 µs arrival resolution can offer them: no offered rate saturates an
//! eager policy over 8..48. Multilevel buckets hold bandwidth-heavy
//! launches, so they contend for the device and an eager stream of them
//! can fall behind.
//!
//! Each row attributes the p99 tail of one (trace, policy) cell to the
//! waterfall components of DESIGN.md §15 (`admission` = trigger − arrival,
//! `backlog` = start − trigger, `service` = batched-SVD duration) and
//! names the dominant one. The experiment *pins the attribution itself*
//! with hard asserts: every `latency` tail must be backlog- or
//! service-bound and every `throughput` tail admission-bound — the
//! actionable signal (backlog-bound → add device or shrink buckets;
//! admission-bound → tighten `max_wait_us`) an operator reads off the
//! `wsvd-loadgen --why-slow` waterfall. Everything runs on simulated time
//! with seeded generators, so the table is bit-identical across runs.

use wsvd_gpu_sim::{Gpu, V100};
use wsvd_metrics::MetricsSink;
use wsvd_serve::{
    serve_trace, tail_report, BatchPolicy, Component, ServeConfig, TailReport, Trace,
};

use crate::report::Report;
use crate::scale::Scale;

/// Trace seed (distinct from `ext-serve` so the two tables decorrelate).
const SEED: u64 = 1717;

/// One (trace, policy) cell: a fresh device per run; the tail report is a
/// pure function of the outcome records, so no registry is needed.
fn run_cell(trace: &Trace, policy: BatchPolicy) -> TailReport {
    let gpu = Gpu::new(V100);
    let cfg = ServeConfig {
        policy,
        slo_e2e_us: 1.0e6,
        fused: true,
    };
    let outcome =
        serve_trace(&gpu, trace, &cfg, &MetricsSink::disabled()).expect("finite seeded payloads");
    tail_report(&outcome, 5)
}

/// The `ext-tail` experiment (see the module docs for the row contract).
pub fn ext_tail(scale: Scale) -> Report {
    let requests = scale.pick(384usize, 192);
    let (min_dim, max_dim) = scale.pick((8usize, 64usize), (16, 256));
    let points = scale.pick(384usize, 192);
    // Between the policies' sustained capacities at each scale, so the
    // eager policy backlogs while the patient one keeps up. Both are
    // measured offered at 1M r/s. The eager capacity is requests /
    // makespan (its buckets overlap on the streams): ≈108k–179k r/s
    // reduced, ≈2.8k–3.2k full. The patient capacity is
    // `ServeSummary::throughput_rps` (its buckets hold most of the device,
    // about one at a time): ≈300k–449k reduced, ≈4.4k–5.8k full.
    let rate_hz = scale.pick(250_000.0, 3_500.0);
    // Bursts arrive at the base rate (not ext-serve's ×4): the point is
    // saturating the *eager* policy only, and ×4 would swamp both.
    let traces = [
        Trace::poisson(requests, rate_hz, (min_dim, max_dim), SEED),
        Trace::bursty(
            requests,
            (requests / 4).max(2),
            rate_hz,
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
        "ext-tail",
        "Tail-latency attribution: which waterfall component owns the p99 (extension)",
        &scale.note(&format!(
            "{requests}-request poisson/bursty traces of {min_dim}..{max_dim}, \
             {points}-point assimilation mixture, offered at {rate_hz} r/s \
             between the eager and patient sustained capacities"
        )),
        &[
            "trace",
            "policy",
            "requests",
            "tail-n",
            "p99-thresh",
            "admission",
            "backlog",
            "service",
            "dominant",
        ],
        "an overloaded eager policy owes its tail to device backlog (and service), a \
         keeping-up patient policy owes its tail to admission wait — the two halves of \
         queue_delay point at opposite remedies, bit-identical across seeded runs",
    );
    for trace in &traces {
        for (label, policy) in policies {
            let r = run_cell(trace, policy);
            let t = &r.tail;
            rep.push_row(vec![
                trace.name.clone(),
                label.to_string(),
                r.requests.to_string(),
                t.count.to_string(),
                fmt_us(t.threshold_us),
                format!("{:.1}%", t.share(Component::Admission)),
                format!("{:.1}%", t.share(Component::Backlog)),
                format!("{:.1}%", t.share(Component::Service)),
                t.dominant().as_str().to_string(),
            ]);
            // The attribution *is* the result: pin it. An eager policy
            // over capacity must blame the device, a patient policy under
            // capacity must blame itself.
            match label {
                "latency" => assert!(
                    matches!(t.dominant(), Component::Backlog | Component::Service),
                    "{}: eager tail should be device-bound, got {} \
                     (admission {:.1}% backlog {:.1}% service {:.1}%)",
                    trace.name,
                    t.dominant().as_str(),
                    t.share(Component::Admission),
                    t.share(Component::Backlog),
                    t.share(Component::Service),
                ),
                _ => assert!(
                    t.dominant() == Component::Admission,
                    "{}: patient tail should be admission-bound, got {} \
                     (admission {:.1}% backlog {:.1}% service {:.1}%)",
                    trace.name,
                    t.dominant().as_str(),
                    t.share(Component::Admission),
                    t.share(Component::Backlog),
                    t.share(Component::Service),
                ),
            }
        }
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
