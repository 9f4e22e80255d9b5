//! `ext-tail` — tail-latency attribution per trace × policy (extension).
//!
//! The same three seeded traces as `ext-serve`, offered fast enough that
//! the eager `low_latency` policy (200 µs / 8) keeps the device busy with a
//! launch-heavy stream of small buckets while the patient
//! `high_throughput` policy (20 000 µs / 64) amortizes launches into large
//! buckets and pays for it with admission wait. At full scale the rate lies
//! between the two policies' sustained capacities, so the eager policy
//! falls behind and its tail is device-bound. At reduced scale the two
//! capacity ranges overlap, so no rate lies between them; the eager policy
//! keeps up and its tail is service time, which is device-bound as well.
//! Either way the patient policy keeps up and its tail is policy-bound.
//!
//! The dimensions reach past the level-0 in-SM limit (48) at both scales.
//! Buckets of in-SM matrices only hold a few SMs and little bandwidth, so
//! the streams run them side by side faster than the trace generator's
//! 1 µs arrival resolution can offer them: no offered rate saturates an
//! eager policy over 8..48. Multilevel buckets hold bandwidth-heavy
//! launches, but only for those launches, so they still overlap.
//!
//! Each row attributes the p99 tail of one (trace, policy) cell to the
//! waterfall components of DESIGN.md §15 (`admission` = trigger − arrival,
//! `backlog` = start − trigger, `service` = batched-SVD duration) and
//! names the dominant one. The experiment *pins the attribution itself*
//! with hard asserts: every `latency` tail must be backlog- or
//! service-bound and every `throughput` tail admission-bound — the
//! actionable signal (backlog-bound → add device or shrink buckets;
//! admission-bound → tighten `max_wait_us`) an operator reads off the
//! `wsvd-loadgen --why-slow` waterfall. The `sm-occ` column is the
//! device's SM occupancy across concurrent streams: the SM-microseconds the
//! buckets' launches held over `num_sms × makespan`. Everything runs on
//! simulated time with seeded generators, so the table is bit-identical
//! across runs.

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
/// pure function of the outcome records, so no registry is needed. Returns
/// it with the device's SM occupancy over the makespan.
fn run_cell(trace: &Trace, policy: BatchPolicy) -> (TailReport, f64) {
    let gpu = Gpu::new(V100);
    let cfg = ServeConfig {
        policy,
        slo_e2e_us: 1.0e6,
    };
    let outcome =
        serve_trace(&gpu, trace, &cfg, &MetricsSink::disabled()).expect("finite seeded payloads");
    let sm_occupancy = if outcome.makespan_us > 0.0 {
        outcome.sm_us / (V100.num_sms as f64 * outcome.makespan_us)
    } else {
        0.0
    };
    (tail_report(&outcome, 5), sm_occupancy)
}

/// The `ext-tail` experiment (see the module docs for the row contract).
pub fn ext_tail(scale: Scale) -> Report {
    let requests = scale.pick(384usize, 192);
    let (min_dim, max_dim) = scale.pick((8usize, 64usize), (16, 256));
    let points = scale.pick(384usize, 192);
    // Both capacities are measured offered at 1M r/s: the eager one as
    // requests / makespan (its buckets overlap on the streams), the patient
    // one as `ServeSummary::throughput_rps` (its buckets hold most of the
    // device, about one at a time). Full scale: eager ≈3.1k–3.6k, patient
    // ≈4.4k–5.8k, and the rate lies between them, so the eager policy
    // backlogs while the patient one keeps up. Reduced: eager
    // ≈360k–409k, patient ≈300k–449k; the ranges overlap, so no rate lies
    // between them, and at 250k both keep up.
    let rate_hz = scale.pick(250_000.0, 4_000.0);
    // Bursts arrive at the base rate (not ext-serve's ×4): the point is
    // loading the *eager* policy only, and ×4 would swamp both.
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
             {points}-point assimilation mixture, offered at {rate_hz} r/s"
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
            "sm-occ",
        ],
        "an eager policy owes its tail to the device (service, plus backlog once it \
         overloads the streams), a keeping-up patient policy owes its tail to admission \
         wait — the two halves of queue_delay point at opposite remedies, bit-identical \
         across seeded runs",
    );
    for trace in &traces {
        for (label, policy) in policies {
            let (r, sm_occupancy) = run_cell(trace, policy);
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
                format!("{:.1}%", 100.0 * sm_occupancy),
            ]);
            // The attribution *is* the result: pin it. An eager policy
            // must blame the device, a patient policy under capacity must
            // blame itself.
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
