//! Tail-latency attribution: turning served latency records into "why was
//! this request slow" answers.
//!
//! Every [`RequestRecord`] already carries the waterfall decomposition
//! `end_to_end = admission_wait + backlog + service` (DESIGN.md §15, both
//! identities bitwise). This module is the consumer side: [`tail_report`]
//! ranks the slowest requests, breaks each into its three components with
//! percentages, and aggregates which component dominates at and above the
//! p99 threshold — the number an operator acts on (admission-bound tails
//! call for a tighter `max_wait_us`; backlog/service-bound tails call for
//! more device or smaller batches). Everything here is a pure function of
//! the outcome records, so identical seeds replay byte-identical reports
//! ([`TailReport::render`] is the `wsvd-loadgen --why-slow` output that CI
//! byte-diffs).

use crate::server::{nearest_rank, RequestRecord, ServeOutcome};

/// The waterfall component that dominates a latency interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Policy-induced admission wait (`trigger − arrival`) dominates.
    Admission,
    /// Device-induced backlog (`batch start − trigger`: waiting for SMs or
    /// bandwidth) dominates.
    Backlog,
    /// The bucket's batched-SVD service time dominates.
    Service,
}

impl Component {
    /// Lowercase label used in rendered reports and experiment tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Admission => "admission",
            Component::Backlog => "backlog",
            Component::Service => "service",
        }
    }
}

/// Aggregate attribution over the requests at or above the p99 threshold.
#[derive(Clone, Debug)]
pub struct TailAttribution {
    /// The exact p99 end-to-end value ([`nearest_rank`] over the record
    /// values themselves, not histogram buckets): the `ceil(0.99·n)`-th
    /// smallest.
    pub threshold_us: f64,
    /// Requests with `end_to_end_us >= threshold_us`.
    pub count: usize,
    /// Summed admission wait across the tail (µs).
    pub admission_us: f64,
    /// Summed device backlog across the tail (µs).
    pub backlog_us: f64,
    /// Summed service time across the tail (µs).
    pub service_us: f64,
}

impl TailAttribution {
    /// Total tail latency (µs): the sum of the three components.
    pub fn total_us(&self) -> f64 {
        self.admission_us + self.backlog_us + self.service_us
    }

    /// One component's share of the tail's total latency, in percent.
    pub fn share(&self, c: Component) -> f64 {
        let total = self.total_us();
        if total <= 0.0 {
            return 0.0;
        }
        let part = match c {
            Component::Admission => self.admission_us,
            Component::Backlog => self.backlog_us,
            Component::Service => self.service_us,
        };
        100.0 * part / total
    }

    /// The component with the largest summed share. Ties resolve in the
    /// fixed order admission > backlog > service, so the verdict is
    /// deterministic even on degenerate tails.
    pub fn dominant(&self) -> Component {
        if self.admission_us >= self.backlog_us && self.admission_us >= self.service_us {
            Component::Admission
        } else if self.backlog_us >= self.service_us {
            Component::Backlog
        } else {
            Component::Service
        }
    }
}

/// The `--why-slow` deliverable: the top-K slowest requests, each with its
/// waterfall breakdown, plus the aggregate p99-tail attribution.
#[derive(Clone, Debug)]
pub struct TailReport {
    /// Served request count the report was built over.
    pub requests: usize,
    /// The K slowest records, by descending `end_to_end_us`; ties break by
    /// ascending request id so the ranking is a total order.
    pub slowest: Vec<RequestRecord>,
    /// Aggregate attribution over the p99 tail.
    pub tail: TailAttribution,
}

impl TailReport {
    /// Renders the deterministic operator-facing text (the exact bytes
    /// `wsvd-loadgen --why-slow` prints and CI diffs across runs).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "why-slow top-{} of {} served requests:\n",
            self.slowest.len(),
            self.requests
        ));
        for (rank, r) in self.slowest.iter().enumerate() {
            let pct = |part: f64| {
                if r.end_to_end_us > 0.0 {
                    100.0 * part / r.end_to_end_us
                } else {
                    0.0
                }
            };
            s.push_str(&format!(
                "  #{} req {} class {} ({}x{}) e2e={:.1}us = admission {:.1}us ({:.1}%) \
                 + backlog {:.1}us ({:.1}%) + service {:.1}us ({:.1}%)\n",
                rank + 1,
                r.id,
                r.class,
                r.rows,
                r.cols,
                r.end_to_end_us,
                r.admission_wait_us,
                pct(r.admission_wait_us),
                r.backlog_us,
                pct(r.backlog_us),
                r.service_us,
                pct(r.service_us),
            ));
        }
        let t = &self.tail;
        s.push_str(&format!(
            "p99 tail (e2e >= {:.1}us, {} of {}): admission {:.1}% | backlog {:.1}% \
             | service {:.1}% -> {}-bound\n",
            t.threshold_us,
            t.count,
            self.requests,
            t.share(Component::Admission),
            t.share(Component::Backlog),
            t.share(Component::Service),
            t.dominant().as_str(),
        ));
        s
    }
}

/// Builds the tail report for one served outcome: the `k` slowest requests
/// (clamped to the record count) plus the p99-tail attribution. A pure,
/// deterministic function of the records — no registry, no clock.
pub fn tail_report(outcome: &ServeOutcome, k: usize) -> TailReport {
    let n = outcome.records.len();
    let mut by_slowness: Vec<&RequestRecord> = outcome.records.iter().collect();
    by_slowness.sort_by(|a, b| {
        b.end_to_end_us
            .total_cmp(&a.end_to_end_us)
            .then(a.id.cmp(&b.id))
    });
    let slowest: Vec<RequestRecord> = by_slowness
        .iter()
        .take(k.min(n))
        .map(|r| (*r).clone())
        .collect();
    // The exact p99 over the per-request values. The tail is every
    // request at or above it — at least one for any non-empty outcome.
    let e2e: Vec<f64> = outcome.records.iter().map(|r| r.end_to_end_us).collect();
    let mut tail = TailAttribution {
        threshold_us: nearest_rank(&e2e, 0.99),
        count: 0,
        admission_us: 0.0,
        backlog_us: 0.0,
        service_us: 0.0,
    };
    // Accumulate in record (dispatch) order: deterministic f64 sums.
    for r in &outcome.records {
        if r.end_to_end_us >= tail.threshold_us {
            tail.count += 1;
            tail.admission_us += r.admission_wait_us;
            tail.backlog_us += r.backlog_us;
            tail.service_us += r.service_us;
        }
    }
    TailReport {
        requests: n,
        slowest,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::server::{serve_trace, ServeConfig};
    use crate::traffic::Trace;
    use wsvd_gpu_sim::{Gpu, V100};
    use wsvd_metrics::MetricsSink;

    fn served(seed: u64, policy: BatchPolicy) -> ServeOutcome {
        let gpu = Gpu::new(V100);
        let cfg = ServeConfig {
            policy,
            ..ServeConfig::default()
        };
        let trace = Trace::poisson(16, 5000.0, (6, 30), seed);
        serve_trace(&gpu, &trace, &cfg, &MetricsSink::disabled()).unwrap()
    }

    #[test]
    fn ranking_is_a_total_order_and_k_clamps() {
        let out = served(21, BatchPolicy::high_throughput());
        let rep = tail_report(&out, 1000);
        assert_eq!(rep.slowest.len(), out.records.len());
        for w in rep.slowest.windows(2) {
            assert!(
                w[0].end_to_end_us > w[1].end_to_end_us
                    || (w[0].end_to_end_us == w[1].end_to_end_us && w[0].id < w[1].id),
                "ranking not a strict total order"
            );
        }
        let top3 = tail_report(&out, 3);
        assert_eq!(top3.slowest.len(), 3);
        assert_eq!(top3.slowest[0].id, rep.slowest[0].id);
    }

    #[test]
    fn tail_sums_reconstruct_the_members_end_to_end() {
        let out = served(23, BatchPolicy::low_latency());
        let rep = tail_report(&out, 5);
        let t = &rep.tail;
        assert!(t.count >= 1);
        let e2e_sum: f64 = out
            .records
            .iter()
            .filter(|r| r.end_to_end_us >= t.threshold_us)
            .map(|r| r.end_to_end_us)
            .sum();
        assert!((t.total_us() - e2e_sum).abs() <= 1.0e-6 * e2e_sum.max(1.0));
        let shares = t.share(Component::Admission)
            + t.share(Component::Backlog)
            + t.share(Component::Service);
        assert!((shares - 100.0).abs() < 1.0e-9, "shares sum to {shares}");
    }

    #[test]
    fn identical_outcomes_render_byte_identical_reports() {
        let a = tail_report(&served(25, BatchPolicy::high_throughput()), 5).render();
        let b = tail_report(&served(25, BatchPolicy::high_throughput()), 5).render();
        assert_eq!(a, b);
        assert!(a.contains("-bound\n"), "missing verdict: {a}");
    }

    #[test]
    fn empty_outcomes_produce_an_empty_report() {
        let rep = tail_report(&ServeOutcome::default(), 5);
        assert_eq!(rep.requests, 0);
        assert!(rep.slowest.is_empty());
        assert_eq!(rep.tail.count, 0);
        assert_eq!(rep.tail.dominant(), Component::Admission); // tie order
    }
}
