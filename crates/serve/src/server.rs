//! The deterministic serving loop and its latency accounting.
//!
//! [`serve_trace`] interleaves three event sources on the simulated clock —
//! request arrivals, bucket deadlines, and device completions — into one
//! total order: at each step the earliest pending event fires, with bucket
//! deadlines beating arrivals at the same timestamp (a request arriving
//! exactly at a bucket's deadline joins the *next* bucket) and tied
//! deadlines resolving by ascending size class. Dispatched buckets run as a
//! single batched W-cycle SVD, measured as one stream interval
//! ([`Gpu::interval`]): its simulated duration and its reservation
//! profile, one phase per launch holding the SMs and GM bandwidth that
//! launch was modelled with for as long as it runs. The device runs
//! buckets on concurrent streams ([`StreamDevice`], DESIGN.md §14): a
//! bucket starts at or after its trigger, never before an
//! earlier-triggered bucket, as soon as every launch, at its offset in the
//! bucket, fits beside the launches already reserved. Its service is what
//! it takes alone on the device; only its start depends on its
//! neighbours. Each stream has one host submitter, so a bucket's launch
//! overheads stay inside its own service time.
//!
//! Latency accounting (DESIGN.md §14–15): per request the wait decomposes
//! into the policy-induced and the device-induced share,
//! `admission_wait = bucket_trigger − arrival` (how long the admission
//! policy held the request for batch-mates) and
//! `backlog = batch_start − bucket_trigger` (how long the dispatched bucket
//! waited for SMs or bandwidth held by earlier buckets); `queue_delay` is
//! *defined* as their sum, `service` is the simulated duration of the
//! bucket's batched SVD, and `end_to_end = queue_delay + service` — the
//! property suite asserts both identities bitwise. All five feed
//! fixed-bucket log-spaced histograms ([`latency_bounds`]) in the metrics
//! registry (with the request id as each bucket's retained exemplar) for
//! exposition; the summary's p50/p99 are exact order statistics of the
//! records ([`nearest_rank`]), so repeated seeded runs report identical
//! quantiles.
//!
//! With an enabled trace sink (threaded through the [`Gpu`], installed
//! globally by `repro --trace`), a served trace additionally exports as a
//! request waterfall: one span per request lifetime (arrival→completion) on
//! a per-size-class track, one span per dispatched bucket on the serving
//! process's `stream <s>` track of the stream that ran it (spans on one
//! track never overlap), and a mirror `bucket` span on the GPU's
//! `wcycle` track that encloses — and therefore parents, in Perfetto's
//! nesting — the existing per-level W-cycle spans of that bucket's batched
//! SVD. The sink only observes: a disabled (or enabled) sink never touches
//! the simulated timeline.

use wsvd_core::{wcycle_svd, WCycleConfig};
use wsvd_gpu_sim::{Gpu, KernelError, StreamDevice};
use wsvd_linalg::generate::random_uniform;
use wsvd_linalg::Matrix;
use wsvd_metrics::{MetricsSink, Snapshot};

use crate::batcher::{Admission, Admit, BatchPolicy, Pending};
use crate::traffic::Trace;

/// Server configuration: the admission policy plus the SLO target the
/// violation counter is scored against. Every bucket runs through the fused
/// [`wsvd_gpu_sim::LaunchGraph`] path.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission batching policy.
    pub policy: BatchPolicy,
    /// End-to-end latency SLO in simulated microseconds; every request
    /// whose `end_to_end_us` exceeds it increments `slo_violations`.
    pub slo_e2e_us: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: BatchPolicy::high_throughput(),
            slo_e2e_us: 1.0e6,
        }
    }
}

/// Why a bucket dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchTrigger {
    /// The bucket filled to the policy's effective cap.
    Full,
    /// The oldest request in the bucket hit `max_wait_us` (this is also how
    /// the tail of a trace drains: with no arrivals left, every remaining
    /// bucket eventually fires its deadline).
    Deadline,
}

/// One dispatched bucket.
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// Dispatch order (0-based).
    pub batch_id: usize,
    /// Table VI size class of every member.
    pub class: usize,
    /// Member count.
    pub len: usize,
    /// What fired the dispatch.
    pub trigger: BatchTrigger,
    /// Simulated microseconds the trigger fired at.
    pub trigger_us: u64,
    /// Simulated microseconds the batched SVD started on the device: the
    /// first time at or after the trigger, and after every earlier bucket's
    /// start, at which each of its launches found its SMs and bandwidth
    /// free.
    pub start_us: f64,
    /// Simulated microseconds the batched SVD took: what a fresh device
    /// running only this bucket would report.
    pub service_us: f64,
    /// The device stream (0-based) that ran it.
    pub stream: usize,
}

/// One served request's latency record.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Trace id.
    pub id: usize,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Table VI size class.
    pub class: usize,
    /// The bucket that served it.
    pub batch_id: usize,
    /// Arrival time in simulated microseconds.
    pub arrival_us: u64,
    /// Simulated microseconds the serving bucket's dispatch trigger fired
    /// at (copied from its [`BatchRecord::trigger_us`]).
    pub trigger_us: u64,
    /// Policy-induced wait: `trigger − arrival`, the time the admission
    /// policy held this request open for batch-mates. Exact (an integer
    /// microsecond difference).
    pub admission_wait_us: f64,
    /// Device-induced wait: `batch start − trigger`, the time the
    /// dispatched bucket waited for SMs or bandwidth held by earlier
    /// buckets' launches (0 when they were free at the trigger).
    pub backlog_us: f64,
    /// `admission_wait_us + backlog_us`, definitionally — the bitwise
    /// identity the property suite pins.
    pub queue_delay_us: f64,
    /// Simulated duration of the bucket's batched SVD.
    pub service_us: f64,
    /// `queue_delay_us + service_us`, definitionally.
    pub end_to_end_us: f64,
}

/// The full outcome of serving one trace.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// Per-request latency records, in batch-dispatch order (buckets on
    /// concurrent streams may complete in another order).
    pub records: Vec<RequestRecord>,
    /// Per-bucket dispatch records, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Requests refused at admission (dimensions above every Table VI cap).
    pub rejected: usize,
    /// Simulated microseconds from time zero until the last bucket
    /// completed (0 when nothing dispatched).
    pub makespan_us: f64,
    /// Work-normalized device time: the sum of every batch's `service_us`,
    /// as if the buckets ran one at a time. Concurrent buckets overlap in
    /// wall time, so this can exceed `makespan_us`.
    pub busy_us: f64,
    /// SM-microseconds the buckets held: the sum over every bucket's
    /// launches of SMs × launch duration. Over `num_sms × makespan_us` it is
    /// the device's SM occupancy across concurrent streams.
    pub sm_us: f64,
}

/// Log-spaced latency bucket bounds in microseconds: 1 µs up to ~20 s in
/// ×1.25 steps. Shared by every serve histogram so snapshots from
/// different runs and policies stay comparable, with ≤25 % bucket
/// resolution across the whole range.
pub fn latency_bounds() -> Vec<f64> {
    let mut bounds = Vec::new();
    let mut b = 1.0f64;
    while b < 2.0e7 {
        bounds.push(b);
        b *= 1.25;
    }
    bounds
}

/// The exact nearest-rank quantile of `values`: the `ceil(q·n)`-th
/// smallest (0 for no values). The one rank convention of this crate,
/// shared by [`summarize`] and [`crate::tail_report`].
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Serves one trace to completion and returns every latency record.
///
/// Deterministic end to end: the event order is a pure function of the
/// trace and the policy, and the batched SVDs run on the simulated device —
/// identical seeds replay byte-identical outcomes and histograms. The sink
/// only observes (it never steers), so a disabled sink yields the same
/// records with no registry traffic.
pub fn serve_trace(
    gpu: &Gpu,
    trace: &Trace,
    cfg: &ServeConfig,
    sink: &MetricsSink,
) -> Result<ServeOutcome, KernelError> {
    let wcfg = WCycleConfig {
        fused: true,
        ..WCycleConfig::default()
    };
    let mut adm = Admission::new(cfg.policy);
    let mut out = ServeOutcome::default();
    let mut device = StreamDevice::new(gpu.device());
    let mut next = 0usize;
    // One shared bucket layout for every latency histogram of this run —
    // computed once here, not per served request.
    let bounds = latency_bounds();
    // Request-scoped tracing rides the GPU's sink (disabled unless the host
    // installed one): the serving process gets its own trace pid with
    // per-size-class request tracks plus one bucket track per stream.
    let tracer = gpu.trace();
    let serve_pid = if tracer.is_enabled() {
        tracer.register_process(&format!("wsvd-serve [{}]", trace.name))
    } else {
        0
    };

    // One batched SVD per bucket, started on the streams as soon as its
    // resources are free.
    let dispatch = |adm: &mut Admission,
                    out: &mut ServeOutcome,
                    device: &mut StreamDevice,
                    class: usize,
                    trigger_us: u64,
                    trigger: BatchTrigger|
     -> Result<(), KernelError> {
        let members = adm.take(class);
        debug_assert!(!members.is_empty(), "dispatch of an empty bucket");
        let mats: Vec<Matrix> = members
            .iter()
            .map(|p| random_uniform(p.rows, p.cols, p.data_seed))
            .collect();
        let before = gpu.elapsed_seconds();
        let (svd, interval) = gpu.interval(|| wcycle_svd(gpu, &mats, &wcfg));
        svd?;
        let after = gpu.elapsed_seconds();
        let service_us = interval.seconds * 1.0e6;
        let slot = device.submit(trigger_us as f64, &interval, 1.0e6);
        out.sm_us += interval
            .phases
            .iter()
            .map(|p| p.footprint.sms as f64 * p.seconds * 1.0e6)
            .sum::<f64>();
        let start_us = slot.start;
        out.makespan_us = out.makespan_us.max(slot.end);
        out.busy_us += service_us;
        let batch_id = out.batches.len();
        if tracer.is_enabled() {
            let trig = match trigger {
                BatchTrigger::Full => "full",
                BatchTrigger::Deadline => "deadline",
            };
            // The serving timeline's view of the bucket: on its stream's
            // track from `start` (trigger plus any device backlog), busy
            // for the batched SVD's duration.
            tracer.span(
                serve_pid,
                &format!("stream {}", slot.stream),
                &format!("bucket {batch_id}"),
                start_us * 1.0e-6,
                service_us * 1.0e-6,
                vec![
                    ("class", class.into()),
                    ("requests", members.len().into()),
                    ("trigger", trig.into()),
                    ("trigger_us", trigger_us.into()),
                ],
            );
            // The same bucket on the GPU's own (busy-time) clock: the span
            // covers exactly the interval the bucket's batched W-cycle ran
            // in, so the per-level `wcycle` spans emitted inside it nest
            // under it in the exported Perfetto timeline.
            tracer.span(
                gpu.trace_pid(),
                "wcycle",
                &format!("bucket {batch_id}"),
                before,
                after - before,
                vec![
                    ("class", class.into()),
                    ("requests", members.len().into()),
                    ("trigger", trig.into()),
                    ("start_us", start_us.into()),
                ],
            );
        }
        out.batches.push(BatchRecord {
            batch_id,
            class,
            len: members.len(),
            trigger,
            trigger_us,
            start_us,
            service_us,
            stream: slot.stream,
        });
        for p in members {
            // The waterfall decomposition (both identities bitwise by
            // construction): the policy held the request from arrival to
            // trigger, the device backlog from trigger to start.
            let admission_wait_us = (trigger_us - p.arrival_us) as f64;
            let backlog_us = start_us - trigger_us as f64;
            let queue_delay_us = admission_wait_us + backlog_us;
            let end_to_end_us = queue_delay_us + service_us;
            let rec = RequestRecord {
                id: p.id,
                rows: p.rows,
                cols: p.cols,
                class,
                batch_id,
                arrival_us: p.arrival_us,
                trigger_us,
                admission_wait_us,
                backlog_us,
                queue_delay_us,
                service_us,
                end_to_end_us,
            };
            record_request(sink, &bounds, &rec, cfg);
            if tracer.is_enabled() {
                tracer.span(
                    serve_pid,
                    &format!("class {class}"),
                    &format!("req {}", p.id),
                    p.arrival_us as f64 * 1.0e-6,
                    end_to_end_us * 1.0e-6,
                    vec![
                        ("rows", p.rows.into()),
                        ("cols", p.cols.into()),
                        ("bucket", batch_id.into()),
                        ("admission_wait_us", admission_wait_us.into()),
                        ("backlog_us", backlog_us.into()),
                        ("service_us", service_us.into()),
                    ],
                );
            }
            out.records.push(rec);
        }
        Ok(())
    };

    loop {
        let arrival = trace.requests.get(next);
        let deadline = adm.next_deadline();
        match (arrival, deadline) {
            // Deadlines beat arrivals at the same timestamp: a request
            // arriving exactly at a bucket's deadline joins the next bucket.
            (Some(req), Some((d, class))) if d <= req.arrival_us => {
                dispatch(
                    &mut adm,
                    &mut out,
                    &mut device,
                    class,
                    d,
                    BatchTrigger::Deadline,
                )?;
            }
            (Some(req), _) => {
                next += 1;
                match adm.admit(Pending {
                    id: req.id,
                    arrival_us: req.arrival_us,
                    rows: req.rows,
                    cols: req.cols,
                    data_seed: req.data_seed,
                }) {
                    Admit::Full(class) => dispatch(
                        &mut adm,
                        &mut out,
                        &mut device,
                        class,
                        req.arrival_us,
                        BatchTrigger::Full,
                    )?,
                    Admit::Queued(_) => {}
                    Admit::Rejected => {
                        out.rejected += 1;
                        if sink.is_enabled() {
                            sink.counter_add("serve", None, "rejected", 1.0);
                        }
                    }
                }
            }
            (None, Some((d, class))) => {
                dispatch(
                    &mut adm,
                    &mut out,
                    &mut device,
                    class,
                    d,
                    BatchTrigger::Deadline,
                )?;
            }
            (None, None) => break,
        }
    }
    if sink.is_enabled() {
        sink.counter_add("serve", None, "batches", out.batches.len() as f64);
        sink.gauge_set("serve", None, "makespan_us", out.makespan_us);
    }
    Ok(out)
}

/// Records one served request into the registry (kernel `serve`, level =
/// size class for the per-class counters, aggregate histograms unleveled).
/// Every latency histogram retains the request id of each bucket's max
/// observation as its exemplar, so a tail bucket links back to a replayable
/// request. `bounds` is the run-wide [`latency_bounds`] layout, computed
/// once by [`serve_trace`].
fn record_request(sink: &MetricsSink, bounds: &[f64], r: &RequestRecord, cfg: &ServeConfig) {
    if !sink.is_enabled() {
        return;
    }
    let id = r.id as u64;
    sink.observe_exemplar(
        "serve",
        None,
        "queue_delay_us",
        bounds,
        r.queue_delay_us,
        id,
    );
    sink.observe_exemplar("serve", None, "service_us", bounds, r.service_us, id);
    sink.observe_exemplar("serve", None, "e2e_us", bounds, r.end_to_end_us, id);
    sink.observe_exemplar(
        "serve",
        None,
        "admission_wait_us",
        bounds,
        r.admission_wait_us,
        id,
    );
    sink.observe_exemplar("serve", None, "backlog_us", bounds, r.backlog_us, id);
    sink.counter_add("serve", Some(r.class), "requests", 1.0);
    if r.end_to_end_us > cfg.slo_e2e_us {
        sink.counter_add("serve", None, "slo_violations", 1.0);
    }
}

/// The operator-facing summary of one served trace: exact quantiles of the
/// outcome's records ([`nearest_rank`]), means and counters from the
/// metrics registry, and the outcome's busy time. Requires the snapshot of
/// an **enabled** sink; every latency field is 0 when nothing was served.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSummary {
    /// Requests served.
    pub requests: u64,
    /// Buckets dispatched.
    pub batches: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Median end-to-end latency (µs).
    pub p50_e2e_us: f64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_e2e_us: f64,
    /// Median admission + backlog wait (µs).
    pub p50_queue_us: f64,
    /// 99th-percentile admission + backlog wait (µs).
    pub p99_queue_us: f64,
    /// Median batched-SVD service time (µs).
    pub p50_service_us: f64,
    /// 99th-percentile batched-SVD service time (µs).
    pub p99_service_us: f64,
    /// Mean admission + backlog wait (µs).
    pub mean_queue_us: f64,
    /// Mean batched-SVD service time (µs).
    pub mean_service_us: f64,
    /// Mean policy-induced wait (µs): `trigger − arrival`.
    pub mean_admission_us: f64,
    /// Mean device-induced wait (µs): `batch start − trigger`.
    pub mean_backlog_us: f64,
    /// Sustained throughput: served requests divided by the outcome's
    /// work-normalized `busy_us` (requests/second), the rate the policy
    /// sustains with one bucket on the device at a time. Unlike
    /// `requests / makespan`, it is not distorted by the final
    /// `max_wait_us` drain of a short committed trace or by how buckets
    /// overlap (see DESIGN.md §14).
    pub throughput_rps: f64,
    /// Requests whose end-to-end latency exceeded the SLO target.
    pub slo_violations: u64,
}

/// Builds the summary for `experiment` from a registry snapshot and the
/// serve outcome.
pub fn summarize(snapshot: &Snapshot, experiment: &str, outcome: &ServeOutcome) -> ServeSummary {
    let queue = snapshot.histogram(experiment, "serve", None, "queue_delay_us");
    let service = snapshot.histogram(experiment, "serve", None, "service_us");
    let admission = snapshot.histogram(experiment, "serve", None, "admission_wait_us");
    let backlog = snapshot.histogram(experiment, "serve", None, "backlog_us");
    let requests = outcome.records.len() as u64;
    let column =
        |f: fn(&RequestRecord) -> f64| -> Vec<f64> { outcome.records.iter().map(f).collect() };
    let e2e = column(|r| r.end_to_end_us);
    let queue_us = column(|r| r.queue_delay_us);
    let service_us = column(|r| r.service_us);
    let throughput_rps = if outcome.busy_us > 0.0 {
        requests as f64 / (outcome.busy_us / 1.0e6)
    } else {
        0.0
    };
    ServeSummary {
        requests,
        batches: outcome.batches.len() as u64,
        rejected: outcome.rejected as u64,
        p50_e2e_us: nearest_rank(&e2e, 0.5),
        p99_e2e_us: nearest_rank(&e2e, 0.99),
        p50_queue_us: nearest_rank(&queue_us, 0.5),
        p99_queue_us: nearest_rank(&queue_us, 0.99),
        p50_service_us: nearest_rank(&service_us, 0.5),
        p99_service_us: nearest_rank(&service_us, 0.99),
        mean_queue_us: queue.map(|h| h.mean()).unwrap_or(0.0),
        mean_service_us: service.map(|h| h.mean()).unwrap_or(0.0),
        mean_admission_us: admission.map(|h| h.mean()).unwrap_or(0.0),
        mean_backlog_us: backlog.map(|h| h.mean()).unwrap_or(0.0),
        throughput_rps,
        slo_violations: snapshot.counter(experiment, "serve", None, "slo_violations") as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{Footprint, Interval, Phase, V100};

    fn small_trace(seed: u64) -> Trace {
        Trace::poisson(12, 4000.0, (6, 30), seed)
    }

    #[test]
    fn serves_every_accepted_request_exactly_once() {
        let gpu = Gpu::new(V100);
        let cfg = ServeConfig::default();
        let out = serve_trace(&gpu, &small_trace(3), &cfg, &MetricsSink::disabled()).unwrap();
        assert_eq!(out.records.len() + out.rejected, 12);
        let mut ids: Vec<usize> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.records.len(), "a request served twice");
        let batched: usize = out.batches.iter().map(|b| b.len).sum();
        assert_eq!(batched, out.records.len());
    }

    #[test]
    fn end_to_end_is_queue_plus_service_bitwise() {
        let gpu = Gpu::new(V100);
        let cfg = ServeConfig {
            policy: BatchPolicy::low_latency(),
            ..ServeConfig::default()
        };
        let out = serve_trace(&gpu, &small_trace(5), &cfg, &MetricsSink::disabled()).unwrap();
        for r in &out.records {
            assert_eq!(
                (r.queue_delay_us + r.service_us).to_bits(),
                r.end_to_end_us.to_bits()
            );
            assert_eq!(
                (r.admission_wait_us + r.backlog_us).to_bits(),
                r.queue_delay_us.to_bits()
            );
            assert!(r.admission_wait_us >= 0.0, "negative admission: {r:?}");
            assert!(r.backlog_us >= 0.0, "negative backlog: {r:?}");
            assert!(
                r.trigger_us >= r.arrival_us,
                "trigger before arrival: {r:?}"
            );
        }
    }

    #[test]
    fn oversized_requests_are_rejected_and_counted() {
        let gpu = Gpu::new(V100);
        let mut trace = small_trace(7);
        trace.requests[0].rows = 4096;
        trace.requests[0].cols = 4096;
        let sink = MetricsSink::enabled();
        sink.set_experiment("t");
        let out = serve_trace(&gpu, &trace, &ServeConfig::default(), &sink).unwrap();
        assert_eq!(out.rejected, 1);
        assert_eq!(out.records.len(), 11);
        assert_eq!(sink.snapshot().counter("t", "serve", None, "rejected"), 1.0);
    }

    #[test]
    fn summary_means_and_counters_come_from_the_registry() {
        let gpu = Gpu::new(V100);
        let sink = MetricsSink::enabled();
        sink.set_experiment("t");
        let cfg = ServeConfig {
            slo_e2e_us: 0.0, // everything violates: the counter must track
            ..ServeConfig::default()
        };
        let out = serve_trace(&gpu, &small_trace(9), &cfg, &sink).unwrap();
        let summary = summarize(&sink.snapshot(), "t", &out);
        assert_eq!(summary.requests, out.records.len() as u64);
        assert_eq!(summary.slo_violations, summary.requests);
        assert!(summary.p50_e2e_us > 0.0);
        assert!(summary.p99_e2e_us >= summary.p50_e2e_us);
        assert!(summary.p99_queue_us >= summary.p50_queue_us);
        assert!(summary.p50_service_us > 0.0);
        assert!(summary.p99_service_us >= summary.p50_service_us);
        assert!(summary.throughput_rps > 0.0);
        // The mean of the decomposed waits reconstructs the mean queue
        // delay (up to summation rounding in the histogram means).
        let recomposed = summary.mean_admission_us + summary.mean_backlog_us;
        assert!(
            (recomposed - summary.mean_queue_us).abs() <= 1.0e-9 * summary.mean_queue_us.max(1.0),
            "admission {} + backlog {} != queue {}",
            summary.mean_admission_us,
            summary.mean_backlog_us,
            summary.mean_queue_us
        );
    }

    #[test]
    fn summary_quantiles_are_exact_order_statistics() {
        let gpu = Gpu::new(V100);
        let sink = MetricsSink::enabled();
        sink.set_experiment("t");
        let trace = Trace::poisson(37, 9000.0, (6, 40), 17);
        let out = serve_trace(&gpu, &trace, &ServeConfig::default(), &sink).unwrap();
        let summary = summarize(&sink.snapshot(), "t", &out);
        let n = out.records.len();
        // ceil(q·n) in integers: ceil(n/2) and ceil(99n/100).
        let (r50, r99) = (n.div_ceil(2), (99 * n).div_ceil(100));
        let exact = |f: fn(&RequestRecord) -> f64, rank: usize| {
            let mut v: Vec<f64> = out.records.iter().map(f).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[rank - 1].to_bits()
        };
        let e2e = |r: &RequestRecord| r.end_to_end_us;
        let queue = |r: &RequestRecord| r.queue_delay_us;
        let service = |r: &RequestRecord| r.service_us;
        assert_eq!(summary.p50_e2e_us.to_bits(), exact(e2e, r50));
        assert_eq!(summary.p99_e2e_us.to_bits(), exact(e2e, r99));
        assert_eq!(summary.p50_queue_us.to_bits(), exact(queue, r50));
        assert_eq!(summary.p99_queue_us.to_bits(), exact(queue, r99));
        assert_eq!(summary.p50_service_us.to_bits(), exact(service, r50));
        assert_eq!(summary.p99_service_us.to_bits(), exact(service, r99));
        assert_eq!(nearest_rank(&[], 0.99), 0.0);
    }

    #[test]
    fn whole_device_streams_reproduce_the_fifo_bitwise() {
        let gpu = Gpu::new(V100);
        let trace = Trace::poisson(40, 20_000.0, (6, 60), 19);
        let cfg = ServeConfig {
            policy: BatchPolicy::low_latency(),
            ..ServeConfig::default()
        };
        let out = serve_trace(&gpu, &trace, &cfg, &MetricsSink::disabled()).unwrap();
        let whole = |seconds: f64| Interval {
            seconds,
            phases: vec![Phase {
                seconds,
                footprint: Footprint {
                    sms: V100.num_sms,
                    gm_bytes_per_cycle: V100.gm_bytes_per_cycle,
                },
            }],
        };
        let mut device = StreamDevice::new(&V100);
        let mut fifo_end_us = 0.0f64;
        let mut backlogged = 0;
        for b in &out.batches {
            let fifo_start = (b.trigger_us as f64).max(fifo_end_us);
            fifo_end_us = fifo_start + b.service_us;
            let slot = device.submit(b.trigger_us as f64, &whole(b.service_us), 1.0);
            assert_eq!(slot.start.to_bits(), fifo_start.to_bits());
            assert_eq!(slot.end.to_bits(), fifo_end_us.to_bits());
            assert_eq!(slot.stream, 0);
            backlogged += usize::from(fifo_start > b.trigger_us as f64);
        }
        assert!(backlogged > 0, "the FIFO never backed up: vacuous");
    }

    #[test]
    fn every_bucket_serves_as_long_as_it_would_alone() {
        let gpu = Gpu::new(V100);
        let trace = Trace::assimilation(24, 6, 80, 9000.0, 23);
        let out = serve_trace(
            &gpu,
            &trace,
            &ServeConfig::default(),
            &MetricsSink::disabled(),
        )
        .unwrap();
        let wcfg = WCycleConfig {
            fused: true,
            ..WCycleConfig::default()
        };
        for b in &out.batches {
            let mats: Vec<Matrix> = out
                .records
                .iter()
                .filter(|r| r.batch_id == b.batch_id)
                .map(|r| {
                    let req = &trace.requests[r.id];
                    random_uniform(req.rows, req.cols, req.data_seed)
                })
                .collect();
            let fresh = Gpu::new(V100);
            wcycle_svd(&fresh, &mats, &wcfg).unwrap();
            assert_eq!(
                b.service_us.to_bits(),
                (fresh.elapsed_seconds() * 1.0e6).to_bits(),
                "bucket {}",
                b.batch_id
            );
        }
    }

    #[test]
    fn identical_seeds_replay_byte_identical_histograms() {
        let run = || {
            let gpu = Gpu::new(V100);
            let sink = MetricsSink::enabled();
            sink.set_experiment("t");
            serve_trace(&gpu, &small_trace(11), &ServeConfig::default(), &sink).unwrap();
            sink.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tighter_wait_bound_dispatches_more_smaller_buckets() {
        let trace = Trace::poisson(24, 8000.0, (6, 30), 13);
        let run = |policy: BatchPolicy| {
            let gpu = Gpu::new(V100);
            let cfg = ServeConfig {
                policy,
                ..ServeConfig::default()
            };
            serve_trace(&gpu, &trace, &cfg, &MetricsSink::disabled()).unwrap()
        };
        let eager = run(BatchPolicy::low_latency());
        let patient = run(BatchPolicy::high_throughput());
        assert!(
            eager.batches.len() >= patient.batches.len(),
            "eager {} vs patient {}",
            eager.batches.len(),
            patient.batches.len()
        );
    }
}
