//! # wsvd-serve
//!
//! An online batched-SVD service over the simulator: the paper's Table VI
//! size-class grouping turned into an *admission batching policy* under
//! open-loop load (ROADMAP item 1, the "millions of users" north star made
//! concrete).
//!
//! A [`traffic::Trace`] is a seeded stream of mixed-size SVD requests
//! (Poisson arrivals, bursty on/off traces, or the §V-F ocean-assimilation
//! mixture from `wsvd-apps`). The [`server`] drives a deterministic
//! event loop over *simulated microseconds*: each arriving request is
//! admitted into its Table-VI size-class bucket by the [`batcher`], a bucket
//! dispatches when it fills to the policy's `max_batch` or when its oldest
//! request has waited `max_wait_us`, and every dispatched bucket runs as one
//! batched W-cycle SVD through the fused `LaunchGraph` + warm `PlanCache`
//! path. Buckets run on concurrent device streams, each launch holding the
//! SMs and bandwidth its kernel was modelled with while it runs.
//! Asynchrony here is *event-driven*, not thread-driven: the loop
//! interleaves arrivals, deadlines and device completions on the
//! simulated clock, so every trace replays bit-identically for a given
//! seed.
//!
//! Latency accounting is definitional: for each request the wait decomposes
//! into `admission_wait = trigger - arrival` (policy-induced) and
//! `backlog = batch_start - trigger` (device-induced: waiting for SMs or
//! bandwidth),
//! `queue_delay = admission_wait + backlog`, `service` is the simulated
//! duration of its bucket's batched SVD, and
//! `end_to_end = queue_delay + service` — the integration suite asserts
//! both identities at the bit level. Per-request latencies feed
//! fixed-bucket histograms in the deterministic metrics registry
//! (`wsvd-metrics`) with the request id retained as each bucket's exemplar,
//! exposed along with SLO violation counters through the existing
//! Prometheus exposition (OpenMetrics exemplars included); the summary's
//! p50/p99 are exact order statistics of the records. The [`tail`] module
//! is the attribution consumer: `tail_report` ranks the slowest requests
//! and pins which waterfall component dominates the p99 tail.
//!
//! The `wsvd-loadgen` binary (`src/bin/loadgen.rs`) is the operator's view:
//! it generates traces, runs the server, prints per-trace latency and
//! throughput summaries (with `--why-slow K`, the per-request tail
//! waterfall), and exits non-zero when a `--slo-p99-us` target is
//! violated — CI's `Serve smoke` step. The `ext-serve` and `ext-tail`
//! experiments in `wsvd-bench` commit the batching-policy tradeoff curve
//! and its tail attribution as diffable artifacts.

#![warn(missing_docs)]

pub mod batcher;
pub mod server;
pub mod tail;
pub mod traffic;

pub use batcher::{Admission, Admit, BatchPolicy, Pending};
pub use server::{
    latency_bounds, nearest_rank, serve_trace, summarize, BatchRecord, BatchTrigger, RequestRecord,
    ServeConfig, ServeOutcome, ServeSummary,
};
pub use tail::{tail_report, Component, TailAttribution, TailReport};
pub use traffic::{Request, Trace};
