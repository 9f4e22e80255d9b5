//! # wsvd-bench
//!
//! The reproduction harness: one function per table/figure of the paper's
//! evaluation (exposed through the `repro` binary) plus Criterion
//! micro-benchmarks (`benches/`). Each experiment returns a [`Report`]
//! whose rows mirror the paper's artifact output; DESIGN.md §4 maps ids to
//! paper artifacts and EXPERIMENTS.md records paper-vs-measured shapes.

#![warn(missing_docs)]

pub mod exp_accuracy;
pub mod exp_apps;
pub mod exp_baselines;
pub mod exp_extensions;
pub mod exp_health;
pub mod exp_kernels;
pub mod exp_serve;
pub mod exp_tail;
pub mod exp_tailoring;
pub mod metrics_report;
pub mod report;
pub mod scale;

pub use metrics_report::{BenchSnapshot, Tolerances, BENCH_SNAPSHOT_VERSION};
pub use report::Report;
pub use scale::Scale;

/// An experiment runner: reduced-or-full scale in, rendered report out.
pub type Experiment = fn(Scale) -> Report;

/// Every experiment in DESIGN.md §4, as `(id, runner)` pairs in paper order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig1", exp_kernels::fig1 as Experiment),
        ("fig2", exp_kernels::fig2),
        ("tab1", exp_tailoring::tab1),
        ("fig7", exp_baselines::fig7),
        ("fig8a", exp_baselines::fig8a),
        ("fig8b", exp_baselines::fig8b),
        ("fig9", exp_baselines::fig9),
        ("tab4", exp_baselines::tab4),
        ("fig10a", exp_kernels::fig10a),
        ("fig10b", exp_kernels::fig10b),
        ("fig11a", exp_tailoring::fig11a),
        ("fig11b", exp_tailoring::fig11b),
        ("fig12", exp_tailoring::fig12),
        ("tab5", exp_tailoring::tab5),
        ("tab6", exp_baselines::tab6),
        ("fig13", exp_baselines::fig13),
        ("fig14a", exp_baselines::fig14a),
        ("fig14b", exp_apps::fig14b),
        ("tab7", exp_accuracy::tab7),
        ("fig15a", exp_accuracy::fig15a),
        ("fig15b", exp_accuracy::fig15b),
        ("ext-ablation", exp_extensions::ext_ablation),
        ("ext-lowp", exp_extensions::ext_lowp),
        ("ext-profile", exp_extensions::ext_profile),
        ("ext-trace", exp_extensions::ext_trace),
        ("ext-sanitize", exp_extensions::ext_sanitize),
        ("ext-fused", exp_extensions::ext_fused),
        ("ext-metrics", exp_extensions::ext_metrics),
        ("ext-certify", exp_extensions::ext_certify),
        ("ext-health", exp_health::ext_health),
        ("ext-serve", exp_serve::ext_serve),
        ("ext-tail", exp_tail::ext_tail),
    ]
}
