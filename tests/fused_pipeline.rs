//! Fused launch pipeline invariants (the `LaunchGraph` replay model):
//!
//! * a replayed graph produces bit-identical counters and numerics to the
//!   serial launch sequence — with the sanitizer off *and* on full — while
//!   paying less overhead and less kernel makespan (coalesced blocks ride
//!   already-resident SM slots).
//!
//! `tests/session.rs` runs the W-cycle fused through the session default
//! that `repro --fused` sets.

use proptest::prelude::*;

use wcycle_svd::gpu::{Gpu, KernelConfig, LaunchStats, SanitizeMode, V100};

/// Replays a deterministic launch sequence, optionally inside one fused
/// scope, and returns the per-launch stats.
fn run_sequence(gpu: &Gpu, launches: &[(usize, usize, usize)], fused: bool) -> Vec<LaunchStats> {
    let scope = fused.then(|| gpu.launch_graph("replay"));
    let stats = launches
        .iter()
        .map(|&(grid, tpb, work)| {
            let cfg = KernelConfig::new(grid, tpb, 2048, "prop_kernel");
            gpu.launch_collect(cfg, |b, ctx| {
                let buf = ctx.smem().alloc(32)?;
                ctx.smem_write(0, &buf, 0, 32);
                ctx.sync_threads();
                ctx.par_step(work + b, 2);
                ctx.team_reduce(4, 8, work.min(256));
                Ok(b * 31 + work)
            })
            .unwrap()
            .1
        })
        .collect();
    drop(scope);
    stats
}

fn arb_launches() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec(
        (1usize..24, 0usize..4, 64usize..4000)
            .prop_map(|(grid, t, work)| (grid, [32usize, 64, 128, 256][t], work)),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn replayed_graph_is_bit_identical_to_serial(launches in arb_launches()) {
        for mode in [SanitizeMode::Off, SanitizeMode::Full] {
            let serial_gpu = Gpu::with_sanitize(V100, mode);
            let fused_gpu = Gpu::with_sanitize(V100, mode);
            let serial = run_sequence(&serial_gpu, &launches, false);
            let fused = run_sequence(&fused_gpu, &launches, true);
            for (s, f) in serial.iter().zip(&fused) {
                // Counters and occupancy are schedule-independent: bit-equal.
                prop_assert_eq!(s.totals, f.totals);
                prop_assert_eq!(s.occupancy.to_bits(), f.occupancy.to_bits());
                // Timing can only improve: overhead amortizes, and coalesced
                // blocks riding resident waves shrink makespan.
                prop_assert!(f.overhead_seconds <= s.overhead_seconds);
                prop_assert!(f.kernel_seconds <= s.kernel_seconds);
            }
            let st = serial_gpu.timeline();
            let ft = fused_gpu.timeline();
            prop_assert_eq!(st.launches, ft.launches);
            prop_assert_eq!(st.totals, ft.totals);
            prop_assert!(ft.seconds <= st.seconds);
            // The first node pays the full cost, so a 1-launch graph breaks
            // even; every extra node amortizes.
            if launches.len() > 1 {
                prop_assert!(ft.overhead_seconds < st.overhead_seconds);
            } else {
                prop_assert_eq!(
                    ft.overhead_seconds.to_bits(),
                    st.overhead_seconds.to_bits()
                );
                prop_assert_eq!(ft.kernel_seconds.to_bits(), st.kernel_seconds.to_bits());
            }
            // The sanitizer sees the same blocks either way.
            prop_assert_eq!(
                serial_gpu.sanitizer_report().stats.blocks_checked,
                fused_gpu.sanitizer_report().stats.blocks_checked
            );
            prop_assert!(serial_gpu.sanitizer_report().is_clean());
            prop_assert!(fused_gpu.sanitizer_report().is_clean());
            // Graph accounting: one graph, every launch a node.
            let g = fused_gpu.graph_stats();
            prop_assert_eq!(g.graphs, 1);
            prop_assert_eq!(g.nodes, launches.len() as u64);
            prop_assert_eq!(serial_gpu.graph_stats().nodes, 0);
        }
    }
}
