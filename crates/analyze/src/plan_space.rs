//! Exhaustive plan-space enumeration and certification.
//!
//! The auto-tuner's plan space is finite and small once quotiented by the
//! certificate key `(w, threads)` (δ never touches a kernel's resource
//! demands — see [`crate::certify`]):
//!
//! * the candidate table ([`candidate_plans`]) contributes the families
//!   `(48,256)`, `(24,256)`, `(16,256)`, `(8,128)` whatever the sizes;
//! * a degenerate width cap (`w_cap < 8`, reachable in principle through
//!   the recursion's `w_{h+1} < w_h` chain and directly via the public
//!   `auto_tune_with_w_cap`) synthesizes `(w_cap, 128)` for
//!   `w_cap ∈ 1..=7`.
//!
//! [`enumerate_autotuned`] computes this set as the closure of the cap
//! chain `48 → w−1 → …` rather than hard-coding it, so a future candidate-
//! table edit is picked up (or caught) automatically. A second, wider
//! **pinned** tier covers every `Tuning::Fixed` / `Tuning::Widths`
//! configuration the experiments use (`w ∈ 1..=48`, `T ∈ {128, 256}`).
//!
//! [`sweep_reachability`] then drives the real `auto_tune_with_w_cap` over
//! every tab5/fig7/fig9/fig14 shape (both scales), all threshold regimes and
//! every reachable cap, and proves each selected plan certified — the
//! zero-false-rejection half of the acceptance criteria.

use std::collections::{BTreeMap, BTreeSet};

use crate::certify::{
    build_schedule_atlas, certify_claim, check_level_with, CertificateStore, CertifyError,
    DeviceCertificates, FamilyKey, PlanClaim, PlanOrigin,
};
use wsvd_batched::autotune::{auto_tune_with_w_cap, scored_candidates, V100_TLP_THRESHOLD};
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::{DeviceSpec, ALL_DEVICES};
use wsvd_jacobi::ordering::Ordering;

/// The top-level width cap `decompose_level` starts from (the SM-fit bound
/// `w_1 <= 48` of Algorithm 2).
pub const TOP_W_CAP: usize = 48;

/// Block-count bound the schedule atlas proves exhaustively. 512 covers
/// every experiment at both scales with an order of magnitude to spare (the
/// widest demand is Table V's fixed `w = 4` plan on full-scale `n = 1024`:
/// 256 blocks).
pub const DEFAULT_MAX_BLOCKS: usize = 512;

/// Every plan family reachable from the top-level cap through the
/// recursion's strictly-decreasing cap chain, computed as a closure:
/// starting at `w_cap = 48`, a cap's reachable families are the candidate
/// table filtered to `w <= w_cap` (or the synthesized `(w_cap, 128)` plan
/// when the filter empties the table), and each family `w` opens the next
/// cap `w - 1`.
pub fn enumerate_autotuned() -> Vec<FamilyKey> {
    let mut caps: Vec<usize> = vec![TOP_W_CAP];
    let mut seen_caps = BTreeSet::new();
    let mut families = BTreeSet::new();
    while let Some(cap) = caps.pop() {
        if !seen_caps.insert(cap) {
            continue;
        }
        // The candidate table's (w, T) pairs are size-independent; any
        // m_star produces the same families. Use a representative.
        let scored = scored_candidates(&[(64, 64)], cap);
        let fams: Vec<(usize, usize)> = if scored.is_empty() {
            vec![(cap.max(1), 128)]
        } else {
            scored.iter().map(|(p, _)| (p.w, p.threads)).collect()
        };
        for (w, threads) in fams {
            families.insert((w, threads));
            let next = w.saturating_sub(1).max(1);
            if !seen_caps.contains(&next) {
                caps.push(next);
            }
        }
    }
    families
        .into_iter()
        .map(|(w, threads)| FamilyKey { w, threads })
        .collect()
}

/// The pinned tier: every family a `Tuning::Fixed` / `Tuning::Widths`
/// configuration can produce across the experiments (`w` clamped to the
/// `1..=48` cap chain, the fixed-plan thread counts in use).
pub fn enumerate_pinned() -> Vec<FamilyKey> {
    let mut fams = Vec::new();
    for w in 1..=TOP_W_CAP {
        for threads in [128, 256] {
            fams.push(FamilyKey { w, threads });
        }
    }
    fams
}

/// Builds the full certificate store: the shared schedule atlas plus both
/// tiers certified on every device model.
pub fn certify_all_devices(max_blocks: usize) -> Result<CertificateStore, CertifyError> {
    let atlas = build_schedule_atlas(max_blocks)?;
    let mut store = CertificateStore::new(atlas);
    for device in &ALL_DEVICES {
        let mut families = BTreeMap::new();
        for (tier, origin) in [
            (enumerate_autotuned(), PlanOrigin::Autotuned),
            (enumerate_pinned(), PlanOrigin::Pinned),
        ] {
            for key in tier {
                if families.contains_key(&key.id()) {
                    continue; // autotuned tier wins on overlap
                }
                let claim = PlanClaim::for_device(key.w, key.threads, origin, device);
                let cert = certify_claim(&claim, device, &store.atlas)?;
                families.insert(key.id(), cert);
            }
        }
        store.devices.insert(
            device.name.to_string(),
            DeviceCertificates {
                device: device.name.to_string(),
                smem_per_block_bytes: device.smem_per_block_bytes,
                families,
            },
        );
    }
    Ok(store)
}

/// One experiment's workloads: `(experiment id, size multisets)`.
pub type ExperimentShapes = (&'static str, Vec<Vec<(usize, usize)>>);

/// The `(m, n)` workloads of the tab5 / fig7 / fig9 / fig14 experiments at
/// both scales, each as a size multiset (shape repeated per batch entry is
/// redundant for tuning — `tlp` sums linearly — so one entry per distinct
/// shape with the batch folded into the sweep is enough; we keep small
/// explicit batches to exercise multiset handling).
pub fn experiment_shapes() -> Vec<ExperimentShapes> {
    let mut shapes = Vec::new();
    // fig7 / fig13: five (m, n) <= 32 shapes, batches 10/100/500.
    let fig7: Vec<Vec<(usize, usize)>> = [(8, 32), (16, 32), (32, 32), (32, 16), (32, 8)]
        .iter()
        .flat_map(|&(m, n)| {
            [10usize, 100, 500]
                .iter()
                .map(move |&b| vec![(m, n); b.min(16)])
        })
        .collect();
    shapes.push(("fig7", fig7));
    // fig9: square n, batches 1/10/40 (reduced) and up to 512 (full).
    let fig9: Vec<Vec<(usize, usize)>> = [64usize, 128, 256, 512]
        .iter()
        .flat_map(|&n| {
            [1usize, 10, 40]
                .iter()
                .map(move |&b| vec![(n, n); b.min(8)])
        })
        .collect();
    shapes.push(("fig9", fig9));
    // tab5: batch 10/100 of square sizes 48..1024.
    let tab5: Vec<Vec<(usize, usize)>> = [48usize, 64, 96, 160, 256, 1024]
        .iter()
        .map(|&n| vec![(n, n); 10])
        .collect();
    shapes.push(("tab5", tab5));
    // fig14a: 512x512 (full) / 128x128 (reduced) batches.
    shapes.push(("fig14a", vec![vec![(128, 128); 10], vec![(512, 512); 4]]));
    // fig14b: mixed-size assimilation batches, 24..112 reduced, 50..1024
    // full (sampled ends + midpoints; tuning only sees the multiset).
    let fig14b: Vec<Vec<(usize, usize)>> = vec![
        vec![(24, 24), (64, 64), (112, 112), (80, 40)],
        vec![(50, 50), (512, 512), (1024, 1024), (700, 350)],
    ];
    shapes.push(("fig14b", fig14b));
    shapes
}

/// Result of the reachability sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Workload multisets driven through the tuner.
    pub workloads: usize,
    /// Individual `(workload, threshold, cap)` selections checked.
    pub selections: usize,
    /// Distinct `(w, threads)` families the tuner actually selected.
    pub selected_families: BTreeSet<(usize, usize)>,
}

/// Drives the real auto-tuner over every experiment shape, all three
/// threshold regimes of `pick` (always-over, calibrated, sub-threshold) and
/// every cap in the reachable chain, and proves every selected plan
/// certified on every device: `check_level_with` must accept the plan for
/// the workload that produced it. Returns the sweep counts or the first
/// plan that failed — a false rejection.
pub fn sweep_reachability(store: &CertificateStore) -> Result<SweepReport, String> {
    let caps: BTreeSet<usize> = enumerate_autotuned()
        .iter()
        .map(|f| f.w.saturating_sub(1).max(1))
        .chain([TOP_W_CAP])
        .collect();
    let thresholds = [0.0, V100_TLP_THRESHOLD, f64::INFINITY];
    let mut workloads = 0usize;
    let mut selections = 0usize;
    let mut selected = BTreeSet::new();
    for (exp, sets) in experiment_shapes() {
        for sizes in sets {
            workloads += 1;
            for &threshold in &thresholds {
                for &cap in &caps {
                    // A sub-top-level cap only ever tunes the *pair blocks*
                    // the parent level formed: tasks of at most
                    // `2 * w_parent = 2 * (cap + 1)` columns. Feeding it the
                    // original sizes would invent unreachable launches
                    // (e.g. n = 1024 under cap 1 -> 1024 column blocks).
                    let level_sizes: Vec<(usize, usize)> = if cap == TOP_W_CAP {
                        sizes.clone()
                    } else {
                        sizes
                            .iter()
                            .map(|&(m, n)| (m, n.min(2 * (cap + 1))))
                            .collect()
                    };
                    let plan: TailorPlan = auto_tune_with_w_cap(&level_sizes, threshold, cap);
                    selected.insert((plan.w, plan.threads));
                    for device in &ALL_DEVICES {
                        check_level_with(store, device, &plan, &level_sizes, Ordering::RoundRobin)
                            .map_err(|e| {
                                format!(
                                    "{exp}: plan (w={}, T={}) for {:?} under cap {cap} \
                                     rejected on {}: {e}",
                                    plan.w,
                                    plan.threads,
                                    level_sizes.first(),
                                    device.name
                                )
                            })?;
                    }
                    selections += 1;
                }
            }
        }
    }
    Ok(SweepReport {
        workloads,
        selections,
        selected_families: selected,
    })
}

/// The two planted-bug probes of the `ext-certify` experiment: a plan that
/// falsely claims the SM-fit (terminal) boundary at `w = 25`, and a custom
/// schedule with a step conflict. Returns the two rejection messages;
/// panics if either is (wrongly) certified.
pub fn planted_rejections(device: &DeviceSpec) -> (String, String) {
    let atlas = build_schedule_atlas(8).expect("atlas");
    let mut oversized = PlanClaim::for_device(25, 256, PlanOrigin::Pinned, device);
    assert!(
        !oversized.terminal,
        "w=25 must sit beyond the Observation-2 boundary"
    );
    oversized.terminal = true;
    let e1 = match certify_claim(&oversized, device, &atlas) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("oversized-smem plan must be rejected"),
    };
    let mut conflicting = PlanClaim::for_device(16, 256, PlanOrigin::Pinned, device);
    conflicting.custom_schedule = Some((vec![vec![(0, 1), (1, 2)], vec![(0, 2)]], 3));
    let e2 = match certify_claim(&conflicting, device, &atlas) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("conflicting-schedule plan must be rejected"),
    };
    (e1, e2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::V100;

    #[test]
    fn autotuned_closure_is_the_expected_eleven() {
        let fams = enumerate_autotuned();
        let set: BTreeSet<(usize, usize)> = fams.iter().map(|f| (f.w, f.threads)).collect();
        let mut expected: BTreeSet<(usize, usize)> =
            [(48, 256), (24, 256), (16, 256), (8, 128)].into();
        for w in 1..=7 {
            expected.insert((w, 128));
        }
        assert_eq!(set, expected);
    }

    #[test]
    fn store_certifies_both_tiers_on_all_devices() {
        let store = certify_all_devices(32).unwrap();
        assert_eq!(store.devices.len(), ALL_DEVICES.len());
        for dev in store.devices.values() {
            // 96 pinned (48 widths x 2 thread counts) already contains the
            // four table families; the synthesized caps add (1..=7, 128)
            // beyond the pinned (w, 128)? No — pinned includes them. The
            // union is exactly the pinned grid.
            assert_eq!(dev.families.len(), 96, "{}", dev.device);
        }
        // Autotuned origins survive the merge where tiers overlap.
        let v100 = &store.devices[V100.name];
        let auto = v100
            .families
            .values()
            .filter(|c| matches!(c.origin, PlanOrigin::Autotuned))
            .count();
        assert_eq!(auto, enumerate_autotuned().len());
    }

    #[test]
    fn sweep_accepts_every_selection() {
        let store = certify_all_devices(DEFAULT_MAX_BLOCKS).unwrap();
        let rep = sweep_reachability(&store).unwrap();
        assert!(rep.workloads >= 30, "{rep:?}");
        assert!(rep.selections >= rep.workloads * 9, "{rep:?}");
        // Everything the tuner picked is inside the enumerated closure.
        let closure: BTreeSet<(usize, usize)> = enumerate_autotuned()
            .iter()
            .map(|f| (f.w, f.threads))
            .collect();
        assert!(
            rep.selected_families.is_subset(&closure),
            "selected {:?} outside closure {closure:?}",
            rep.selected_families
        );
        // And the sweep genuinely exercises the table: all four candidate
        // families appear among the selections.
        for fam in [(48, 256), (24, 256), (16, 256), (8, 128)] {
            assert!(
                rep.selected_families.contains(&fam),
                "family {fam:?} never selected; sweep too weak"
            );
        }
    }

    #[test]
    fn planted_probes_are_rejected() {
        let (smem, sched) = planted_rejections(&V100);
        assert!(smem.contains("terminal claim at w=25"), "{smem}");
        assert!(smem.contains("50800") || smem.contains("50_800"), "{smem}");
        assert!(sched.contains("custom schedule"), "{sched}");
    }
}
