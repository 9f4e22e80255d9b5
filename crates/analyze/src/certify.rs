//! Ahead-of-time plan-space certification.
//!
//! The runtime sanitizer ([`wsvd_core::verify_level`]) proves a level sound
//! *per launch*, under `--sanitize`; this module proves whole plan
//! *families* sound *once*, ahead of time, and collects the proofs in a
//! [`CertificateStore`]. Nothing consults the store at run time:
//! [`crate::plan_space::sweep_reachability`] drives the real auto-tuner and
//! checks every plan it selects against the store with [`check_level_with`],
//! which is what shows every reachable plan is certified.
//!
//! # Why a family certificate is sound
//!
//! `verify_level`'s per-task obligations decompose as follows. The SM-SVD
//! and SM-EVD [`SmemRequirement`]s it lists are *entailed by the
//! classification predicates*: a pair block only takes the SM-SVD (resp.
//! Gram + SM-EVD) route when `svd_fits_in_sm` (resp. `evd_fits_in_sm`)
//! already holds, and those predicates are exactly the arena-fit tests. The
//! non-tautological residue — what a level check can actually *fail* on —
//! is:
//!
//! 1. the tailored-GEMM tile fitting the arena,
//! 2. the pair schedule being conflict-free with exactly-once coverage for
//!    the task's block count,
//! 3. (for terminal families) the `2w x 2w` Gram EVD fitting SM, which is
//!    what guarantees the recursion bottoms out (Observation 2),
//! 4. kernel thread-shape and barrier well-formedness on the device.
//!
//! All four depend only on the plan family `(w, threads)`, the device, and
//! the task's *block count* — never on the matrix entries and not on `m`
//! beyond the predicates' own guards. So a certificate proving 1–4 for all
//! block counts up to a bound covers every launch the family can make, and
//! checking a level's plan against the store reduces to: family present,
//! ordering covered, per-task block count within the certified bound.
//!
//! Dynamically generated schedules (`WCycleConfig::dynamic_ordering`) carry
//! no static proof by construction; the sanitizer checks each one per sweep
//! at run time.

use std::collections::BTreeMap;

use serde::Serialize;
use wsvd_batched::gemm::gemm_kernel_resource;
use wsvd_batched::models::TailorPlan;
use wsvd_gpu_sim::{DeviceSpec, KernelResource, ResourceFit};
use wsvd_jacobi::fits::{evd_kernel_resource, max_w_for_evd, svd_kernel_resource, svd_smem_elems};
use wsvd_jacobi::ordering::{Ordering, Schedule};
use wsvd_jacobi::verify::{verify_ordering, verify_schedule, Coverage};

use wsvd_core::effective_width;

/// How a plan family entered the certified set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOrigin {
    /// Reachable by `auto_tune_with_w_cap` from the top-level cap.
    Autotuned,
    /// Pinned by configuration (`Tuning::Fixed` / `Tuning::Widths`).
    Pinned,
}

impl Serialize for PlanOrigin {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                PlanOrigin::Autotuned => "autotuned",
                PlanOrigin::Pinned => "pinned",
            }
            .into(),
        )
    }
}

/// A plan family: the quotient of the plan space certification works over.
/// `delta` (the batching granularity) only enters the TLP objective, never a
/// kernel's resource demands, so certificates are keyed by `(w, threads)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FamilyKey {
    /// Column-block width `w`.
    pub w: usize,
    /// Threads per block `T`.
    pub threads: usize,
}

impl FamilyKey {
    /// Stable map key; zero-padded so lexicographic order is numeric order.
    pub fn id(&self) -> String {
        format!("w{:03}-t{:04}", self.w, self.threads)
    }
}

/// What certification is asked to prove for one family. Normal tiers build
/// claims with `terminal` computed from the device; planted-bug probes make
/// false claims on purpose and must be rejected.
#[derive(Clone, Debug)]
pub struct PlanClaim {
    /// The family under test.
    pub key: FamilyKey,
    /// How the family entered the plan space.
    pub origin: PlanOrigin,
    /// Claim that this family never recurses: every pair block up to
    /// `2w` columns wide fits an SM kernel, anchored by the `2w x 2w` Gram
    /// EVD (Observation 2).
    pub terminal: bool,
    /// A custom pair schedule to certify instead of the shipped orderings
    /// (used to probe conflicting-schedule rejection). `(schedule, blocks)`.
    pub custom_schedule: Option<(Schedule, usize)>,
}

impl PlanClaim {
    /// The claim a level actually makes for `(w, threads)` on a device:
    /// terminality is computed, not asserted.
    pub fn for_device(w: usize, threads: usize, origin: PlanOrigin, device: &DeviceSpec) -> Self {
        Self {
            key: FamilyKey { w, threads },
            origin,
            terminal: w <= max_w_for_evd(device.smem_per_block_bytes),
            custom_schedule: None,
        }
    }
}

/// Why certification rejected a claim.
#[derive(Clone, Debug)]
pub enum CertifyError {
    /// A kernel the family launches fails its device resource check.
    Resource(String),
    /// The claimed terminal boundary is wrong: the `2w x 2w` Gram EVD
    /// working set overflows the arena.
    TerminalOverflow {
        /// Claimed width.
        w: usize,
        /// EVD working-set bytes at `2w`.
        bytes: usize,
        /// Per-block arena bytes.
        capacity: usize,
    },
    /// A schedule failed conflict-freedom / exactly-once coverage.
    Schedule(String),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Resource(e) => write!(f, "resource violation: {e}"),
            CertifyError::TerminalOverflow { w, bytes, capacity } => write!(
                f,
                "terminal claim at w={w} is false: EVD of {0}x{0} needs {bytes} B > {capacity} B",
                2 * w
            ),
            CertifyError::Schedule(e) => write!(f, "schedule violation: {e}"),
        }
    }
}

/// A proven, per-kernel placement record inside a certificate.
#[derive(Clone, Debug, Serialize)]
pub struct CertifiedResource {
    /// Kernel family name.
    pub kernel: String,
    /// Per-block shared-memory bytes.
    pub smem_bytes: usize,
    /// Device-wide resident blocks at this footprint.
    pub resident_blocks: usize,
    /// Occupancy when the grid saturates the device (Eq. 10).
    pub occupancy_at_capacity: f64,
}

impl CertifiedResource {
    fn from_fit(r: &KernelResource, fit: ResourceFit) -> Self {
        Self {
            kernel: r.kernel.clone(),
            smem_bytes: r.smem.bytes,
            resident_blocks: fit.resident_blocks,
            occupancy_at_capacity: fit.occupancy_at_capacity,
        }
    }
}

/// Everything proven about one plan family on one device.
#[derive(Clone, Debug, Serialize)]
pub struct PlanCertificate {
    /// Column-block width `w`.
    pub w: usize,
    /// Threads per block `T`.
    pub threads: usize,
    /// How the family entered the plan space.
    pub origin: PlanOrigin,
    /// Proven terminal: pair blocks never recurse on this device.
    pub terminal: bool,
    /// Per-kernel placement proofs (smem fit, residency, occupancy).
    pub resources: Vec<CertifiedResource>,
    /// TLP contributed per unit of `n * m` workload at `delta = 1`
    /// (Eq. 8 reduced to the family constants); positive for every family.
    pub tlp_unit: f64,
}

/// Shared schedule proofs: the orderings' conflict-freedom and exactly-once
/// coverage depend only on the block count, not on the device or family, so
/// they are proven once for every block count up to `max_blocks` and shared
/// by all certificates.
#[derive(Clone, Debug, Serialize)]
pub struct ScheduleAtlas {
    /// Largest block count with an exhaustive proof.
    pub max_blocks: usize,
    /// Ordering names covered (every `Ordering::ALL` member).
    pub orderings: Vec<String>,
    /// Individual `(ordering, blocks)` proofs checked.
    pub proofs: u64,
    /// Total pairs covered across all proofs.
    pub pairs: u64,
}

/// Builds the atlas by running `verify_ordering` for every shipped ordering
/// at every block count `2..=max_blocks`.
pub fn build_schedule_atlas(max_blocks: usize) -> Result<ScheduleAtlas, CertifyError> {
    let mut proofs = 0u64;
    let mut pairs = 0u64;
    for &o in Ordering::ALL.iter() {
        for b in 2..=max_blocks {
            let p = verify_ordering(o, b)
                .map_err(|e| CertifyError::Schedule(format!("{o:?} at {b} blocks: {e}")))?;
            proofs += 1;
            pairs += p.pairs as u64;
        }
    }
    Ok(ScheduleAtlas {
        max_blocks,
        orderings: Ordering::ALL.iter().map(|o| format!("{o:?}")).collect(),
        proofs,
        pairs,
    })
}

/// All certificates for one device.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceCertificates {
    /// Device marketing name (the store lookup key).
    pub device: String,
    /// Per-block arena the proofs assumed; a device with another arena is
    /// not covered.
    pub smem_per_block_bytes: usize,
    /// Certified families keyed by [`FamilyKey::id`].
    pub families: BTreeMap<String, PlanCertificate>,
}

/// The machine-readable certificate store: every certified family, per device.
#[derive(Clone, Debug, Serialize)]
pub struct CertificateStore {
    /// Shared schedule proofs.
    pub atlas: ScheduleAtlas,
    /// Per-device certified families.
    pub devices: BTreeMap<String, DeviceCertificates>,
}

impl CertificateStore {
    /// Empty store around a proven atlas.
    pub fn new(atlas: ScheduleAtlas) -> Self {
        Self {
            atlas,
            devices: BTreeMap::new(),
        }
    }

    /// Total certificates across devices.
    pub fn len(&self) -> usize {
        self.devices.values().map(|d| d.families.len()).sum()
    }

    /// Whether no family is certified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the certificate for a plan family on a device.
    pub fn lookup(&self, device: &str, w: usize, threads: usize) -> Option<&PlanCertificate> {
        self.devices
            .get(device)?
            .families
            .get(&FamilyKey { w, threads }.id())
    }
}

/// Certifies one claim on one device: discharges the non-tautological
/// obligations listed in the module docs and returns the certificate, or the
/// first failed obligation.
pub fn certify_claim(
    claim: &PlanClaim,
    device: &DeviceSpec,
    atlas: &ScheduleAtlas,
) -> Result<PlanCertificate, CertifyError> {
    let FamilyKey { w, threads } = claim.key;
    let smem = device.smem_per_block_bytes;
    let mut resources = Vec::new();

    // Obligation 2 (shipped orderings): the certificate leans on the shared
    // atlas, so an atlas that does not cover every shipped ordering cannot
    // back a certificate.
    for o in Ordering::ALL.iter() {
        let name = format!("{o:?}");
        if !atlas.orderings.iter().any(|a| a == &name) {
            return Err(CertifyError::Schedule(format!(
                "atlas does not cover ordering {name}"
            )));
        }
    }

    // Obligation 1 + 4 (GEMM): tile fit, thread shape, barriers.
    let gemm = gemm_kernel_resource(threads);
    let fit = gemm
        .check(device)
        .map_err(|e| CertifyError::Resource(e.to_string()))?;
    resources.push(CertifiedResource::from_fit(&gemm, fit));

    // Obligation 3 + 4 (SM-EVD): a terminal family must run the Gram EVD of
    // any pair block it forms, the widest being `2w x 2w` — and the EVD
    // working set is monotone in the matrix order, so the `2w` fit bounds
    // them all. This is the Observation-2 boundary: at 48 KiB it holds for
    // w <= 24 and fails at w = 25.
    if claim.terminal {
        let evd = evd_kernel_resource(2 * w, threads);
        let fit = evd.check(device).map_err(|e| match e {
            wsvd_gpu_sim::ResourceViolation::SmemOverflow {
                bytes, capacity, ..
            } => CertifyError::TerminalOverflow { w, bytes, capacity },
            other => CertifyError::Resource(other.to_string()),
        })?;
        resources.push(CertifiedResource::from_fit(&evd, fit));
    }

    // Obligation 4 (SM-SVD): thread-shape and barrier well-formedness of the
    // SVD kernel family. Its smem fit is the launch precondition itself
    // (`svd_fits_in_sm` guards the route), so the descriptor is built at the
    // widest square shape the arena admits — by construction a fitting one —
    // and the check can only fail on threads or barrier discipline.
    let mut s = 2usize;
    while svd_smem_elems(s + 1, s + 1) * 8 <= smem {
        s += 1;
    }
    let svd = svd_kernel_resource(s, s, threads);
    let fit = svd
        .check(device)
        .map_err(|e| CertifyError::Resource(e.to_string()))?;
    resources.push(CertifiedResource::from_fit(&svd, fit));

    // Obligation 2: schedules. The shipped orderings are proven by the
    // shared atlas; a custom schedule must prove itself here.
    if let Some((sched, blocks)) = &claim.custom_schedule {
        verify_schedule(sched, *blocks, Coverage::ExactlyOnce)
            .map_err(|e| CertifyError::Schedule(format!("custom schedule: {e}")))?;
    }

    Ok(PlanCertificate {
        w,
        threads,
        origin: claim.origin,
        terminal: claim.terminal,
        resources,
        // Eq. 8 per unit workload: n*m/(2*w*delta) * T with n*m = delta = 1.
        tlp_unit: threads as f64 / (2.0 * w as f64),
    })
}

/// Checks one level's plan against `store`: the selected plan's family must be
/// certified on this device, the configured ordering must be covered by the
/// atlas, and every task's block count must be within the proven bound.
pub fn check_level_with(
    store: &CertificateStore,
    device: &DeviceSpec,
    plan: &TailorPlan,
    sizes: &[(usize, usize)],
    ordering: Ordering,
) -> Result<(), String> {
    let dev = store
        .devices
        .get(device.name)
        .ok_or_else(|| format!("device '{}' has no certificates", device.name))?;
    if dev.smem_per_block_bytes != device.smem_per_block_bytes {
        return Err(format!(
            "certificates for '{}' assume a {} B arena but the device has {} B",
            device.name, dev.smem_per_block_bytes, device.smem_per_block_bytes
        ));
    }
    let key = FamilyKey {
        w: plan.w,
        threads: plan.threads,
    };
    if !dev.families.contains_key(&key.id()) {
        return Err(format!(
            "plan family (w={}, T={}) is not certified on '{}'",
            plan.w, plan.threads, device.name
        ));
    }
    let oname = format!("{ordering:?}");
    if !store.atlas.orderings.iter().any(|o| o == &oname) {
        return Err(format!("ordering {oname} is not covered by the atlas"));
    }
    for &(m, n) in sizes {
        if n < 2 {
            continue;
        }
        let blocks = n.div_ceil(effective_width(m, n, plan.w, device.smem_per_block_bytes));
        if blocks > store.atlas.max_blocks {
            return Err(format!(
                "task {m}x{n} needs {blocks} column blocks but schedules are only proven up \
                 to {}",
                store.atlas.max_blocks
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{V100, VEGA20};

    fn atlas() -> ScheduleAtlas {
        build_schedule_atlas(16).unwrap()
    }

    #[test]
    fn atlas_counts_every_proof() {
        let a = atlas();
        assert_eq!(a.proofs, 3 * 15); // 3 orderings x blocks 2..=16
        assert_eq!(a.orderings.len(), 3);
        assert!(a.pairs > 0);
    }

    #[test]
    fn terminal_boundary_is_observation_2() {
        let a = atlas();
        let ok = certify_claim(
            &PlanClaim::for_device(24, 256, PlanOrigin::Autotuned, &V100),
            &V100,
            &a,
        )
        .unwrap();
        assert!(ok.terminal);
        assert!(ok.resources.iter().any(|r| r.kernel.starts_with("sm-evd")));

        // A false terminal claim at w = 25 must be rejected: the 50x50 EVD
        // working set is 50_800 B > 49_152 B.
        let mut bad = PlanClaim::for_device(25, 256, PlanOrigin::Pinned, &V100);
        assert!(!bad.terminal, "25 > max_w_for_evd(48 KiB) = 24");
        bad.terminal = true;
        match certify_claim(&bad, &V100, &a) {
            Err(CertifyError::TerminalOverflow { w, bytes, capacity }) => {
                assert_eq!((w, bytes, capacity), (25, 50_800, 49_152));
            }
            other => panic!("expected TerminalOverflow, got {other:?}"),
        }
    }

    #[test]
    fn vega20_terminal_boundary_is_wider() {
        // 64 KiB arena: the boundary moves from w = 24 to w = 28.
        assert_eq!(max_w_for_evd(VEGA20.smem_per_block_bytes), 28);
        let a = atlas();
        let c = certify_claim(
            &PlanClaim::for_device(28, 256, PlanOrigin::Pinned, &VEGA20),
            &VEGA20,
            &a,
        )
        .unwrap();
        assert!(c.terminal);
    }

    #[test]
    fn conflicting_custom_schedule_rejected() {
        let a = atlas();
        let mut claim = PlanClaim::for_device(16, 256, PlanOrigin::Pinned, &V100);
        // Step 1 reuses index 1 in two pairs: a conflict.
        claim.custom_schedule = Some((vec![vec![(0, 1), (1, 2)], vec![(0, 2)]], 3));
        match certify_claim(&claim, &V100, &a) {
            Err(CertifyError::Schedule(e)) => assert!(e.contains("custom schedule"), "{e}"),
            other => panic!("expected Schedule rejection, got {other:?}"),
        }
    }

    #[test]
    fn check_level_round_trip() {
        let a = build_schedule_atlas(32).unwrap();
        let mut store = CertificateStore::new(a.clone());
        let mut fams = BTreeMap::new();
        let claim = PlanClaim::for_device(16, 256, PlanOrigin::Autotuned, &V100);
        let key = claim.key;
        fams.insert(key.id(), certify_claim(&claim, &V100, &a).unwrap());
        store.devices.insert(
            V100.name.to_string(),
            DeviceCertificates {
                device: V100.name.to_string(),
                smem_per_block_bytes: V100.smem_per_block_bytes,
                families: fams,
            },
        );
        let plan = TailorPlan::new(16, 64, 256);
        // w_eff = 16: 4 blocks, and exactly the proven bound of 32.
        check_level_with(
            &store,
            &V100,
            &plan,
            &[(64, 64), (8, 1), (512, 512)],
            Ordering::RoundRobin,
        )
        .unwrap();

        // Uncertified family: hard error.
        let other = TailorPlan::new(24, 64, 256);
        assert!(
            check_level_with(&store, &V100, &other, &[(64, 64)], Ordering::RoundRobin)
                .unwrap_err()
                .contains("not certified")
        );

        // Block count beyond the proven bound: hard error.
        let big = vec![(2048usize, 2048usize)];
        // w_eff = 16, blocks = 128 > 32.
        assert!(
            check_level_with(&store, &V100, &plan, &big, Ordering::RoundRobin)
                .unwrap_err()
                .contains("proven up to")
        );

        // Unknown device: hard error.
        assert!(
            check_level_with(&store, &VEGA20, &plan, &[(64, 64)], Ordering::RoundRobin)
                .unwrap_err()
                .contains("no certificates")
        );
    }
}
