//! Declarative kernel resource IR.
//!
//! Each kernel the W-cycle can launch declares its static resource demands
//! — shared-memory working set, threads per block, barrier structure, and
//! schedule family — as a [`KernelResource`]. The IR is the input to
//! ahead-of-time plan-space certification (`wsvd_core::certify` /
//! `wsvd-analyze`): everything the paper's resource model needs (smem fit
//! per Observation 2, occupancy per Eq. 10) is decidable from these
//! descriptors plus a [`DeviceSpec`], with no kernel execution.
//!
//! The descriptors are *claims*, but not unchecked ones: the kernels
//! allocate through the capacity-enforced [`crate::SharedMem`] arena, so a
//! descriptor that under-states its smem demand makes the real launch fail
//! loudly. Unit tests additionally pin each constructor to the `fits.rs`
//! working-set formulas it mirrors.

use crate::device::DeviceSpec;
use crate::sanitize::SmemRequirement;
use serde::Serialize;
use std::fmt;

/// How a kernel's lanes reach its block-wide barriers.
///
/// The simulator's `sync_threads` requires every lane of the block to
/// arrive (the sanitizer reports divergence dynamically); certification
/// demands the static claim up front. All shipped kernels are `Uniform` —
/// a `Divergent` declaration is rejected at certification time, before any
/// launch could deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierDiscipline {
    /// Every lane reaches every barrier (structured, whole-block syncs).
    Uniform,
    /// Barrier reachability depends on lane id or data — not certifiable.
    Divergent,
}

// The serde shim derives only named-field structs, so this enum maps to a
// string by hand.
impl Serialize for BarrierDiscipline {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                BarrierDiscipline::Uniform => "uniform",
                BarrierDiscipline::Divergent => "divergent",
            }
            .into(),
        )
    }
}

/// Which pair-scheduling family governs a kernel's work decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// No pair schedule (GEMM-style data-parallel kernels).
    None,
    /// A statically generated `Ordering` schedule — provable ahead of time
    /// by `wsvd_jacobi::verify::verify_ordering`.
    Static,
    /// A data-dependent schedule (dynamic ordering) — only checkable at
    /// runtime, per sweep.
    Dynamic,
}

impl Serialize for ScheduleFamily {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                ScheduleFamily::None => "none",
                ScheduleFamily::Static => "static",
                ScheduleFamily::Dynamic => "dynamic",
            }
            .into(),
        )
    }
}

/// Static resource demands of one kernel family.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct KernelResource {
    /// Kernel family name (matches the launch label prefix).
    pub kernel: String,
    /// Per-block shared-memory working set.
    pub smem: SmemRequirement,
    /// Threads per block the kernel is launched with.
    pub threads_per_block: usize,
    /// Barrier structure claim.
    pub barriers: BarrierDiscipline,
    /// Pair-schedule family.
    pub schedule: ScheduleFamily,
}

/// Why a [`KernelResource`] fails on a device.
#[derive(Clone, Debug, PartialEq)]
pub enum ResourceViolation {
    /// The smem working set exceeds the per-block arena.
    SmemOverflow {
        /// Offending kernel.
        kernel: String,
        /// Demanded bytes.
        bytes: usize,
        /// Per-block arena capacity.
        capacity: usize,
    },
    /// Threads per block is zero or exceeds the per-SM thread budget.
    BadThreads {
        /// Offending kernel.
        kernel: String,
        /// Declared threads per block.
        threads: usize,
    },
    /// Threads per block is not a multiple of the warp width.
    NotWarpMultiple {
        /// Offending kernel.
        kernel: String,
        /// Declared threads per block.
        threads: usize,
        /// Device warp (wavefront) width.
        warp: usize,
    },
    /// The kernel declares divergent barriers.
    DivergentBarriers {
        /// Offending kernel.
        kernel: String,
    },
}

impl Serialize for ResourceViolation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl fmt::Display for ResourceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceViolation::SmemOverflow {
                kernel,
                bytes,
                capacity,
            } => write!(f, "{kernel}: smem {bytes} B exceeds {capacity} B arena"),
            ResourceViolation::BadThreads { kernel, threads } => {
                write!(f, "{kernel}: {threads} threads/block out of range")
            }
            ResourceViolation::NotWarpMultiple {
                kernel,
                threads,
                warp,
            } => write!(
                f,
                "{kernel}: {threads} threads/block not a multiple of warp {warp}"
            ),
            ResourceViolation::DivergentBarriers { kernel } => {
                write!(
                    f,
                    "{kernel}: divergent barrier discipline is not certifiable"
                )
            }
        }
    }
}

/// Proven per-device placement numbers for a fitting kernel.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct ResourceFit {
    /// Device-wide resident blocks at this footprint (Eq. 10 numerator).
    pub resident_blocks: usize,
    /// Occupancy when the grid saturates the device.
    pub occupancy_at_capacity: f64,
}

impl KernelResource {
    /// Builds a descriptor from an element-count working set.
    pub fn from_elems(
        kernel: impl Into<String>,
        elems: usize,
        threads_per_block: usize,
        barriers: BarrierDiscipline,
        schedule: ScheduleFamily,
    ) -> Self {
        let kernel = kernel.into();
        Self {
            smem: SmemRequirement::from_elems(kernel.clone(), elems),
            kernel,
            threads_per_block,
            barriers,
            schedule,
        }
    }

    /// Statically checks this kernel against a device: smem fit in the
    /// per-block arena, thread-shape sanity, and barrier well-formedness.
    /// Returns the proven placement numbers on success.
    pub fn check(&self, device: &DeviceSpec) -> Result<ResourceFit, ResourceViolation> {
        if self.barriers == BarrierDiscipline::Divergent {
            return Err(ResourceViolation::DivergentBarriers {
                kernel: self.kernel.clone(),
            });
        }
        if self.threads_per_block == 0 || self.threads_per_block > device.max_threads_per_sm {
            return Err(ResourceViolation::BadThreads {
                kernel: self.kernel.clone(),
                threads: self.threads_per_block,
            });
        }
        if !self.threads_per_block.is_multiple_of(device.warp_size) {
            return Err(ResourceViolation::NotWarpMultiple {
                kernel: self.kernel.clone(),
                threads: self.threads_per_block,
                warp: device.warp_size,
            });
        }
        // `concurrent_blocks` clamps to >= 1 resident block (a grid always
        // makes progress serially), so the fit predicate is the raw arena
        // capacity, not the clamped residency.
        if !self.smem.fits(device.smem_per_block_bytes) {
            return Err(ResourceViolation::SmemOverflow {
                kernel: self.kernel.clone(),
                bytes: self.smem.bytes,
                capacity: device.smem_per_block_bytes,
            });
        }
        let resident = device.concurrent_blocks(self.threads_per_block, self.smem.bytes);
        Ok(ResourceFit {
            resident_blocks: resident,
            occupancy_at_capacity: device.occupancy(
                resident,
                self.threads_per_block,
                self.smem.bytes,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{ALL_DEVICES, V100, VEGA20};

    fn uniform(elems: usize, threads: usize) -> KernelResource {
        KernelResource::from_elems(
            "test-kernel",
            elems,
            threads,
            BarrierDiscipline::Uniform,
            ScheduleFamily::Static,
        )
    }

    #[test]
    fn smem_bytes_are_eight_per_elem() {
        let r = uniform(100, 256);
        assert_eq!(r.smem.bytes, 800);
        assert_eq!(r.smem.label, "test-kernel");
    }

    #[test]
    fn fit_at_arena_boundary() {
        let cap_elems = V100.smem_per_block_bytes / 8;
        assert!(uniform(cap_elems, 256).check(&V100).is_ok());
        let err = uniform(cap_elems + 1, 256).check(&V100).unwrap_err();
        assert!(
            matches!(err, ResourceViolation::SmemOverflow { bytes, capacity, .. }
            if bytes == V100.smem_per_block_bytes + 8 && capacity == V100.smem_per_block_bytes)
        );
    }

    #[test]
    fn vega20_larger_arena_admits_what_v100_rejects() {
        // 64 KiB vs 48 KiB: a 50 KiB working set fits VEGA20 only. VEGA20's
        // warp (wavefront) is 64, so use a 256-thread block for both.
        let r = uniform(50 * 1024 / 8, 256);
        assert!(r.check(&V100).is_err());
        assert!(r.check(&VEGA20).is_ok());
    }

    #[test]
    fn divergent_barriers_rejected_everywhere() {
        let mut r = uniform(8, 256);
        r.barriers = BarrierDiscipline::Divergent;
        for d in &ALL_DEVICES {
            assert!(matches!(
                r.check(d),
                Err(ResourceViolation::DivergentBarriers { .. })
            ));
        }
    }

    #[test]
    fn thread_shape_checks() {
        assert!(matches!(
            uniform(8, 0).check(&V100),
            Err(ResourceViolation::BadThreads { .. })
        ));
        assert!(matches!(
            uniform(8, 4096).check(&V100),
            Err(ResourceViolation::BadThreads { .. })
        ));
        // 96 threads is a warp multiple on V100 (32) but not VEGA20 (64).
        assert!(uniform(8, 96).check(&V100).is_ok());
        assert!(matches!(
            uniform(8, 96).check(&VEGA20),
            Err(ResourceViolation::NotWarpMultiple { .. })
        ));
    }

    #[test]
    fn residency_matches_device_model() {
        let r = uniform(16 * 1024 / 8, 256); // 16 KiB, 256 threads
        let fit = r.check(&V100).unwrap();
        assert_eq!(fit.resident_blocks, V100.concurrent_blocks(256, 16 * 1024));
        assert!(fit.occupancy_at_capacity > 0.0 && fit.occupancy_at_capacity <= 1.0);
    }
}
