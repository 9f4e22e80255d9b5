//! Per-kernel roofline arithmetic, in the spirit of the `nvprof` data behind
//! the paper's §V-B speedup analysis.
//!
//! Launch statistics are kept per kernel label in the metrics registry
//! (`Gpu` mirrors every launch's [`crate::LaunchStats`] there); this module
//! turns one kernel's totals into the view Figs. 10–11 are built from:
//! time share, arithmetic intensity and the roofline ceiling (Eqs. 8–10).

/// Percentage of `total_seconds` spent in a kernel — the one home for the
/// time-share arithmetic shared by the bench experiments and the metrics
/// report (an empty run yields 0%).
pub fn time_share_percent(seconds: f64, total_seconds: f64) -> f64 {
    100.0 * seconds / total_seconds.max(f64::MIN_POSITIVE)
}

/// Raw inputs to the roofline/AI derivation (Eqs. 8–10): one kernel's summed
/// counters and simulated times plus the device ceilings, as read from the
/// metrics registry. Every report derives through
/// [`KernelObservation::derive`], so the arithmetic cannot diverge.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelObservation {
    /// Total floating-point operations.
    pub flops: f64,
    /// Total global-memory bytes moved (loads + stores).
    pub gm_bytes: f64,
    /// Total coalesced global-memory transactions.
    pub gm_transactions: f64,
    /// Simulated kernel-execution seconds (excluding launch overhead).
    pub kernel_seconds: f64,
    /// Simulated launch-overhead seconds.
    pub overhead_seconds: f64,
    /// Device peak FP64 throughput in FLOP/s (compute ceiling).
    pub peak_flops: f64,
    /// Device global-memory bandwidth in bytes/s (memory ceiling slope).
    pub gm_bandwidth: f64,
    /// Bytes per coalesced global-memory transaction.
    pub gm_transaction_bytes: f64,
}

/// Roofline metrics derived from one [`KernelObservation`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelDerived {
    /// Arithmetic intensity in FLOP/byte of GM traffic (Eq. 9's numerator
    /// view; infinite for kernels that touch no global memory).
    pub ai: f64,
    /// Achieved FLOP/s over the kernel-execution time.
    pub achieved_flops: f64,
    /// The roofline ceiling at this AI: `min(peak, ai * bandwidth)`.
    pub roof_flops: f64,
    /// Achieved throughput as a fraction of the ceiling.
    pub roof_fraction: f64,
    /// True when AI is at or beyond the ridge point (compute ceiling
    /// applies); false for memory-bound kernels.
    pub compute_bound: bool,
    /// Useful GM bytes per transaction byte: 1.0 means perfectly coalesced
    /// traffic, lower means partially-filled transactions.
    pub gm_transaction_efficiency: f64,
    /// Launch overhead as a fraction of the kernel's total simulated time.
    pub overhead_share: f64,
}

impl KernelObservation {
    /// The single implementation of the roofline/AI arithmetic (Eqs. 8–10).
    pub fn derive(&self) -> KernelDerived {
        let ai = if self.gm_bytes > 0.0 {
            self.flops / self.gm_bytes
        } else if self.flops > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let ridge = if self.gm_bandwidth > 0.0 {
            self.peak_flops / self.gm_bandwidth
        } else {
            0.0
        };
        let compute_bound = ai >= ridge;
        let roof_flops = if compute_bound {
            self.peak_flops
        } else {
            ai * self.gm_bandwidth
        };
        let achieved_flops = if self.kernel_seconds > 0.0 {
            self.flops / self.kernel_seconds
        } else {
            0.0
        };
        let roof_fraction = if roof_flops > 0.0 {
            achieved_flops / roof_flops
        } else {
            0.0
        };
        let tx_bytes = self.gm_transactions * self.gm_transaction_bytes;
        let gm_transaction_efficiency = if tx_bytes > 0.0 {
            self.gm_bytes / tx_bytes
        } else {
            0.0
        };
        let total = self.kernel_seconds + self.overhead_seconds;
        let overhead_share = if total > 0.0 {
            self.overhead_seconds / total
        } else {
            0.0
        };
        KernelDerived {
            ai,
            achieved_flops,
            roof_flops,
            roof_fraction,
            compute_bound,
            gm_transaction_efficiency,
            overhead_share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_share_handles_an_empty_run() {
        assert_eq!(time_share_percent(0.0, 0.0), 0.0);
        assert!((time_share_percent(1.0, 4.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn derive_attributes_memory_and_compute_bound() {
        // V100-like ceilings: peak 7e12 FLOP/s, bw 9e11 B/s, ridge ~7.8.
        let base = KernelObservation {
            peak_flops: 7.0e12,
            gm_bandwidth: 9.0e11,
            gm_transaction_bytes: 32.0,
            kernel_seconds: 1.0,
            ..Default::default()
        };
        // AI = 1 flop/byte, well below the ridge: memory bound, roof = ai*bw.
        let mem = KernelObservation {
            flops: 1e9,
            gm_bytes: 1e9,
            gm_transactions: 1e9 / 32.0,
            ..base
        }
        .derive();
        assert!(!mem.compute_bound);
        assert!((mem.ai - 1.0).abs() < 1e-12);
        assert!((mem.roof_flops - 9.0e11).abs() < 1e-3);
        assert!((mem.gm_transaction_efficiency - 1.0).abs() < 1e-12);
        // AI = 100: compute bound, roof = peak.
        let comp = KernelObservation {
            flops: 1e11,
            gm_bytes: 1e9,
            gm_transactions: 1e9 / 32.0,
            ..base
        }
        .derive();
        assert!(comp.compute_bound);
        assert!((comp.roof_flops - 7.0e12).abs() < 1e-3);
        assert!((comp.roof_fraction - 1e11 / 7.0e12).abs() < 1e-12);
        // No GM traffic at all: compute bound with infinite AI.
        let pure = KernelObservation { flops: 1e9, ..base }.derive();
        assert!(pure.compute_bound);
        assert!(pure.ai.is_infinite());
        assert_eq!(pure.gm_transaction_efficiency, 0.0);
    }

    #[test]
    fn derive_overhead_share() {
        let d = KernelObservation {
            kernel_seconds: 3.0,
            overhead_seconds: 1.0,
            peak_flops: 1.0,
            gm_bandwidth: 1.0,
            ..Default::default()
        }
        .derive();
        assert!((d.overhead_share - 0.25).abs() < 1e-12);
        assert_eq!(KernelObservation::default().derive().overhead_share, 0.0);
    }
}
