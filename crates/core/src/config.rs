//! Configuration of the W-cycle SVD.

use wsvd_batched::models::TailorPlan;
use wsvd_batched::V100_TLP_THRESHOLD;
use wsvd_jacobi::Ordering;

/// How the per-level tailoring parameters `(w_h, δ_h, T_h)` are chosen.
#[derive(Clone, Debug)]
pub enum Tuning {
    /// The auto-tuning engine of §IV-D3 with the given TLP threshold.
    Auto {
        /// Platform TLP threshold (`306,149` on the paper's V100).
        threshold: f64,
    },
    /// A fixed plan applied at every level (`w` shrinks automatically when
    /// the cap forces it). Used by the Table-V fixed-plan rows.
    Fixed(TailorPlan),
    /// An explicit width schedule: `widths[h]` is `w_{h+1}`; δ defaults to
    /// the plan rule `m*`. Used by the Fig-15(b) sweeps.
    Widths(Vec<usize>),
}

/// How the α-warp width (threads per column pair) is chosen for the SM SVD
/// kernel (§IV-B1).
#[derive(Clone, Debug)]
pub enum AlphaSelect {
    /// The greatest-common-factor rule.
    Gcf,
    /// A fixed width (4, 8, 16 or 32 threads).
    Fixed(usize),
}

impl AlphaSelect {
    /// Resolves the threads-per-pair for a batch with largest row count
    /// `m_star`.
    pub fn resolve(&self, m_star: usize) -> usize {
        match self {
            AlphaSelect::Gcf => wsvd_batched::alpha_gcf(m_star),
            AlphaSelect::Fixed(t) => (*t).max(1),
        }
    }
}

/// Full W-cycle configuration.
#[derive(Clone, Debug)]
pub struct WCycleConfig {
    /// Convergence tolerance on normalized column coherence.
    pub tol: f64,
    /// Cap on W-cycle sweeps per level.
    pub max_sweeps: usize,
    /// Tailoring-parameter selection.
    pub tuning: Tuning,
    /// α-warp selection for the SM SVD kernel.
    pub alpha: AlphaSelect,
    /// Use the tailoring strategy for the per-level batched GEMMs; when
    /// false, every GEMM gets one thread block (the Fig-12 baseline).
    pub tailor_gemm: bool,
    /// Enable the Eq.-(6) inner-product cache inside the SM SVD kernel.
    pub cache_norms: bool,
    /// Accumulate and return the right singular matrices.
    pub want_v: bool,
    /// Pair ordering for block-level rotations.
    pub ordering: Ordering,
    /// QR-precondition very tall inputs (refs. \[5\]/\[42\] of the paper):
    /// when `m >= qr_aspect_threshold * n`, factor `A = Q R` first, run the
    /// Jacobi workflow on the square `R`, and recover `U = Q U_R`. Cuts the
    /// per-rotation column length from `m` to `n`.
    pub qr_precondition: bool,
    /// Aspect ratio `m / n` above which the QR preconditioner engages.
    pub qr_aspect_threshold: usize,
    /// Use *dynamic ordering* (Bečka–Okša–Vajteršic, the paper's ref. \[12\]):
    /// each sweep schedules block pairs by descending off-diagonal weight
    /// `||A_i^T A_j||_F / (||A_i||_F ||A_j||_F)` instead of the static
    /// schedule, attacking the heaviest couplings first. Overrides
    /// `ordering` at the block level.
    pub dynamic_ordering: bool,
    /// Threads per block for the SM SVD/EVD kernels.
    pub kernel_threads: usize,
    /// Record each level's launches into a fused
    /// [`wsvd_gpu_sim::LaunchGraph`]: the level pays the driver's launch
    /// overhead once per graph plus a small per-node cost instead of the
    /// full cost per kernel, with back-to-back same-shape launches
    /// coalesced. Numerics, counters and kernel times are bit-identical to
    /// the serial path — only the overhead account changes. Defaults to
    /// [`wsvd_gpu_sim::Session::current`]'s `fused` (off unless
    /// `repro --fused`).
    pub fused: bool,
    /// Overrides the tolerance handed to *inner* (recursive) levels and the
    /// SM rotation kernels, which normally run at `tol * 1e-2`. Inner
    /// generators must run tighter than the outer convergence test or a
    /// level's coherence plateaus just above `tol` — which is exactly why
    /// this knob exists: fault-injection tests (the `ext-health` planted
    /// stagnation row) set it *looser* than `tol` to produce a genuine
    /// non-converging run for the stagnation watchdog. Leave `None` in
    /// production.
    pub inner_tol_override: Option<f64>,
    /// Record the per-sweep convergence trajectory (level, sweep, off-norm,
    /// active tasks) into
    /// [`WCycleStats::convergence`](crate::WCycleStats). The same samples
    /// the trace/health sinks observe, but surfaced as *data* so a cluster
    /// checkpoint can carry the partially converged sweep state of its
    /// completed chunks. Off by default: the extra coherence reductions are
    /// host-side and uncharged, but recording is opt-in to keep default
    /// stats identical to earlier releases.
    pub record_convergence: bool,
}

impl Default for WCycleConfig {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_sweeps: 40,
            tuning: Tuning::Auto {
                threshold: V100_TLP_THRESHOLD,
            },
            alpha: AlphaSelect::Gcf,
            tailor_gemm: true,
            cache_norms: true,
            want_v: true,
            ordering: Ordering::RoundRobin,
            qr_precondition: false,
            qr_aspect_threshold: 3,
            dynamic_ordering: false,
            kernel_threads: 256,
            fused: wsvd_gpu_sim::Session::current().fused,
            inner_tol_override: None,
            record_convergence: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_setup() {
        let c = WCycleConfig::default();
        assert!(matches!(c.tuning, Tuning::Auto { threshold } if threshold == V100_TLP_THRESHOLD));
        assert!(c.tailor_gemm);
        assert!(c.cache_norms);
    }

    #[test]
    fn alpha_resolution() {
        assert_eq!(AlphaSelect::Gcf.resolve(48), 16);
        assert_eq!(AlphaSelect::Fixed(32).resolve(48), 32);
        assert_eq!(AlphaSelect::Fixed(0).resolve(48), 1);
    }
}
