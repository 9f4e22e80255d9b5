//! Aggregate statistics of a W-cycle run.

/// One per-sweep convergence sample of a W-cycle level. The W-cycle builds
/// it once per sweep for the trace's `wcycle/sweep` instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepRecord {
    /// W-cycle level (0 = whole-matrix SM kernel batch).
    pub level: u64,
    /// Sweep number within the level's visit (1-based).
    pub sweep: u64,
    /// Maximum normalized column coherence over the level's tasks.
    pub off_norm: f64,
    /// Tasks still unconverged after this sweep.
    pub active: u64,
}

/// Counters describing where the multilevel workflow spent its rotations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WCycleStats {
    /// Matrices decomposed whole by the SM SVD kernel at Level 0.
    pub level0_sm_svds: usize,
    /// Pair blocks resolved by the SM SVD kernel (Algorithm 2, line 9).
    pub sm_svd_blocks: u64,
    /// Pair blocks resolved by the global-memory SVD kernel (the uniform
    /// direct route only; Algorithm 2 recurses instead).
    pub gm_svd_blocks: u64,
    /// Pair blocks resolved by Gram + SM EVD (line 11).
    pub sm_evd_blocks: u64,
    /// Pair blocks that recursed to a deeper level (line 14).
    pub recursed_blocks: u64,
    /// Deepest level reached (Level 0 = whole matrices).
    pub max_level: usize,
    /// Block rotations applied, per level (index = level - 1).
    pub rotations_per_level: Vec<u64>,
    /// Column-block widths chosen per level.
    pub widths_per_level: Vec<usize>,
}

impl WCycleStats {
    /// Total block rotations across all levels.
    pub fn total_rotations(&self) -> u64 {
        self.rotations_per_level.iter().sum()
    }

    /// Records a rotation at `level` (1-based).
    pub(crate) fn add_rotations(&mut self, level: usize, count: u64) {
        if self.rotations_per_level.len() < level {
            self.rotations_per_level.resize(level, 0);
        }
        self.rotations_per_level[level - 1] += count;
        self.max_level = self.max_level.max(level);
    }

    /// Records the width chosen at `level` (1-based), first writer wins.
    pub(crate) fn note_width(&mut self, level: usize, w: usize) {
        if self.widths_per_level.len() < level {
            self.widths_per_level.resize(level, 0);
        }
        if self.widths_per_level[level - 1] == 0 {
            self.widths_per_level[level - 1] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotations_accumulate_per_level() {
        let mut s = WCycleStats::default();
        s.add_rotations(1, 10);
        s.add_rotations(2, 5);
        s.add_rotations(1, 2);
        assert_eq!(s.rotations_per_level, vec![12, 5]);
        assert_eq!(s.total_rotations(), 17);
        assert_eq!(s.max_level, 2);
    }

    #[test]
    fn width_first_writer_wins() {
        let mut s = WCycleStats::default();
        s.note_width(1, 48);
        s.note_width(1, 24);
        assert_eq!(s.widths_per_level, vec![48]);
    }
}
