//! Size-class task chunks and the work deque of the elastic cluster.
//!
//! The static [`shard`](super::GpuCluster::shard) split assigns each device
//! one contiguous slice up front — a straggler then *defines* the makespan.
//! The elastic layer instead cuts the batch into [`TaskChunk`]s along the
//! Table-VI size-class boundaries (so a steal always moves a bucket-shaped
//! unit of work), distributes chunks round-robin as each rank's *home*
//! queue, and lets idle devices pull from a shared structure:
//!
//! 1. the **requeue pool** (work orphaned by a dead rank) — drained first,
//! 2. the rank's own home queue,
//! 3. a **steal** from the rank with the largest remainder.
//!
//! The deque is plain data owned by the executor's single discrete-event
//! loop: every claim is a `&mut self` cursor bump, so owner and thief pulls
//! are serialized by that loop and each chunk is claimed exactly once.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// The Table-VI size-class caps of the paper's mixed-size mixture (matrices
/// with `max(m, n) <= cap` share a class; larger ones land in an overflow
/// class). Mirrors `wsvd_datasets::TABLE_VI`, which cannot be imported here
/// without inverting the crate dependency order; callers with their own
/// grouping pass explicit caps to [`size_class_chunks`].
pub const DEFAULT_SIZE_CLASS_CAPS: [usize; 5] = [32, 64, 128, 256, 512];

/// One schedulable unit of the elastic cluster: a set of batch indices of
/// one size class, small enough to steal or requeue without wrecking the
/// batching economics of its home rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskChunk {
    /// Stable chunk id (position in the original chunking).
    pub id: usize,
    /// Batch indices this chunk covers (original input order).
    pub indices: Vec<usize>,
    /// Size-class cap of every index in the chunk (`usize::MAX` = overflow).
    pub size_class: usize,
    /// Rank whose home queue initially holds the chunk.
    pub home_rank: usize,
    /// Execution attempts that died mid-chunk (bounded by
    /// [`FaultPlan::max_retries`](super::FaultPlan::max_retries)).
    pub retries: usize,
    /// True once the chunk has been orphaned into the requeue pool — its
    /// eventual execution time is recovery work, not scheduled work.
    pub requeued: bool,
}

/// Cuts a mixed-size batch into size-class-aware [`TaskChunk`]s: items are
/// grouped by the smallest `cap >= max(m, n)` (preserving input order inside
/// a class), each class is split into runs of at most `target` items, and
/// chunks are dealt round-robin to `ranks` home queues. With one rank the
/// concatenation of the chunks visits every index exactly once, so outputs
/// scattered by index are complete — the pinned compat contract for
/// 1-device runs.
pub fn size_class_chunks(
    dims: &[(usize, usize)],
    caps: &[usize],
    ranks: usize,
    target: usize,
) -> Vec<TaskChunk> {
    assert!(ranks > 0, "chunking needs at least one rank");
    assert!(!caps.is_empty(), "chunking needs at least one size class");
    let target = target.max(1);
    // Class buckets, in cap order, overflow last; order inside preserved.
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); caps.len() + 1];
    for (k, &(m, n)) in dims.iter().enumerate() {
        let d = m.max(n);
        let class = caps.iter().position(|&c| d <= c).unwrap_or(caps.len());
        classes[class].push(k);
    }
    let mut chunks = Vec::new();
    for (class, items) in classes.iter().enumerate() {
        let cap = caps.get(class).copied().unwrap_or(usize::MAX);
        for part in items.chunks(target) {
            chunks.push(TaskChunk {
                id: chunks.len(),
                indices: part.to_vec(),
                size_class: cap,
                home_rank: 0,
                retries: 0,
                requeued: false,
            });
        }
    }
    for (i, c) in chunks.iter_mut().enumerate() {
        c.home_rank = i % ranks;
    }
    chunks
}

/// One rank's home queue: an immutable chunk list plus the claim cursor
/// the owner and any thief advance.
struct RankQueue {
    chunks: Vec<TaskChunk>,
    next: usize,
}

impl RankQueue {
    fn remaining(&self) -> usize {
        self.chunks.len().saturating_sub(self.next)
    }

    /// Claims the next chunk. The cursor advances on every attempt, an
    /// empty one included: checkpoints serialize it as is.
    fn claim(&mut self) -> Option<TaskChunk> {
        let k = self.next;
        self.next += 1;
        self.chunks.get(k).cloned()
    }
}

/// Snapshot of the whole deque for chunk-granular checkpointing: per-rank
/// `(chunks, cursor)` pairs plus the requeue pool, restored verbatim so a
/// resumed schedule replays the straight-through one exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueSnapshot {
    /// Per-rank home queues with their claim cursors.
    pub queues: Vec<(Vec<TaskChunk>, usize)>,
    /// The requeue pool, FIFO order.
    pub pool: Vec<TaskChunk>,
}

/// The work deque: per-rank home queues plus a FIFO requeue pool for work
/// orphaned by dead ranks.
///
/// One driver loop owns it, and the type is `!Sync` so a second thread
/// cannot share it:
///
/// ```compile_fail,E0277
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<wsvd_gpu_sim::WorkQueue>();
/// ```
pub struct WorkQueue {
    queues: Vec<RankQueue>,
    pool: VecDeque<TaskChunk>,
    _single_driver: PhantomData<Cell<()>>,
}

impl WorkQueue {
    /// Distributes `chunks` to `ranks` home queues by their
    /// [`TaskChunk::home_rank`].
    pub fn new(chunks: Vec<TaskChunk>, ranks: usize) -> Self {
        assert!(ranks > 0, "a work queue needs at least one rank");
        let mut per_rank: Vec<Vec<TaskChunk>> = (0..ranks).map(|_| Vec::new()).collect();
        for c in chunks {
            let r = c.home_rank.min(ranks - 1);
            per_rank[r].push(c);
        }
        Self::restore(QueueSnapshot {
            queues: per_rank.into_iter().map(|chunks| (chunks, 0)).collect(),
            pool: Vec::new(),
        })
    }

    /// Number of ranks the deque was built for.
    pub fn ranks(&self) -> usize {
        self.queues.len()
    }

    /// Unclaimed chunks left in `rank`'s home queue.
    pub fn remaining(&self, rank: usize) -> usize {
        self.queues[rank].remaining()
    }

    /// Unclaimed chunks across every home queue plus the requeue pool.
    pub fn total_remaining(&self) -> usize {
        self.queues.iter().map(RankQueue::remaining).sum::<usize>() + self.pool.len()
    }

    /// The owner's pull from its own home queue.
    pub fn pop_own(&mut self, rank: usize) -> Option<TaskChunk> {
        self.queues[rank].claim()
    }

    /// An idle rank's steal: claims from the victim with the largest
    /// remainder (the slowest rank's backlog), lowest rank on ties.
    /// Returns `(victim, chunk)`.
    pub fn steal(&mut self, thief: usize) -> Option<(usize, TaskChunk)> {
        let victim = (0..self.queues.len())
            .filter(|&r| r != thief)
            .max_by_key(|&r| (self.queues[r].remaining(), usize::MAX - r))?;
        if self.queues[victim].remaining() == 0 {
            return None;
        }
        self.queues[victim].claim().map(|c| (victim, c))
    }

    /// Claims everything left in `rank`'s home queue at once (death
    /// detection: the dead rank's remainder moves to the requeue pool).
    /// Idempotent — a second drain returns nothing.
    pub fn drain_rank(&mut self, rank: usize) -> Vec<TaskChunk> {
        let q = &mut self.queues[rank];
        let len = q.chunks.len();
        let from = std::mem::replace(&mut q.next, len).min(len);
        q.chunks[from..len].to_vec()
    }

    /// Appends an orphaned chunk to the requeue pool (FIFO).
    pub fn push_requeue(&mut self, mut chunk: TaskChunk) {
        chunk.requeued = true;
        self.pool.push_back(chunk);
    }

    /// Takes the oldest chunk from the requeue pool.
    pub fn pop_requeue(&mut self) -> Option<TaskChunk> {
        self.pool.pop_front()
    }

    /// Chunks currently waiting in the requeue pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Captures the full deque state for a checkpoint.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            queues: self
                .queues
                .iter()
                .map(|q| (q.chunks.clone(), q.next))
                .collect(),
            pool: self.pool.iter().cloned().collect(),
        }
    }

    /// Rebuilds a deque from a checkpoint snapshot.
    pub fn restore(snap: QueueSnapshot) -> Self {
        WorkQueue {
            queues: snap
                .queues
                .into_iter()
                .map(|(chunks, next)| RankQueue { chunks, next })
                .collect(),
            pool: snap.pool.into(),
            _single_driver: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(d: usize) -> (usize, usize) {
        (d, d)
    }

    #[test]
    fn chunking_groups_by_size_class_and_respects_target() {
        let dims: Vec<(usize, usize)> = [20, 500, 40, 25, 100, 60, 33]
            .iter()
            .map(|&d| square(d))
            .collect();
        let chunks = size_class_chunks(&dims, &DEFAULT_SIZE_CLASS_CAPS, 2, 2);
        // Classes: cap 32 -> {0, 3}; cap 64 -> {2, 5, 6}; cap 128 -> {4};
        // cap 512 -> {1}. Class 64 splits into [2, 5] + [6] at target 2.
        let classes: Vec<(usize, Vec<usize>)> = chunks
            .iter()
            .map(|c| (c.size_class, c.indices.clone()))
            .collect();
        assert_eq!(
            classes,
            vec![
                (32, vec![0, 3]),
                (64, vec![2, 5]),
                (64, vec![6]),
                (128, vec![4]),
                (512, vec![1]),
            ]
        );
        // Every chunk holds a single size class and every index appears once.
        let mut seen: Vec<usize> = chunks.iter().flat_map(|c| c.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..dims.len()).collect::<Vec<_>>());
        // Round-robin home ranks.
        assert_eq!(
            chunks.iter().map(|c| c.home_rank).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0]
        );
    }

    #[test]
    fn oversized_items_land_in_the_overflow_class() {
        let dims = [square(700), square(16)];
        let chunks = size_class_chunks(&dims, &DEFAULT_SIZE_CLASS_CAPS, 1, 8);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].size_class, 32);
        assert_eq!(chunks[1].size_class, usize::MAX);
        assert_eq!(chunks[1].indices, vec![0]);
    }

    #[test]
    fn one_rank_chunking_covers_every_index_in_pull_order() {
        // The 1-device compat contract: all chunks home on rank 0 and their
        // concatenation is a permutation of the batch (class-major order).
        let dims: Vec<(usize, usize)> = (0..11).map(|k| square(10 + 7 * k)).collect();
        let chunks = size_class_chunks(&dims, &DEFAULT_SIZE_CLASS_CAPS, 1, 3);
        assert!(chunks.iter().all(|c| c.home_rank == 0));
        let mut q = WorkQueue::new(chunks, 1);
        let mut seen = Vec::new();
        while let Some(c) = q.pop_own(0) {
            seen.extend(c.indices);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..dims.len()).collect::<Vec<_>>());
    }

    #[test]
    fn claims_are_exactly_once_under_concurrent_pop_and_steal() {
        // Every chunk homes on rank 0; its owner's pops and rank 1's steals
        // alternate on the same cursor until both come back empty. Every
        // chunk id must be claimed exactly once.
        let dims: Vec<(usize, usize)> = (0..64).map(|_| square(24)).collect();
        let chunks = size_class_chunks(&dims, &DEFAULT_SIZE_CLASS_CAPS, 1, 1);
        let n = chunks.len();
        let mut q = WorkQueue::new(chunks, 2);
        let (mut owned, mut stolen) = (Vec::new(), Vec::new());
        loop {
            let own = q.pop_own(0);
            let steal = q.steal(1);
            if own.is_none() && steal.is_none() {
                break;
            }
            owned.extend(own.map(|c| c.id));
            if let Some((victim, c)) = steal {
                assert_eq!(victim, 0);
                stolen.push(c.id);
            }
        }
        assert!(!owned.is_empty() && !stolen.is_empty());
        let mut all = [owned, stolen].concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "lost or double claim");
    }

    #[test]
    fn steal_targets_the_largest_remainder() {
        let mut chunks = size_class_chunks(
            &(0..6).map(|_| square(16)).collect::<Vec<_>>(),
            &DEFAULT_SIZE_CLASS_CAPS,
            3,
            1,
        );
        // Pile rank 1 high: 3 chunks; ranks 0/2 get well under that.
        for (i, c) in chunks.iter_mut().enumerate() {
            c.home_rank = if i < 3 { 1 } else { i % 2 * 2 };
        }
        let mut q = WorkQueue::new(chunks, 3);
        let (victim, _) = q.steal(0).unwrap();
        assert_eq!(victim, 1, "steal must come from the slowest rank's pile");
    }

    #[test]
    fn drain_is_idempotent_and_requeue_is_fifo() {
        let chunks = size_class_chunks(
            &(0..4).map(|_| square(16)).collect::<Vec<_>>(),
            &DEFAULT_SIZE_CLASS_CAPS,
            2,
            1,
        );
        let mut q = WorkQueue::new(chunks, 2);
        let drained = q.drain_rank(1);
        assert_eq!(drained.len(), 2);
        assert!(q.drain_rank(1).is_empty(), "second drain must be empty");
        for c in drained {
            q.push_requeue(c);
        }
        let first = q.pop_requeue().unwrap();
        let second = q.pop_requeue().unwrap();
        assert!(first.id < second.id, "pool must preserve FIFO order");
        assert!(first.requeued && second.requeued);
        assert!(q.pop_requeue().is_none());
    }

    #[test]
    fn snapshot_restore_round_trips_the_deque() {
        let chunks = size_class_chunks(
            &(0..8).map(|k| square(12 + k)).collect::<Vec<_>>(),
            &DEFAULT_SIZE_CLASS_CAPS,
            2,
            2,
        );
        let mut q = WorkQueue::new(chunks, 2);
        let _ = q.pop_own(0);
        let orphan = q.pop_own(1).unwrap();
        q.push_requeue(orphan);
        let snap = q.snapshot();
        let mut restored = WorkQueue::restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.total_remaining(), q.total_remaining());
        assert_eq!(
            restored.pop_requeue().map(|c| c.id),
            q.pop_requeue().map(|c| c.id)
        );
    }
}
