//! Admission batching into Table VI size-class buckets.
//!
//! Each accepted request joins the pending bucket of the smallest Table VI
//! cap its dimensions fit under ([`wsvd_batched::size_class`]). A bucket
//! becomes ready to dispatch when it fills to the policy's effective cap,
//! or when its **oldest** request has waited `max_wait_us` (the deadline
//! the server's event loop fires). Requests larger than every cap are
//! rejected at admission — a public-facing service refuses oversized
//! payloads rather than silently oversizing a bucket.

use wsvd_datasets::TABLE_VI;

/// The tunable admission policy: how long a request may wait for
/// batch-mates, and how large a bucket may grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum simulated microseconds the oldest request in a bucket waits
    /// before the bucket dispatches regardless of fill.
    pub max_wait_us: u64,
    /// Maximum requests per bucket (further capped by the size class's
    /// Table VI batch).
    pub max_batch: usize,
}

impl BatchPolicy {
    /// A latency-leaning policy: dispatch almost immediately, small buckets.
    pub fn low_latency() -> Self {
        BatchPolicy {
            max_wait_us: 200,
            max_batch: 8,
        }
    }

    /// A throughput-leaning policy: wait for batch-mates, large buckets.
    pub fn high_throughput() -> Self {
        BatchPolicy {
            max_wait_us: 20_000,
            max_batch: 64,
        }
    }

    /// Effective bucket capacity for `class`: the policy's `max_batch`
    /// clamped to the class's Table VI batch size (never below 1).
    pub fn class_cap(&self, class: usize) -> usize {
        self.max_batch.clamp(1, TABLE_VI[class].batch)
    }
}

/// One admitted request waiting in a bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending {
    /// Trace id of the request.
    pub id: usize,
    /// Arrival time in simulated microseconds.
    pub arrival_us: u64,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Seed for the matrix entries, generated at dispatch.
    pub data_seed: u64,
}

/// Outcome of admitting one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Queued into the bucket of the given size class.
    Queued(usize),
    /// Queued, and the bucket reached its effective cap: dispatch now.
    Full(usize),
    /// Dimensions exceed the largest Table VI cap: refused.
    Rejected,
}

/// Per-size-class pending buckets under one [`BatchPolicy`].
#[derive(Clone, Debug)]
pub struct Admission {
    policy: BatchPolicy,
    caps: Vec<usize>,
    pending: Vec<Vec<Pending>>,
}

impl Admission {
    /// Empty buckets for every Table VI class.
    pub fn new(policy: BatchPolicy) -> Self {
        let caps: Vec<usize> = TABLE_VI.iter().map(|g| g.cap).collect();
        let pending = vec![Vec::new(); caps.len()];
        Admission {
            policy,
            caps,
            pending,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The ascending size-class caps (Table VI).
    pub fn caps(&self) -> &[usize] {
        &self.caps
    }

    /// Admits one request into its size-class bucket.
    pub fn admit(&mut self, req: Pending) -> Admit {
        match wsvd_batched::size_class(req.rows, req.cols, &self.caps) {
            None => Admit::Rejected,
            Some(class) => {
                self.pending[class].push(req);
                if self.pending[class].len() >= self.policy.class_cap(class) {
                    Admit::Full(class)
                } else {
                    Admit::Queued(class)
                }
            }
        }
    }

    /// The earliest `(deadline_us, class)` over the non-empty buckets:
    /// oldest arrival plus `max_wait_us`, ties broken by the smaller class
    /// index so the event order is deterministic.
    pub fn next_deadline(&self) -> Option<(u64, usize)> {
        self.pending
            .iter()
            .enumerate()
            .filter_map(|(class, bucket)| {
                bucket
                    .first()
                    .map(|oldest| (oldest.arrival_us + self.policy.max_wait_us, class))
            })
            .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
    }

    /// Drains the bucket of `class` for dispatch (arrival order preserved).
    pub fn take(&mut self, class: usize) -> Vec<Pending> {
        std::mem::take(&mut self.pending[class])
    }

    /// Requests currently waiting in the bucket of `class`.
    pub fn pending_len(&self, class: usize) -> usize {
        self.pending[class].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival_us: u64, dim: usize) -> Pending {
        Pending {
            id,
            arrival_us,
            rows: dim,
            cols: dim,
            data_seed: 0,
        }
    }

    #[test]
    fn admits_into_the_smallest_fitting_class() {
        let mut adm = Admission::new(BatchPolicy::high_throughput());
        assert_eq!(adm.admit(req(0, 0, 20)), Admit::Queued(0));
        assert_eq!(adm.admit(req(1, 1, 64)), Admit::Queued(1));
        assert_eq!(adm.admit(req(2, 2, 65)), Admit::Queued(2));
        assert_eq!(adm.admit(req(3, 3, 512)), Admit::Queued(4));
        assert_eq!(adm.admit(req(4, 4, 513)), Admit::Rejected);
        assert_eq!(adm.pending_len(0), 1);
        assert_eq!(adm.pending_len(4), 1);
    }

    #[test]
    fn bucket_fills_at_the_effective_cap() {
        let policy = BatchPolicy {
            max_wait_us: 1000,
            max_batch: 3,
        };
        let mut adm = Admission::new(policy);
        assert_eq!(adm.admit(req(0, 0, 16)), Admit::Queued(0));
        assert_eq!(adm.admit(req(1, 1, 16)), Admit::Queued(0));
        assert_eq!(adm.admit(req(2, 2, 16)), Admit::Full(0));
        let bucket = adm.take(0);
        assert_eq!(bucket.len(), 3);
        assert!((0..adm.caps().len()).all(|c| adm.pending_len(c) == 0));
    }

    #[test]
    fn class_cap_clamps_to_table_vi_batch_and_one() {
        let wide = BatchPolicy {
            max_wait_us: 0,
            max_batch: 10_000,
        };
        assert_eq!(wide.class_cap(0), TABLE_VI[0].batch);
        let degenerate = BatchPolicy {
            max_wait_us: 0,
            max_batch: 0,
        };
        assert_eq!(degenerate.class_cap(2), 1);
    }

    #[test]
    fn deadline_is_oldest_arrival_plus_wait_with_class_tiebreak() {
        let policy = BatchPolicy {
            max_wait_us: 100,
            max_batch: 8,
        };
        let mut adm = Admission::new(policy);
        assert_eq!(adm.next_deadline(), None);
        adm.admit(req(0, 50, 100)); // class 2, deadline 150
        adm.admit(req(1, 40, 16)); // class 0, deadline 140
        adm.admit(req(2, 40, 60)); // class 1, deadline 140 (tie -> class 0)
        assert_eq!(adm.next_deadline(), Some((140, 0)));
        adm.take(0);
        assert_eq!(adm.next_deadline(), Some((140, 1)));
        adm.take(1);
        assert_eq!(adm.next_deadline(), Some((150, 2)));
    }
}
