//! Shared-memory arena with hard capacity enforcement.
//!
//! Every thread block in the simulator owns one [`SharedMem`] sized by the
//! device's static per-block capacity (48 KiB on the paper's platforms).
//! Kernels *must* obtain their working buffers through it; an allocation
//! beyond capacity fails with [`SmemOverflow`]. This makes the W-cycle's
//! "can the SVD of `A_ij` be accomplished entirely within SM?" predicates
//! (Algorithm 2, lines 2/8/10) real, testable decisions instead of comments.
//!
//! The arena is pure accounting: an [`SmemBuf`] is a handle (length, id and
//! the bytes it holds charged to the arena) with no storage behind it. The
//! kernels compute on their own host `Matrix` copies and use the handles
//! only to charge the footprint and to name the ranges the sanitizer
//! checks, so a block allocates nothing for its shared memory.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Error returned when a shared-memory allocation exceeds block capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmemOverflow {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes still available in the arena.
    pub available: usize,
    /// Total arena capacity in bytes.
    pub capacity: usize,
}

impl fmt::Display for SmemOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shared memory overflow: requested {} B, available {} B of {} B",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for SmemOverflow {}

/// Per-block shared-memory budget tracker.
pub struct SharedMem {
    capacity: usize,
    used: Rc<Cell<usize>>,
    peak: Cell<usize>,
    next_id: Cell<usize>,
}

/// An SM-resident `f64` buffer as an accounting handle: its length and id,
/// and its bytes stay charged to the arena until the handle is dropped.
/// There is no storage behind it.
#[derive(Debug)]
pub struct SmemBuf {
    len: usize,
    used: Rc<Cell<usize>>,
    id: usize,
}

impl SharedMem {
    /// Creates an arena with the given capacity in bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity: capacity_bytes,
            used: Rc::new(Cell::new(0)),
            peak: Cell::new(0),
            next_id: Cell::new(0),
        }
    }

    /// Charges `n` `f64` elements to the arena, or fails if the budget would
    /// be exceeded (a request whose byte count does not fit a `usize` never
    /// fits).
    pub fn alloc(&self, n: usize) -> Result<SmemBuf, SmemOverflow> {
        let used = self.used.get();
        let bytes = n.checked_mul(std::mem::size_of::<f64>());
        let Some(total) = bytes
            .and_then(|b| used.checked_add(b))
            .filter(|&t| t <= self.capacity)
        else {
            return Err(SmemOverflow {
                requested: bytes.unwrap_or(usize::MAX),
                available: self.capacity - used,
                capacity: self.capacity,
            });
        };
        self.used.set(total);
        self.peak.set(self.peak.get().max(total));
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        Ok(SmemBuf {
            len: n,
            used: Rc::clone(&self.used),
            id,
        })
    }

    /// Returns whether `n` additional `f64`s would fit right now.
    pub fn would_fit(&self, n: usize) -> bool {
        n.checked_mul(std::mem::size_of::<f64>())
            .and_then(|b| self.used.get().checked_add(b))
            .is_some_and(|t| t <= self.capacity)
    }

    /// Currently allocated bytes.
    pub fn used_bytes(&self) -> usize {
        self.used.get()
    }

    /// High-water mark of allocated bytes over the arena's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak.get()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }
}

impl SmemBuf {
    /// Number of `f64` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Allocation id within this buffer's arena (monotonic per block), used
    /// by the sanitizer to attribute hazards to a specific buffer.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for SmemBuf {
    fn drop(&mut self) {
        let bytes = self.len * std::mem::size_of::<f64>();
        self.used.set(self.used.get().saturating_sub(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_within_capacity() {
        let sm = SharedMem::new(1024);
        let b = sm.alloc(100).unwrap(); // 800 bytes
        assert_eq!(b.len(), 100);
        assert_eq!(sm.used_bytes(), 800);
        assert!(sm.would_fit(28));
        assert!(!sm.would_fit(29));
    }

    #[test]
    fn alloc_beyond_capacity_fails() {
        let sm = SharedMem::new(48 * 1024);
        // 6144 f64s fill 48 KiB exactly.
        let _a = sm.alloc(6144).unwrap();
        let err = sm.alloc(1).unwrap_err();
        assert_eq!(err.available, 0);
        assert_eq!(err.capacity, 48 * 1024);
    }

    #[test]
    fn drop_releases_budget() {
        let sm = SharedMem::new(800);
        {
            let _b = sm.alloc(100).unwrap();
            assert_eq!(sm.used_bytes(), 800);
        }
        assert_eq!(sm.used_bytes(), 0);
        assert_eq!(sm.peak_bytes(), 800);
        let _c = sm.alloc(100).unwrap();
    }

    #[test]
    fn handle_carries_length_id_and_charge() {
        let sm = SharedMem::new(1024);
        let a = sm.alloc(3).unwrap();
        let b = sm.alloc(0).unwrap();
        assert_eq!((a.len(), a.id(), a.is_empty()), (3, 0, false));
        assert_eq!((b.len(), b.id(), b.is_empty()), (0, 1, true));
        assert_eq!(sm.used_bytes(), 24);
        drop(a);
        assert_eq!(sm.used_bytes(), 0);
        assert_eq!(sm.peak_bytes(), 24);
    }

    #[test]
    fn absurd_requests_overflow_instead_of_wrapping() {
        let sm = SharedMem::new(1024);
        let _a = sm.alloc(8).unwrap(); // 64 B used
        for n in [usize::MAX, usize::MAX / 8 + 1, usize::MAX / 8] {
            assert!(!sm.would_fit(n), "n = {n}");
            let err = sm.alloc(n).unwrap_err();
            assert_eq!(err.available, 960);
            assert_eq!(err.capacity, 1024);
        }
        assert_eq!(sm.used_bytes(), 64, "a failed request charges nothing");
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let sm = SharedMem::new(1600);
        let a = sm.alloc(100).unwrap();
        let b = sm.alloc(100).unwrap();
        drop(a);
        drop(b);
        let _c = sm.alloc(10).unwrap();
        assert_eq!(sm.peak_bytes(), 1600);
    }

    #[test]
    fn buffer_ids_are_monotonic_per_arena() {
        let sm = SharedMem::new(1024);
        let a = sm.alloc(1).unwrap();
        let b = sm.alloc(1).unwrap();
        drop(a);
        let c = sm.alloc(1).unwrap();
        assert_eq!(b.id(), 1);
        assert_eq!(c.id(), 2); // ids are never reused, even after a drop
    }

    #[test]
    fn overflow_error_displays() {
        let sm = SharedMem::new(8);
        let err = sm.alloc(2).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("16 B"), "{msg}");
    }
}
