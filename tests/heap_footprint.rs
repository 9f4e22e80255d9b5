//! Peak live heap of one `wcycle_svd` call, counted by this binary's own
//! global allocator (so the test lives in a binary of its own: every
//! allocation of the process is counted, and no other test may run
//! beside it).
//!
//! The level engine rotates each pair block where it lives in its task and
//! the call holds one working copy of the batch, which it turns into U in
//! place, so on a batch shaped like svdbench's `batch-large` (square
//! matrices of 96..192, one conditioned) the peak stays near two and a half
//! times the input. A peak above the bound means pair blocks are gathered
//! into copies again, or the batch is cloned a second time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wcycle_svd::gpu::{Gpu, V100};
use wcycle_svd::linalg::generate::{random_uniform, with_condition_number};
use wcycle_svd::linalg::Matrix;
use wcycle_svd::{wcycle_svd, WCycleConfig};

/// Live bytes now, and the most live at any point since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters only observe the sizes it was asked for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap above the starting level while `f` runs (its result
/// included), in bytes.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed) - base)
}

/// The bound on peak live heap over input bytes. Gathered pair blocks, V
/// pairs and a second clone of the batch measured 5.26; the in-place level
/// engine with an in-place U extraction measures 2.50 (the working copy,
/// the accumulated Vs and the step's small buffers). One more copy of the
/// batch anywhere crosses the bound.
const MAX_PEAK_OVER_INPUT: f64 = 3.0;

#[test]
fn one_call_holds_about_two_copies_of_the_batch() {
    let mats: Vec<Matrix> = [96usize, 128, 160, 192]
        .iter()
        .enumerate()
        .map(|(k, &n)| match k {
            1 => with_condition_number(n, n, 1e12, 70 + k as u64),
            _ => random_uniform(n, n, 70 + k as u64),
        })
        .collect();
    let input: usize = mats.iter().map(Matrix::bytes).sum();
    let gpu = Gpu::new(V100);
    let cfg = WCycleConfig::default();
    // A first call starts the worker pool and fills the process-wide plan
    // cache; the measured call allocates only what the decomposition needs.
    drop(wcycle_svd(&gpu, &mats, &cfg).unwrap());
    let (out, peak) = peak_during(|| wcycle_svd(&gpu, &mats, &cfg).unwrap());
    assert_eq!(out.results.len(), mats.len());
    let ratio = peak as f64 / input as f64;
    println!("peak live heap {peak} B over {input} B of input: {ratio:.2}x");
    assert!(
        ratio <= MAX_PEAK_OVER_INPUT,
        "one call peaked at {ratio:.2}x its input ({peak} B over {input} B)"
    );
}
