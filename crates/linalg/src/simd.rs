//! Instruction-set dispatch for the host kernels: one body, compiled twice.
//!
//! Each dispatched kernel entry (`matmul_rows`, `gram_rows`,
//! `col_pair_dots`, the one-sided Jacobi sweeps, the EVD sweeps) is a thin
//! wrapper around an `#[inline(always)]` body generic over an [`Isa`]
//! token. [`dispatch!`] writes that wrapper: it compiles the body once as
//! portable code and once inside a `#[target_feature(enable = "avx2")]`
//! function, and picks the copy once per call with
//! `is_x86_feature_detected!`. Everything the body inlines (`dot`, `dot4`,
//! `axpy`, `rotate_columns`) becomes AVX2 code in the second copy.
//! Non-x86_64 targets build the portable copy only.
//!
//! Both copies compute the same bits. The bodies are IEEE additions and
//! multiplications in a fixed order; neither copy enables FMA (a fused
//! multiply-add rounds once where the reference rounds twice), and the
//! compiler never reassociates float arithmetic. The one place the code
//! itself differs is [`Isa::dot4`], which the AVX2 token runs as an explicit
//! 4x4 register transpose with the same per-lane summation order.
//!
//! [`dispatch!`]: crate::dispatch

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
};

/// The instruction set a kernel body was compiled for, as a value.
///
/// Bodies take the token as their first argument and call the few
/// primitives whose code differs per instruction set through it.
pub trait Isa: Copy {
    /// Four independent dot products `xs[k] · ys[k]`, each summed from 0.0
    /// in ascending index order: bit-identical to [`crate::gemm::dot4`].
    ///
    /// Panics unless all eight slices have the same length.
    fn dot4(self, xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4];
}

/// Portable code: whatever the build's baseline target features allow.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl Isa for Portable {
    #[inline(always)]
    fn dot4(self, xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
        crate::gemm::dot4(xs, ys)
    }
}

/// Proof that the running CPU supports AVX2; only [`Avx2::detect`] makes
/// one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The token, if this CPU supports AVX2.
    #[inline]
    pub fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2 {
    /// Four rows at a time: the 4x4 block of products `x_k[r+q] * y_k[r+q]`
    /// is formed column by column (one multiply per column), transposed in
    /// registers, and its rows are added to the accumulator in ascending
    /// `q`, so lane `k` adds the same rounded products in the same order as
    /// the scalar loop. The remainder rows are scalar.
    #[inline(always)]
    fn dot4(self, xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
        let len = xs[0].len();
        assert!(
            xs.iter().chain(&ys).all(|v| v.len() == len),
            "dot4 operands differ in length"
        );
        let body = len - len % 4;
        let mut s = [0.0; 4];
        // SAFETY: `self` exists only if `Avx2::detect` saw AVX2 on this CPU,
        // so the intrinsics are supported. Every load reads the four
        // elements at `r..r + 4` with `r + 4 <= body <= len`, inside all
        // eight slices (their common length is `len`), and the store writes
        // the four elements of `s`.
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let mut r = 0;
            while r < body {
                let p = |k: usize| {
                    _mm256_mul_pd(
                        _mm256_loadu_pd(xs[k].as_ptr().add(r)),
                        _mm256_loadu_pd(ys[k].as_ptr().add(r)),
                    )
                };
                let (p0, p1, p2, p3) = (p(0), p(1), p(2), p(3));
                let lo01 = _mm256_unpacklo_pd(p0, p1); // rows r, r+2 of cols 0, 1
                let hi01 = _mm256_unpackhi_pd(p0, p1); // rows r+1, r+3
                let lo23 = _mm256_unpacklo_pd(p2, p3);
                let hi23 = _mm256_unpackhi_pd(p2, p3);
                acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x20>(lo01, lo23));
                acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x20>(hi01, hi23));
                acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x31>(lo01, lo23));
                acc = _mm256_add_pd(acc, _mm256_permute2f128_pd::<0x31>(hi01, hi23));
                r += 4;
            }
            _mm256_storeu_pd(s.as_mut_ptr(), acc);
        }
        for r in body..len {
            for k in 0..4 {
                s[k] += xs[k][r] * ys[k][r];
            }
        }
        s
    }
}

/// Defines a kernel entry that runs an `#[inline(always)]` body generic
/// over [`Isa`](crate::simd::Isa), compiled twice and picked once per call:
///
/// ```
/// use wsvd_linalg::simd::Isa;
///
/// #[inline(always)]
/// fn sum_with<I: Isa>(_isa: I, x: &[f64]) -> f64 {
///     x.iter().sum()
/// }
///
/// wsvd_linalg::dispatch! {
///     /// Docs of the entry.
///     pub fn sum(x: &[f64]) -> f64 => sum_with
/// }
///
/// assert_eq!(sum(&[1.0, 2.0]), 3.0);
/// ```
///
/// defines `pub fn sum(x: &[f64]) -> f64`, which calls `sum_with(isa, x)`
/// with an AVX2 token inside an AVX2-compiled function when the CPU
/// supports it, and with [`Portable`](crate::simd::Portable) otherwise.
/// Arguments are plain identifiers.
#[macro_export]
macro_rules! dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? => $body:path
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if let Some(isa) = $crate::simd::Avx2::detect() {
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)] // the entry's, plus the token
                fn avx2(isa: $crate::simd::Avx2, $($arg: $ty),*) $(-> $ret)? {
                    $body(isa, $($arg),*)
                }
                // SAFETY: `avx2` only requires AVX2, and the token proves
                // the CPU has it.
                return unsafe { avx2(isa, $($arg),*) };
            }
            $body($crate::simd::Portable, $($arg),*)
        }
    };
}
