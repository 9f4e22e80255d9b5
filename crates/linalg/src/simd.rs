//! Instruction-set dispatch for the host kernels: one body, compiled three
//! times.
//!
//! Each dispatched kernel entry (`matmul_rows`, `gram_rows`,
//! `col_pair_dots`, the one-sided Jacobi sweeps, the EVD sweeps) is a thin
//! wrapper around an `#[inline(always)]` body generic over an [`Isa`]
//! token. [`dispatch!`] writes that wrapper: it compiles the body as
//! portable code, inside a `#[target_feature(enable = "avx2")]` function
//! and inside a `#[target_feature(enable = "avx512f")]` function, and runs
//! the widest copy this CPU supports ([`tier`], detected with
//! `is_x86_feature_detected!` on every call). Everything the body inlines
//! (`dot`, `dot4`, `axpy`, `rotate_columns`) becomes AVX2 or AVX-512 code in
//! those copies. The AVX-512 copy takes the [`Avx2`] token, so its
//! [`Isa::dot4`] is the same 256-bit kernel; only the compiler's own
//! vectorization is wider. Non-x86_64 targets build the portable copy only.
//!
//! Every copy computes the same bits. The bodies are IEEE additions,
//! multiplications, divisions and square roots in a fixed order, and the
//! compiler never reassociates float arithmetic or contracts a multiply
//! and an add into a fused multiply-add (which rounds once where the
//! reference rounds twice). That holds even in the AVX-512 copy, where
//! `avx512f` makes FMA instructions available: they are never emitted for
//! this code, and CI disassembles the copies to check it. The one place the
//! code itself differs is [`Isa::dot4`], which the AVX2 token runs as an
//! explicit 4x4 register transpose with the same per-lane summation order.
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

/// Proof that the running CPU supports AVX2; only [`Avx2::detect`] and
/// [`Avx2::with_avx512f`] make one.
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

    /// The token, if this CPU also supports AVX-512F and the other features
    /// `#[target_feature(enable = "avx512f")]` turns on (FMA and F16C).
    #[inline]
    pub fn with_avx512f() -> Option<Self> {
        let avx512 = std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("fma")
            && std::is_x86_feature_detected!("f16c");
        Self::detect().filter(|_| avx512)
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

/// One compiled copy of the dispatched kernels, named by the widest
/// instruction set it was compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The build's baseline target features.
    Portable,
    /// `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// `#[target_feature(enable = "avx512f")]`, with the AVX2 [`Isa`] token.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// Whether this CPU can run the copy compiled for this tier.
    pub fn available(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => Avx2::detect().is_some(),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => Avx2::with_avx512f().is_some(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tier's name: `portable`, `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// The tier every dispatched entry runs on this CPU: the widest available.
pub fn tier() -> Tier {
    Tier::ALL
        .into_iter()
        .rev()
        .find(|t| t.available())
        .unwrap_or(Tier::Portable)
}

/// Defines a kernel entry that runs an `#[inline(always)]` body generic
/// over [`Isa`](crate::simd::Isa), compiled once per [`Tier`](crate::simd::Tier),
/// and a second function that runs one named copy:
///
/// ```
/// use wsvd_linalg::simd::{Isa, Tier};
///
/// #[inline(always)]
/// fn sum_with<I: Isa>(_isa: I, x: &[f64]) -> f64 {
///     x.iter().sum()
/// }
///
/// wsvd_linalg::dispatch! {
///     /// Docs of the entry.
///     pub fn sum(x: &[f64]) -> f64 => sum_with, sum_on
/// }
///
/// assert_eq!(sum(&[1.0, 2.0]), 3.0);
/// assert_eq!(sum_on(Tier::Portable, &[1.0, 2.0]), Some(3.0));
/// ```
///
/// defines `pub fn sum(x: &[f64]) -> f64`, which runs the copy of the
/// widest tier this CPU supports ([`tier`](crate::simd::tier)): `sum_with`
/// inside an AVX-512F-compiled function, inside an AVX2-compiled function
/// (both given the AVX2 token), or with
/// [`Portable`](crate::simd::Portable). It also defines
/// `pub fn sum_on(tier: Tier, x: &[f64]) -> Option<f64>`, which runs the
/// copy of `tier`, or returns `None` when this CPU cannot: the tests use it
/// to check every compiled copy. Arguments are plain identifiers.
#[macro_export]
macro_rules! dispatch {
    (@ret) => { () };
    (@ret $ret:ty) => { $ret };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            => $body:path, $on:ident
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $on($crate::simd::tier(), $($arg),*).expect("this CPU runs its widest tier")
        }

        #[doc = concat!(
            "[`", stringify!($name), "`] on the copy compiled for `tier`, or `None` ",
            "when this CPU cannot run it."
        )]
        #[allow(clippy::too_many_arguments)] // the entry's, plus the tier
        $vis fn $on(
            tier: $crate::simd::Tier,
            $($arg: $ty),*
        ) -> Option<$crate::dispatch!(@ret $($ret)?)> {
            match tier {
                $crate::simd::Tier::Portable => Some($body($crate::simd::Portable, $($arg),*)),
                #[cfg(target_arch = "x86_64")]
                $crate::simd::Tier::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    #[allow(clippy::too_many_arguments)] // the entry's, plus the token
                    fn avx2(isa: $crate::simd::Avx2, $($arg: $ty),*) $(-> $ret)? {
                        $body(isa, $($arg),*)
                    }
                    let isa = $crate::simd::Avx2::detect()?;
                    // SAFETY: `avx2` only requires AVX2, and the token
                    // proves the CPU has it.
                    Some(unsafe { avx2(isa, $($arg),*) })
                }
                #[cfg(target_arch = "x86_64")]
                $crate::simd::Tier::Avx512 => {
                    #[target_feature(enable = "avx512f")]
                    #[allow(clippy::too_many_arguments)] // the entry's, plus the token
                    fn avx512(isa: $crate::simd::Avx2, $($arg: $ty),*) $(-> $ret)? {
                        $body(isa, $($arg),*)
                    }
                    let isa = $crate::simd::Avx2::with_avx512f()?;
                    // SAFETY: `avx512` requires AVX-512F and the features it
                    // implies (AVX2, FMA, F16C); `with_avx512f` made the
                    // token only after seeing all of them on this CPU.
                    Some(unsafe { avx512(isa, $($arg),*) })
                }
                #[cfg(not(target_arch = "x86_64"))]
                _ => None,
            }
        }
    };
}
