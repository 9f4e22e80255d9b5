// Planted violations for the `no-fma` lint: three ways to fuse a multiply
// and an add in host-kernel code. Not compiled — linted as a fixture with
// the pretend path `crates/linalg/src/fixture.rs`.

pub fn fused_dot(x: &[f64], y: &[f64]) -> f64 {
    let mut s = 0.0;
    for (a, b) in x.iter().zip(y) {
        s = a.mul_add(*b, s);
    }
    s
}

#[target_feature(enable = "avx2,fma")]
unsafe fn fused_lanes(x: __m256d, y: __m256d, acc: __m256d) -> __m256d {
    _mm256_fmadd_pd(x, y, acc)
}

// The variants below must stay silent: AVX2 without FMA, and separate
// multiply and add (a comment saying `mul_add` is not a call).
#[target_feature(enable = "avx2")]
unsafe fn separate_lanes(x: __m256d, y: __m256d, acc: __m256d) -> __m256d {
    _mm256_add_pd(acc, _mm256_mul_pd(x, y))
}
