//! The matrix products the tape's `MatMul` op and its backward need, as
//! free functions over [`Tensor`]s.
//!
//! The three flavors — plain (`A·B`), NT (`A·Bᵀ`, a `dX = dY·Wᵀ`
//! backward) and TN (`Aᵀ·B`, a `dW = Xᵀ·dY` backward) — dispatch to the
//! register-blocked AVX2/FMA kernels in `rlsched_nn::simd` when the shape
//! allows, and otherwise run the scalar loops (`i-k-j` so the innermost
//! loop walks both operands contiguously). The training and inference
//! paths call those kernels on raw slices; these wrappers serve the tape
//! and the SIMD parity suite.

use rlsched_nn::{simd, Tensor};

/// The `[rows, cols]` of a 2-D tensor.
fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    match *t.shape() {
        [r, c] => (r, c),
        _ => panic!("{what} must be 2-D"),
    }
}

/// Matrix product `a · b` of two 2-D tensors.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_into(a, b, &mut out);
    Tensor::from_vec(out, &[dims2(a, "matmul lhs").0, dims2(b, "matmul rhs").1])
}

/// [`matmul`] into a caller-supplied buffer (cleared and resized).
///
/// Dispatches to the AVX2/FMA kernel (`simd::gemm`) when the shape
/// allows, the scalar `i-k-j` loop otherwise.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
    out.clear();
    out.resize(m * n, 0.0);
    if !simd::gemm(a.data(), m, k, b.data(), n, None, out) {
        simd::gemm_scalar(a.data(), m, k, b.data(), n, out);
    }
}

/// `a · bᵀ` without materializing the transpose: `a` is `[m, k]`, `b` is
/// `[n, k]`, result `[m, n]` (`dX = dY Wᵀ`).
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_nt_into(a, b, &mut out);
    Tensor::from_vec(
        out,
        &[dims2(a, "matmul_nt lhs").0, dims2(b, "matmul_nt rhs").0],
    )
}

/// [`matmul_nt`] into a caller-supplied buffer (cleared and resized),
/// through the scalar dot-product kernel (`simd::gemm_nt_scalar`; there
/// is no SIMD arm).
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt inner dimensions {k} vs {k2}");
    out.clear();
    out.resize(m * n, 0.0);
    simd::gemm_nt_scalar(a.data(), m, k, b.data(), n, out);
}

/// `aᵀ · b` without materializing the transpose: `a` is `[r, m]`, `b` is
/// `[r, n]`, result `[m, n]` (`dW = Xᵀ dY`).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_tn_into(a, b, &mut out);
    Tensor::from_vec(
        out,
        &[dims2(a, "matmul_tn lhs").1, dims2(b, "matmul_tn rhs").1],
    )
}

/// [`matmul_tn`] into a caller-supplied buffer (cleared and resized).
/// Dispatches to the rank-1-update SIMD kernel (`simd::gemm_tn`) when the
/// output width allows.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    let (r, m) = dims2(a, "matmul_tn lhs");
    let (r2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(r, r2, "matmul_tn outer dimensions {r} vs {r2}");
    out.clear();
    out.resize(m * n, 0.0);
    if !simd::gemm_tn(a.data(), r, m, b.data(), n, out) {
        simd::gemm_tn_scalar(a.data(), r, m, b.data(), n, out);
    }
}

/// Transpose of a 2-D tensor.
pub fn transposed(a: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "transpose input");
    let mut out = vec![0.0f32; m * n];
    for (i, row) in a.data().chunks_exact(n).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * m + i] = v;
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0], &[1, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[11.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = transposed(&a);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(2, 1), 6.0);
        assert_eq!(transposed(&t), a);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.5 - 1.0).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[4, 3]);
        assert_eq!(matmul_nt(&a, &b), matmul(&a, &transposed(&b)));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.3 - 0.7).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).cos()).collect(), &[3, 4]);
        assert_eq!(matmul_tn(&a, &b), matmul(&transposed(&a), &b));
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut buf = vec![99.0; 16];
        matmul_into(&a, &b, &mut buf);
        assert_eq!(buf, vec![19.0, 22.0, 43.0, 50.0]);
    }
}
