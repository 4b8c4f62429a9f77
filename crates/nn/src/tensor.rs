//! Dense row-major f32 tensors: the parameter storage of every layer and
//! the unit of a checkpoint.
//!
//! The three matmul flavors — plain (`A·B`), NT (`A·Bᵀ`, a `dX = dY·Wᵀ`
//! backward) and TN (`Aᵀ·B`, a `dW = Xᵀ·dY` backward) — dispatch to the
//! register-blocked AVX2/FMA kernels in [`crate::simd`] when the shape
//! allows, and otherwise run the scalar loops (`i-k-j` so the innermost
//! loop walks both operands contiguously). The training and inference
//! paths call the kernels on raw slices; these wrappers serve the
//! test-only reference tape and the SIMD parity suite.

use serde::{Deserialize, Serialize};

use crate::simd;

/// Maximum tensor rank (conv activations `[B, C, H, W]` are the deepest
/// shapes in the system).
pub const MAX_RANK: usize = 4;

/// An inline (non-allocating) shape: up to [`MAX_RANK`] dimensions, so a
/// gradient tensor costs one heap allocation (its data), not two.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Build from a dims slice (panics above [`MAX_RANK`]).
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut s = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len() as u8,
        };
        s.dims[..dims.len()].copy_from_slice(dims);
        s
    }

    /// The dimensions.
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Total element count.
    pub fn volume(&self) -> usize {
        self.as_slice().iter().product()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dims: Vec<usize> = Deserialize::from_value(v)?;
        if dims.len() > MAX_RANK {
            return Err(serde::Error::custom(format!(
                "shape rank {} exceeds MAX_RANK {MAX_RANK}",
                dims.len()
            )));
        }
        Ok(Shape::new(&dims))
    }
}

/// A dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

/// A tensor as it reads from JSON, before its data is held to its shape.
#[derive(Deserialize)]
struct RawTensor {
    data: Vec<f32>,
    shape: Shape,
}

/// A checkpoint whose data disagrees with its shape is an error here,
/// not a panic at the first forward that trusts the shape.
impl Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let RawTensor { data, shape } = RawTensor::from_value(v)?;
        let volume = shape
            .as_slice()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d));
        if volume != Some(data.len()) {
            return Err(serde::Error::custom(format!(
                "tensor of shape {shape:?} holds {} values",
                data.len()
            )));
        }
        Ok(Tensor { data, shape })
    }
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            data: vec![0.0; n],
            shape: Shape::new(shape),
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            data: vec![value; n],
            shape: Shape::new(shape),
        }
    }

    /// Build from data and shape; panics when lengths disagree.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape volume {}",
            data.len(),
            n
        );
        Tensor {
            data,
            shape: Shape::new(shape),
        }
    }

    /// A 1-element scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            data: vec![v],
            shape: Shape::new(&[1]),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a 1-element tensor");
        self.data[0]
    }

    /// Rows of a 2-D tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.as_slice().len(), 2, "rows() requires 2-D");
        self.shape.as_slice()[0]
    }

    /// Columns of a 2-D tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.as_slice().len(), 2, "cols() requires 2-D");
        self.shape.as_slice()[1]
    }

    /// Element accessor for 2-D tensors.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.as_slice().len(), 2);
        self.data[r * self.shape.as_slice()[1] + c]
    }

    /// Mutable element accessor for 2-D tensors.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.as_slice().len(), 2);
        &mut self.data[r * self.shape.as_slice()[1] + c]
    }

    /// Same data, different shape (must preserve volume).
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.len(), "reshape must preserve volume");
        Tensor {
            data: self.data.clone(),
            shape: Shape::new(shape),
        }
    }

    /// Matrix product of two 2-D tensors.
    ///
    /// The `i-k-j` loop order walks both operands contiguously.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Vec::new();
        self.matmul_into(other, &mut out);
        let (m, n) = (self.shape.as_slice()[0], other.shape.as_slice()[1]);
        Tensor {
            data: out,
            shape: Shape::new(&[m, n]),
        }
    }

    /// [`Tensor::matmul`] into a caller-supplied buffer (cleared and
    /// resized).
    ///
    /// Dispatches to the AVX2/FMA kernel ([`simd::gemm`]) when the shape
    /// allows, the scalar `i-k-j` loop otherwise.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(self.shape.as_slice().len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.as_slice().len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape.as_slice()[0], self.shape.as_slice()[1]);
        let (k2, n) = (other.shape.as_slice()[0], other.shape.as_slice()[1]);
        assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
        out.clear();
        out.resize(m * n, 0.0);
        if !simd::gemm(&self.data, m, k, &other.data, n, None, out) {
            simd::gemm_scalar(&self.data, m, k, &other.data, n, out);
        }
    }

    /// `self @ otherᵀ` without materializing the transpose: `self` is
    /// `[m, k]`, `other` is `[n, k]`, result `[m, n]`. Used by backward
    /// passes (`dX = dY Wᵀ`).
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Vec::new();
        self.matmul_nt_into(other, &mut out);
        Tensor {
            data: out,
            shape: Shape::new(&[self.shape.as_slice()[0], other.shape.as_slice()[0]]),
        }
    }

    /// [`Tensor::matmul_nt`] into a caller-supplied buffer (cleared and
    /// resized), through the scalar dot-product kernel
    /// ([`simd::gemm_nt_scalar`]; there is no SIMD arm).
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(self.shape.as_slice().len(), 2, "matmul_nt lhs must be 2-D");
        assert_eq!(other.shape.as_slice().len(), 2, "matmul_nt rhs must be 2-D");
        let (m, k) = (self.shape.as_slice()[0], self.shape.as_slice()[1]);
        let (n, k2) = (other.shape.as_slice()[0], other.shape.as_slice()[1]);
        assert_eq!(k, k2, "matmul_nt inner dimensions {k} vs {k2}");
        out.clear();
        out.resize(m * n, 0.0);
        simd::gemm_nt_scalar(&self.data, m, k, &other.data, n, out);
    }

    /// `selfᵀ @ other` without materializing the transpose: `self` is
    /// `[r, m]`, `other` is `[r, n]`, result `[m, n]`. Used by backward
    /// passes (`dW = Xᵀ dY`).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Vec::new();
        self.matmul_tn_into(other, &mut out);
        Tensor {
            data: out,
            shape: Shape::new(&[self.shape.as_slice()[1], other.shape.as_slice()[1]]),
        }
    }

    /// [`Tensor::matmul_tn`] into a caller-supplied buffer (cleared and
    /// resized). Dispatches to the rank-1-update SIMD kernel
    /// ([`simd::gemm_tn`]) when the output width allows.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(self.shape.as_slice().len(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.shape.as_slice().len(), 2, "matmul_tn rhs must be 2-D");
        let (r, m) = (self.shape.as_slice()[0], self.shape.as_slice()[1]);
        let (r2, n) = (other.shape.as_slice()[0], other.shape.as_slice()[1]);
        assert_eq!(r, r2, "matmul_tn outer dimensions {r} vs {r2}");
        out.clear();
        out.resize(m * n, 0.0);
        if !simd::gemm_tn(&self.data, r, m, &other.data, n, out) {
            simd::gemm_tn_scalar(&self.data, r, m, &other.data, n, out);
        }
    }

    /// Transpose of a 2-D tensor.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.as_slice().len(), 2, "transpose requires 2-D");
        let (m, n) = (self.shape.as_slice()[0], self.shape.as_slice()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: Shape::new(&[n, m]),
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape,
        }
    }

    /// In-place `self += alpha * other` (shapes must match).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(0, 2), 3.0);
        assert_eq!(t.at(1, 0), 4.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn bad_shape_rejected() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3, 3]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0], &[1, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[11.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transposed();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(2, 1), 6.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = a.reshaped(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "volume")]
    fn reshape_volume_checked() {
        let _ = Tensor::zeros(&[2, 2]).reshaped(&[5]);
    }

    #[test]
    fn axpy_and_sum_and_norm() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        assert_eq!(a.sum(), 18.0);
        let n = Tensor::from_vec(vec![3.0, 4.0], &[2]).norm();
        assert!((n - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Tensor::from_vec(vec![-1.0, 2.0], &[2]);
        assert_eq!(a.map(|x| x.max(0.0)).data(), &[0.0, 2.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.5 - 1.0).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[4, 3]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transposed()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.3 - 0.7).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).cos()).collect(), &[3, 4]);
        assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut buf = vec![99.0; 16];
        a.matmul_into(&b, &mut buf);
        assert_eq!(buf, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn deserialize_holds_data_to_its_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
        for bad in [
            r#"{"data":[1,2,3,4,5],"shape":[2,3]}"#,
            r#"{"data":[1,2,3,4,5,6,7],"shape":[2,3]}"#,
            r#"{"data":[],"shape":[4294967296,4294967296,16]}"#,
            r#"{"data":[1],"shape":[1,1,1,1,1]}"#,
        ] {
            assert!(serde_json::from_str::<Tensor>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "1-element")]
    fn item_rejects_non_scalar() {
        let _ = Tensor::zeros(&[2]).item();
    }
}
