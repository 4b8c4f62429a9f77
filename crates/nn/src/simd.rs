//! Runtime-dispatched dense microkernels shared by the whole stack.
//!
//! One set of register-blocked AVX2/FMA kernels serves the inference fast
//! path ([`crate::infer`]), the fused training forward and its analytic
//! backward ([`crate::fused`]: `dA = dC·Bᵀ` through a transposed-weight
//! [`gemm`], `dB = Aᵀ·dC` via [`gemm_tn`]), and the test-only reference
//! tape. Keeping every caller on the same kernels means a decision, a
//! training pass and the reference compute *bit-identical* values on both
//! dispatch arms.
//!
//! # Dispatch rules
//!
//! * [`simd_enabled`] gates everything: x86-64 with AVX2+FMA detected at
//!   runtime (checked once, cached), unless the `RLSCHED_FORCE_SCALAR`
//!   environment variable is set — CI runs the whole test suite once with
//!   it set so the scalar arm stays green.
//! * Each `gemm*` entry point returns `false` (having written nothing)
//!   when it does not dispatch; the caller then runs the matching
//!   `*_scalar` reference kernel. [`gemm`]/[`gemm_tn`] need at least 8
//!   output columns to fill a vector lane. Ragged shapes are handled with
//!   scalar column/row tails inside the SIMD kernels.
//! * `C = A·Bᵀ` ([`gemm_nt_scalar`]) has no SIMD arm: the dense backward
//!   transposes its small weight matrix and runs [`gemm`] instead.
//!
//! # Layout
//!
//! All matrices are dense row-major `f32`, and every weight matrix is
//! `[in, out]`. [`gemm`] walks `B` row-major (broadcast-A × row-of-B);
//! a single input row streams each weight row through up to eight vector
//! accumulators (64 columns at a time, prefetched a few rows ahead), so
//! one decision and a stacked batch run the same `[in, out]` weights.
//!
//! # Numerics
//!
//! The scalar kernels accumulate in the same order as the original scalar
//! loops, so the scalar arm is bit-for-bit the pre-SIMD behavior. The
//! AVX2 kernels fuse multiply-adds (no intermediate rounding) and widen
//! the accumulation, so values can drift by a few ulps; see
//! `tests/simd_parity_prop.rs` for the tolerance contract. That contract
//! assumes finite inputs: [`gemm_scalar`]/[`gemm_tn_scalar`] skip
//! zero-valued contributions (so `0 × inf` drops out) while the SIMD
//! kernels compute them (`0 × inf → NaN`) — a diverged model with
//! non-finite weights can therefore NaN on one arm and not the other.
//!
//! # Row-count invariance
//!
//! The *forward* kernels ([`gemm`], [`dense_any`]) guarantee
//! a stronger property on both arms: each output **row** is computed with
//! an accumulation order that does not depend on how many rows are in the
//! batch. Row `i` of an `m`-row product is bit-identical to the single
//! row of the `m == 1` product over the same inputs. This is what lets
//! the vectorized rollout path (`rlsched-rl`'s `VecEnv`) score every live
//! environment through one stacked matmul and still produce trajectories
//! bit-identical to sequential per-env stepping — the batched≡sequential
//! parity tests lean on it, so treat it as part of the kernel contract.

use std::sync::OnceLock;

/// True when the AVX2+FMA kernels may run: detected at runtime once and
/// cached, and forced off by setting `RLSCHED_FORCE_SCALAR` (to anything
/// but `0`/empty) before the first dispatch.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os("RLSCHED_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

// ------------------------------------------------------------- C = A·B

/// SIMD `C[m,n] = A[m,k] @ B[k,n]`, optionally seeded with a broadcast
/// `bias[n]` row (otherwise zero). Returns `false` without touching `out`
/// when SIMD is unavailable or `n < 8`; `out` must hold `m * n` elements.
pub fn gemm(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) -> bool {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    if n < 8 || !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        unsafe { gemm_avx2(a, m, k, b, n, bias, out) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scalar reference for [`gemm`] (zero-seed variant): the original
/// `i-k-j` loop, zero-contribution rows skipped. Bit-identical to the
/// pre-SIMD `matmul`.
pub fn gemm_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        o_row.fill(0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Register-blocked AVX2/FMA kernel: 4 rows × 16 columns per block (eight
/// independent FMA chains — enough to cover FMA latency at two issues per
/// cycle), stepping down to 4×8, then a 1-row remainder (64-, 32-, 16-
/// and 8-wide tiles: one input row keeps eight chains busy only across
/// 64 columns), then a scalar column tail.
///
/// Every output element is accumulated by its own k-ascending FMA chain
/// in its own vector lane, so the tile geometry never changes a value:
/// each row is bit-identical whether it was computed in a full block or
/// as a tail (the row-count-invariance contract of the module docs), and
/// widening the tiles is invisible to every parity test.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and slice lengths cover the
/// dims (`a ≥ m*k`, `b ≥ k*n`, `out ≥ m*n`, `bias ≥ n` when given).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    if let Some(bv) = bias {
        assert!(bv.len() >= n);
    }
    let n16 = n - n % 16;
    let n8 = n - n % 8;
    unsafe {
        let seed = |j: usize| -> __m256 {
            match bias {
                Some(bv) => _mm256_loadu_ps(bv.as_ptr().add(j)),
                None => _mm256_setzero_ps(),
            }
        };
        let mut i = 0;
        while i + 4 <= m {
            let mut j = 0;
            while j < n16 {
                let s0 = seed(j);
                let s1 = seed(j + 8);
                let (mut a00, mut a01) = (s0, s1);
                let (mut a10, mut a11) = (s0, s1);
                let (mut a20, mut a21) = (s0, s1);
                let (mut a30, mut a31) = (s0, s1);
                for kk in 0..k {
                    let w0 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    let w1 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j + 8));
                    let x0 = _mm256_set1_ps(*a.get_unchecked(i * k + kk));
                    a00 = _mm256_fmadd_ps(x0, w0, a00);
                    a01 = _mm256_fmadd_ps(x0, w1, a01);
                    let x1 = _mm256_set1_ps(*a.get_unchecked((i + 1) * k + kk));
                    a10 = _mm256_fmadd_ps(x1, w0, a10);
                    a11 = _mm256_fmadd_ps(x1, w1, a11);
                    let x2 = _mm256_set1_ps(*a.get_unchecked((i + 2) * k + kk));
                    a20 = _mm256_fmadd_ps(x2, w0, a20);
                    a21 = _mm256_fmadd_ps(x2, w1, a21);
                    let x3 = _mm256_set1_ps(*a.get_unchecked((i + 3) * k + kk));
                    a30 = _mm256_fmadd_ps(x3, w0, a30);
                    a31 = _mm256_fmadd_ps(x3, w1, a31);
                }
                let o0 = out.as_mut_ptr().add(i * n + j);
                let o1 = out.as_mut_ptr().add((i + 1) * n + j);
                let o2 = out.as_mut_ptr().add((i + 2) * n + j);
                let o3 = out.as_mut_ptr().add((i + 3) * n + j);
                _mm256_storeu_ps(o0, a00);
                _mm256_storeu_ps(o0.add(8), a01);
                _mm256_storeu_ps(o1, a10);
                _mm256_storeu_ps(o1.add(8), a11);
                _mm256_storeu_ps(o2, a20);
                _mm256_storeu_ps(o2.add(8), a21);
                _mm256_storeu_ps(o3, a30);
                _mm256_storeu_ps(o3.add(8), a31);
                j += 16;
            }
            while j < n8 {
                let s = seed(j);
                let (mut a0, mut a1, mut a2, mut a3) = (s, s, s, s);
                for kk in 0..k {
                    let wr = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    a0 = _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked(i * k + kk)), wr, a0);
                    a1 =
                        _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked((i + 1) * k + kk)), wr, a1);
                    a2 =
                        _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked((i + 2) * k + kk)), wr, a2);
                    a3 =
                        _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked((i + 3) * k + kk)), wr, a3);
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j), a0);
                _mm256_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), a1);
                _mm256_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), a2);
                _mm256_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), a3);
                j += 8;
            }
            i += 4;
        }
        // Row remainder: 64-, 32-, 16- then 8-wide tiles with the same
        // per-lane k-ascending FMA chain as the 4-row blocks above
        // (row-count invariance).
        while i < m {
            let (a_row, o_row) = (a.as_ptr().add(i * k), out.as_mut_ptr().add(i * n));
            let mut j = 0;
            while j + 64 <= n {
                row_tile::<8>(a_row, k, b.as_ptr(), n, j, bias, o_row);
                j += 64;
            }
            while j + 32 <= n {
                row_tile::<4>(a_row, k, b.as_ptr(), n, j, bias, o_row);
                j += 32;
            }
            while j + 16 <= n {
                row_tile::<2>(a_row, k, b.as_ptr(), n, j, bias, o_row);
                j += 16;
            }
            while j + 8 <= n {
                row_tile::<1>(a_row, k, b.as_ptr(), n, j, bias, o_row);
                j += 8;
            }
            i += 1;
        }
        // Column tail: plain bias-seeded dots (per row, k ascending).
        for j in n8..n {
            for i in 0..m {
                let mut acc = bias.map_or(0.0, |bv| bv[j]);
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }
}

/// How many rows of `B` ahead [`row_tile`] prefetches. One input row
/// walks `B` a row of `n` floats at a time and reads only a tile's slice
/// of each; the hardware prefetchers do not run far enough ahead of that
/// stride, and a flat MLP's first layer (≈458 KB for MLP v1) streams from
/// L2 on every decision. A prefetch reads nothing into a register, so no
/// value changes.
const ROW_TILE_PREFETCH_ROWS: usize = 8;

/// One row of [`gemm_avx2`]'s row remainder: `a_row` times the `8 * V`
/// columns of `B` from `j`, into `o_row[j..]`. `V` accumulators, each
/// seeded with its 8 lanes of `bias` (or zero) and run as a k-ascending
/// FMA chain — the same chain every lane of a 4-row block runs, so a
/// row's bits do not depend on which tile computed it.
///
/// # Safety
/// AVX2+FMA must be available; `a_row` must hold `k` values, `b` `k * n`,
/// `o_row` `n`, `bias` (when given) `n`, and `j + 8 * V <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn row_tile<const V: usize>(
    a_row: *const f32,
    k: usize,
    b: *const f32,
    n: usize,
    j: usize,
    bias: Option<&[f32]>,
    o_row: *mut f32,
) {
    use std::arch::x86_64::*;
    unsafe {
        let mut acc = [_mm256_setzero_ps(); V];
        if let Some(bv) = bias {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_loadu_ps(bv.as_ptr().add(j + 8 * v));
            }
        }
        for kk in 0..k {
            let x = _mm256_set1_ps(*a_row.add(kk));
            let w = b.add(kk * n + j);
            // One prefetch per 64-byte line of the tile's slice; past the
            // end of `B` it is a no-op (prefetches do not fault).
            let ahead = w.wrapping_add(ROW_TILE_PREFETCH_ROWS * n);
            for line in 0..V.div_ceil(2) {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(16 * line) as *const i8);
            }
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(w.add(8 * v)), *acc);
            }
        }
        for (v, acc) in acc.iter().enumerate() {
            _mm256_storeu_ps(o_row.add(j + 8 * v), *acc);
        }
    }
}

// --------------------------------------------------------- C = A·Bᵀ (NT)

/// `C[m,n] = A[m,k] @ B[n,k]ᵀ` without materializing the transpose: one
/// dot product per output element, k ascending. Scalar only — the one
/// caller on a hot path, the dense backward, transposes its weights and
/// runs [`gemm`] when SIMD is on.
pub fn gemm_nt_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *o = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
        }
    }
}

// --------------------------------------------------------- C = Aᵀ·B (TN)

/// Rows per block of [`gemm_tn`]: the SIMD kernel sums each block of
/// `A`/`B` rows in registers, then adds the block's sum into `C`.
pub const TN_BLOCK_ROWS: usize = 512;

/// SIMD `C[m,n] = A[r,m]ᵀ @ B[r,n]` without materializing the transpose
/// (the `dW = Xᵀ·dY` backward kernel): rank-1 updates blocked 4 deep over
/// `r` so each read-modify-write of an output row absorbs four FMAs.
/// Returns `false` (nothing written) when SIMD is unavailable or `n < 8`.
///
/// The rows are summed in blocks of [`TN_BLOCK_ROWS`], each block's sum
/// added into `C` in row order: this is [`gemm_tn_blocks`] with a block
/// end every [`TN_BLOCK_ROWS`] rows.
pub fn gemm_tn(a: &[f32], r: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) -> bool {
    gemm_tn_blocks(a, m, b, n, tn_block_ends(r), out)
}

/// The block ends [`gemm_tn`] uses for `r` rows: every
/// [`TN_BLOCK_ROWS`] rows, then `r`.
pub fn tn_block_ends(r: usize) -> impl Iterator<Item = usize> {
    (1..=r.div_ceil(TN_BLOCK_ROWS)).map(move |i| (i * TN_BLOCK_ROWS).min(r))
}

/// [`gemm_tn`] with the row blocks chosen by the caller: `ends` are the
/// blocks' exclusive ends, ascending, and the last one is the row count.
///
/// A block's sum is row-ascending and lands in `C` before the next block
/// starts, so rows whose `B` row is all zero can be left out without
/// changing a bit — as long as every remaining row stays in the block it
/// had. The kernel network's backward uses this: it walks only the job
/// rows of each window and passes every [`TN_BLOCK_ROWS`] boundary of the
/// full window stack mapped to its compact row index (`fused`'s module
/// docs). An empty block adds nothing.
pub fn gemm_tn_blocks(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl IntoIterator<Item = usize>,
    out: &mut [f32],
) -> bool {
    debug_assert!(out.len() >= m * n);
    if n < 8 || !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `simd_enabled` verified AVX2+FMA at runtime; the kernel
        // checks every block's rows against the slice lengths.
        unsafe { gemm_tn_avx2(a, m, b, n, ends.into_iter(), out) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, b, ends);
        false
    }
}

/// Scalar reference for [`gemm_tn`]: r-outer rank-1 updates with
/// zero-contribution skips — bit-identical to the pre-SIMD `matmul_tn`.
/// It has no row blocks: every output is one row-ascending chain, so it
/// also stands in for [`gemm_tn_blocks`] at any block ends.
pub fn gemm_tn_scalar(a: &[f32], r: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out[..m * n].fill(0.0);
    for row in 0..r {
        let a_row = &a[row * m..(row + 1) * m];
        let b_row = &b[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Outer-product kernel with register-resident accumulators: a 4-row ×
/// 16-column output tile (eight independent FMA chains) accumulates
/// across a whole row block before a single read-modify-write of `out`,
/// so B's column slice streams from cache and A contributes four
/// broadcasts per r; 2- and 1-row variants absorb the row remainder,
/// 8-wide and scalar tails handle ragged n. The blocks (`ends`, every
/// [`TN_BLOCK_ROWS`] rows for [`gemm_tn`]) keep the streamed slice
/// L1/L2-resident.
///
/// Each output element accumulates in its own lane, r ascending within
/// every block — so the tile geometry (4 vs 2 vs 1 rows per tile) never
/// changes a value.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available. Slice lengths are checked
/// per block: `out ≥ m*n`, and `a ≥ r1*m`, `b ≥ r1*n` for every block end
/// `r1`, which must not fall below the previous one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    assert!(out.len() >= m * n);
    let n16 = n - n % 16;
    let n8 = n - n % 8;
    let m4 = m - m % 4;
    let m2 = m - m % 2;
    out[..m * n].fill(0.0);
    // SAFETY: every row a block reads is below its end `r1`, which the
    // assert holds to both input lengths; every column is below `n` and
    // every output row below `m`, which the assert above covers.
    unsafe {
        let mut r0 = 0;
        for r1 in ends {
            assert!(
                r0 <= r1 && a.len() >= r1 * m && b.len() >= r1 * n,
                "row block {r0}..{r1} out of order or past the inputs"
            );
            if r0 == r1 {
                continue;
            }
            let mut j = 0;
            while j < n16 {
                let mut i = 0;
                while i < m4 {
                    let mut acc00 = _mm256_setzero_ps();
                    let mut acc01 = _mm256_setzero_ps();
                    let mut acc10 = _mm256_setzero_ps();
                    let mut acc11 = _mm256_setzero_ps();
                    let mut acc20 = _mm256_setzero_ps();
                    let mut acc21 = _mm256_setzero_ps();
                    let mut acc30 = _mm256_setzero_ps();
                    let mut acc31 = _mm256_setzero_ps();
                    for row in r0..r1 {
                        let bp = b.as_ptr().add(row * n + j);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(8));
                        let x0 = _mm256_set1_ps(*a.get_unchecked(row * m + i));
                        acc00 = _mm256_fmadd_ps(x0, b0, acc00);
                        acc01 = _mm256_fmadd_ps(x0, b1, acc01);
                        let x1 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 1));
                        acc10 = _mm256_fmadd_ps(x1, b0, acc10);
                        acc11 = _mm256_fmadd_ps(x1, b1, acc11);
                        let x2 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 2));
                        acc20 = _mm256_fmadd_ps(x2, b0, acc20);
                        acc21 = _mm256_fmadd_ps(x2, b1, acc21);
                        let x3 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 3));
                        acc30 = _mm256_fmadd_ps(x3, b0, acc30);
                        acc31 = _mm256_fmadd_ps(x3, b1, acc31);
                    }
                    for (di, (lo, hi)) in [
                        (acc00, acc01),
                        (acc10, acc11),
                        (acc20, acc21),
                        (acc30, acc31),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let o = out.as_mut_ptr().add((i + di) * n + j);
                        _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), lo));
                        _mm256_storeu_ps(o.add(8), _mm256_add_ps(_mm256_loadu_ps(o.add(8)), hi));
                    }
                    i += 4;
                }
                while i < m2 {
                    let mut acc00 = _mm256_setzero_ps();
                    let mut acc01 = _mm256_setzero_ps();
                    let mut acc10 = _mm256_setzero_ps();
                    let mut acc11 = _mm256_setzero_ps();
                    for row in r0..r1 {
                        let bp = b.as_ptr().add(row * n + j);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(8));
                        let x0 = _mm256_set1_ps(*a.get_unchecked(row * m + i));
                        let x1 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 1));
                        acc00 = _mm256_fmadd_ps(x0, b0, acc00);
                        acc01 = _mm256_fmadd_ps(x0, b1, acc01);
                        acc10 = _mm256_fmadd_ps(x1, b0, acc10);
                        acc11 = _mm256_fmadd_ps(x1, b1, acc11);
                    }
                    let o0 = out.as_mut_ptr().add(i * n + j);
                    let o1 = out.as_mut_ptr().add((i + 1) * n + j);
                    _mm256_storeu_ps(o0, _mm256_add_ps(_mm256_loadu_ps(o0), acc00));
                    _mm256_storeu_ps(o0.add(8), _mm256_add_ps(_mm256_loadu_ps(o0.add(8)), acc01));
                    _mm256_storeu_ps(o1, _mm256_add_ps(_mm256_loadu_ps(o1), acc10));
                    _mm256_storeu_ps(o1.add(8), _mm256_add_ps(_mm256_loadu_ps(o1.add(8)), acc11));
                    i += 2;
                }
                while i < m {
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    for row in r0..r1 {
                        let bp = b.as_ptr().add(row * n + j);
                        let x0 = _mm256_set1_ps(*a.get_unchecked(row * m + i));
                        acc0 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(bp), acc0);
                        acc1 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(bp.add(8)), acc1);
                    }
                    let o = out.as_mut_ptr().add(i * n + j);
                    _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), acc0));
                    _mm256_storeu_ps(o.add(8), _mm256_add_ps(_mm256_loadu_ps(o.add(8)), acc1));
                    i += 1;
                }
                j += 16;
            }
            while j < n8 {
                let mut i = 0;
                while i < m4 {
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    let mut acc2 = _mm256_setzero_ps();
                    let mut acc3 = _mm256_setzero_ps();
                    for row in r0..r1 {
                        let b0 = _mm256_loadu_ps(b.as_ptr().add(row * n + j));
                        let x0 = _mm256_set1_ps(*a.get_unchecked(row * m + i));
                        acc0 = _mm256_fmadd_ps(x0, b0, acc0);
                        let x1 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 1));
                        acc1 = _mm256_fmadd_ps(x1, b0, acc1);
                        let x2 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 2));
                        acc2 = _mm256_fmadd_ps(x2, b0, acc2);
                        let x3 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 3));
                        acc3 = _mm256_fmadd_ps(x3, b0, acc3);
                    }
                    for (di, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                        let o = out.as_mut_ptr().add((i + di) * n + j);
                        _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), acc));
                    }
                    i += 4;
                }
                while i < m2 {
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    for row in r0..r1 {
                        let b0 = _mm256_loadu_ps(b.as_ptr().add(row * n + j));
                        let x0 = _mm256_set1_ps(*a.get_unchecked(row * m + i));
                        let x1 = _mm256_set1_ps(*a.get_unchecked(row * m + i + 1));
                        acc0 = _mm256_fmadd_ps(x0, b0, acc0);
                        acc1 = _mm256_fmadd_ps(x1, b0, acc1);
                    }
                    let o0 = out.as_mut_ptr().add(i * n + j);
                    let o1 = out.as_mut_ptr().add((i + 1) * n + j);
                    _mm256_storeu_ps(o0, _mm256_add_ps(_mm256_loadu_ps(o0), acc0));
                    _mm256_storeu_ps(o1, _mm256_add_ps(_mm256_loadu_ps(o1), acc1));
                    i += 2;
                }
                while i < m {
                    let mut acc = _mm256_setzero_ps();
                    for row in r0..r1 {
                        acc = _mm256_fmadd_ps(
                            _mm256_set1_ps(*a.get_unchecked(row * m + i)),
                            _mm256_loadu_ps(b.as_ptr().add(row * n + j)),
                            acc,
                        );
                    }
                    let o = out.as_mut_ptr().add(i * n + j);
                    _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), acc));
                    i += 1;
                }
                j += 8;
            }
            for jj in n8..n {
                for i in 0..m {
                    let mut s = 0.0f32;
                    for row in r0..r1 {
                        s += a[row * m + i] * b[row * n + jj];
                    }
                    out[i * n + jj] += s;
                }
            }
            r0 = r1;
        }
    }
}

/// Transpose a `[rows, cols]` row-major matrix into `dst` as
/// `[cols, rows]`: the dense backward's `dX = dY·Wᵀ` runs [`gemm`] over
/// the transposed weights.
pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert!(src.len() >= rows * cols, "transpose source volume");
    debug_assert!(dst.len() >= rows * cols, "transpose destination volume");
    for i in 0..rows {
        for j in 0..cols {
            dst[j * rows + i] = src[i * cols + j];
        }
    }
}

// ------------------------------------------------- shared dense forward

/// Portable dense-layer kernel: bias-seeded rows, k ascending — the
/// original accumulation order, kept as the scalar arm of [`dense_any`].
pub fn dense_portable(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    for i in 0..rows {
        let x_row = &x[i * in_dim..(i + 1) * in_dim];
        let o_row = &mut out[i * out_dim..(i + 1) * out_dim];
        o_row.copy_from_slice(b);
        for (k, &xa) in x_row.iter().enumerate() {
            let w_row = &w[k * out_dim..(k + 1) * out_dim];
            for (o, &wv) in o_row.iter_mut().zip(w_row) {
                *o += xa * wv;
            }
        }
    }
}

/// The one dense forward every caller runs (through
/// `infer::dense_forward`: the fast path, the fused training pass and the
/// reference tape alike), so they compute bit-identical values on
/// whichever dispatch arm is active:
/// `out = x @ w + b` (no activation), `x` `[rows, in]`, `w` `[in, out]`.
///
/// `out_dim == 1` heads take a scalar-dot specialization (same
/// accumulation order as [`dense_portable`], vectorizable over k without
/// strided weight access).
pub fn dense_any(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    debug_assert!(x.len() >= rows * in_dim, "input volume");
    debug_assert_eq!(w.len(), in_dim * out_dim, "weight volume");
    debug_assert_eq!(b.len(), out_dim, "bias length");
    debug_assert!(out.len() >= rows * out_dim, "output volume");
    if out_dim == 1 {
        for i in 0..rows {
            let x_row = &x[i * in_dim..(i + 1) * in_dim];
            let mut acc = b[0];
            for (&xa, &wv) in x_row.iter().zip(w) {
                acc += xa * wv;
            }
            out[i] = acc;
        }
    } else if !gemm(x, rows, in_dim, w, out_dim, Some(b), out) {
        dense_portable(x, rows, w, b, in_dim, out_dim, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_scalar_on_ragged_shapes() {
        // The wide shapes reach every one-row tile (64, 32, 16 and 8
        // columns) and the 4-row blocks next to them.
        for &(m, k, n) in &[
            (1, 3, 9),
            (4, 8, 8),
            (5, 7, 11),
            (9, 16, 24),
            (2, 1, 8),
            (6, 17, 32),
            (2, 33, 40),
            (3, 9, 64),
            (7, 64, 72),
            (5, 131, 100),
            (1, 896, 128),
            (1, 900, 136),
        ] {
            let a = filled(m * k, |i| (i as f32 * 0.37).sin());
            let b = filled(k * n, |i| (i as f32 * 0.21).cos());
            let mut simd = vec![f32::NAN; m * n];
            let mut scalar = vec![f32::NAN; m * n];
            gemm_scalar(&a, m, k, &b, n, &mut scalar);
            if gemm(&a, m, k, &b, n, None, &mut simd) {
                assert_close(&simd, &scalar);
            }
        }
    }

    #[test]
    fn gemm_bias_seed_matches_portable() {
        let (m, k, n) = (6, 5, 13);
        let a = filled(m * k, |i| (i as f32 * 0.11).sin());
        let w = filled(k * n, |i| (i as f32 * 0.07).cos());
        let b = filled(n, |i| i as f32 * 0.01 - 0.05);
        let mut simd = vec![f32::NAN; m * n];
        let mut portable = vec![f32::NAN; m * n];
        dense_portable(&a, m, &w, &b, k, n, &mut portable);
        if gemm(&a, m, k, &w, n, Some(&b), &mut simd) {
            assert_close(&simd, &portable);
        }
    }

    #[test]
    fn gemm_tn_matches_scalar() {
        for &(r, m, n) in &[(4, 3, 8), (5, 7, 11), (16, 2, 32), (3, 1, 9)] {
            let a = filled(r * m, |i| (i as f32 * 0.23).sin());
            let b = filled(r * n, |i| (i as f32 * 0.31).cos());
            let mut simd = vec![f32::NAN; m * n];
            let mut scalar = vec![f32::NAN; m * n];
            gemm_tn_scalar(&a, r, m, &b, n, &mut scalar);
            if gemm_tn(&a, r, m, &b, n, &mut simd) {
                assert_close(&simd, &scalar);
            }
        }
    }

    #[test]
    fn forward_kernels_are_row_count_invariant() {
        // Each output row must be bit-identical whether it is computed
        // alone (m = 1) or inside a larger batch — on whichever dispatch
        // arm is active. VecEnv's batched≡sequential rollout parity rests
        // on this. Shapes cover full 4-row blocks, row tails (m % 4 ≠ 0),
        // ragged column tails (n % 8 ≠ 0), and widths that reach the
        // one-row remainder's 64- and 32-column tiles (a one-row product
        // runs only those tiles; rows of a 4-row block run the 16/8-wide
        // block tiles), over inner dimensions up to a flat MLP's 896.
        let narrow = [(4, 6, 8), (5, 7, 11), (9, 16, 24), (3, 32, 9), (6, 5, 16)];
        let wide = [32, 40, 64, 72, 100, 128, 136]
            .into_iter()
            .flat_map(|n| (1..=7).flat_map(move |m| [1, 9, 131, 900].map(|k| (m, k, n))));
        for (m, k, n) in narrow.into_iter().chain(wide) {
            let a = filled(m * k, |i| (i as f32 * 0.29).sin());
            let w = filled(k * n, |i| (i as f32 * 0.17).cos());
            let b = filled(n, |i| i as f32 * 0.03 - 0.1);

            let mut batched = vec![f32::NAN; m * n];
            dense_any(&a, m, &w, &b, k, n, &mut batched);
            let mut single = vec![f32::NAN; n];
            for i in 0..m {
                dense_any(&a[i * k..(i + 1) * k], 1, &w, &b, k, n, &mut single);
                assert_eq!(
                    &batched[i * n..(i + 1) * n],
                    single.as_slice(),
                    "dense_any row {i} of ({m},{k},{n}) depends on batch size"
                );
            }
        }
    }

    #[test]
    fn small_widths_fall_back() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = [0.0f32; 1];
        assert!(
            !gemm(&a, 1, 2, &b, 1, None, &mut out),
            "n=1 must not dispatch"
        );
    }
}
