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
//!   `*_scalar` reference kernel. [`gemm`] needs at least 8 output
//!   columns to fill a vector lane; the TN kernels ([`gemm_tn`],
//!   [`gemm_tn_blocks`]) take at least 8 or exactly one (a scalar head's
//!   `dW`, whose `m` outputs fill the lanes instead). Ragged shapes are
//!   handled with scalar column/row tails inside the SIMD kernels.
//! * Every tile keeps eight FMA chains in flight where the shape has
//!   them. [`gemm`] runs 4-row × 16-column blocks, and an output of 8–15
//!   columns (one 8-wide tile) runs 8-row blocks first; the TN kernel
//!   sums eight `A` columns per group under 16 columns (four at 16 or
//!   more, where a group has two 8-wide tiles). The ragged kernels keep
//!   their [`RAGGED_BLOCK`]-row (and -input) blocks: a row holds zeros
//!   only up to its block's reach.
//! * [`dense_any`] computes `act(x @ w + b)`. With SIMD on, ReLU and
//!   Identity are applied in the register before each store; Tanh and
//!   Sigmoid, and every activation on the scalar arm, are a pass over the
//!   output afterwards ([`Activation::apply_slice`]). Its one-column head runs
//!   eight rows per vector, each lane the scalar chain.
//! * [`dense_ragged`] and [`gemm_tn_ragged`] pick their arm themselves:
//!   they read each row only up to its extent, with the bits
//!   [`dense_any`] and [`gemm_tn_blocks`] (or the scalar kernel it falls
//!   back to) give the zero-padded rows.
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
//! zero-valued contributions (so `0 × inf` drops out) while the blocked
//! SIMD kernels compute them (`0 × inf → NaN`) — a diverged model with
//! non-finite weights can therefore NaN on one arm and not the other.
//! The one-column TN arm skips a zero `a` exactly like
//! [`gemm_tn_scalar`], and the ragged kernels skip the padding terms on
//! both arms, so a non-finite weight or gradient that only padding
//! would multiply no longer reaches an output on either arm
//! (`tests/exact_kernels_prop.rs` holds these kernels to `==`).
//!
//! Two SIMD paths keep the scalar arm's bits exactly. [`dense_any`]'s
//! one-column head multiplies, then adds, in every lane — never an FMA —
//! so it is [`dense_portable`]'s chain on both arms. ReLU at the store is
//! `_mm256_max_ps(acc, 0)` with the accumulator first: `maxps` returns
//! its second operand when either is NaN or both are zero, so a NaN or
//! −0 accumulator stores +0, which is what [`relu`] (the select
//! [`Activation::apply_slice`] runs) gives them; every other value is
//! unchanged. The fused store therefore has the bits of the plain kernel
//! followed by the separate pass, on every input and in every build.
//!
//! # Row-count invariance
//!
//! The *forward* kernels ([`gemm`], [`dense_any`]) guarantee
//! a stronger property on both arms: each output **row** is computed with
//! an accumulation order that does not depend on how many rows are in the
//! batch (an 8-row block, a 4-row block and a one-row tile run the same
//! per-lane chain). Row `i` of an `m`-row product is bit-identical to the single
//! row of the `m == 1` product over the same inputs. This is what lets
//! the vectorized rollout path (`rlsched-rl`'s `VecEnv`) score every live
//! environment through one stacked matmul and still produce trajectories
//! bit-identical to sequential per-env stepping — the batched≡sequential
//! parity tests lean on it, so treat it as part of the kernel contract.

use std::sync::OnceLock;

use crate::layers::{relu, Activation};

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
    gemm_act(a, m, k, b, n, bias, false, out)
}

/// [`gemm`], with ReLU applied to each output in the register before
/// its store when `relu` is set ([`gemm_avx2`]).
#[allow(clippy::too_many_arguments)] // gemm's operands + the store's activation
fn gemm_act(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) -> bool {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    if n < 8 || !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `simd_enabled` verified AVX2+FMA; `gemm_avx2` checks the
        // slice lengths against the dims.
        unsafe {
            if relu {
                gemm_avx2::<true, _>(a, k, b, n, bias, out, AllRows(m))
            } else {
                gemm_avx2::<false, _>(a, k, b, n, bias, out, AllRows(m))
            }
        };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = relu;
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

/// The rows a [`gemm_avx2`] call computes, and how far each one's chain
/// runs. A type per plan, so the dense kernel compiles to its own loop.
trait RowPlan: Copy {
    /// Whether outputs narrower than 16 columns run in blocks of eight
    /// rows (eight FMA chains on their one 8-wide tile) ahead of the
    /// four-row blocks. Only [`AllRows`]: a [`RaggedRows`] block reaches
    /// as far as its widest row, and its rows hold zeros only up to the
    /// reach of their [`RAGGED_BLOCK`]-row block.
    const EIGHT_ROW_BLOCKS: bool;
    /// How many rows are computed.
    fn len(self) -> usize;
    /// How many rows `a` and `out` hold.
    fn stored(self) -> usize;
    /// The `R` rows at positions `p..p + R` and how many of the `k`
    /// inputs their chains run over.
    fn block<const R: usize>(self, p: usize, k: usize) -> ([usize; R], usize);
}

/// Rows `0..m`, in order, each over all `k` inputs.
#[derive(Debug, Clone, Copy)]
struct AllRows(usize);

impl RowPlan for AllRows {
    const EIGHT_ROW_BLOCKS: bool = true;
    #[inline(always)]
    fn len(self) -> usize {
        self.0
    }
    #[inline(always)]
    fn stored(self) -> usize {
        self.0
    }
    #[inline(always)]
    fn block<const R: usize>(self, p: usize, k: usize) -> ([usize; R], usize) {
        (std::array::from_fn(|d| p + d), k)
    }
}

/// Rows blocked in `order` ([`RAGGED_BLOCK`] positions per block), each
/// block run to its reach ([`ragged_reaches`]).
#[derive(Debug, Clone, Copy)]
struct RaggedRows<'a> {
    order: &'a [u32],
    ext: &'a [usize],
}

impl RowPlan for RaggedRows<'_> {
    const EIGHT_ROW_BLOCKS: bool = false;
    #[inline(always)]
    fn len(self) -> usize {
        self.order.len()
    }
    #[inline(always)]
    fn stored(self) -> usize {
        self.ext.len()
    }
    #[inline(always)]
    fn block<const R: usize>(self, p: usize, k: usize) -> ([usize; R], usize) {
        let rows = &self.order[p..p + R];
        let reach = ragged_reach(rows, self.ext, k);
        (std::array::from_fn(|d| rows[d] as usize), reach)
    }
}

/// Register-blocked AVX2/FMA kernel: 4 rows × 16 columns per block (eight
/// independent FMA chains — enough to cover FMA latency at two issues per
/// cycle), stepping down to 4×8, then a 1-row remainder (64-, 32-, 16-
/// and 8-wide tiles: one input row keeps eight chains busy only across
/// 64 columns), then a scalar column tail. An output narrower than 16
/// columns has one 8-wide tile, so [`AllRows`] runs it in 8-row blocks
/// first (eight chains, where a 4-row block has four).
///
/// Every output element is accumulated by its own k-ascending FMA chain
/// in its own vector lane, so the tile geometry never changes a value:
/// each row is bit-identical whether it was computed in a full block or
/// as a tail (the row-count-invariance contract of the module docs), and
/// widening the tiles is invisible to every parity test. A chain stops
/// where `rows` says its inputs end ([`dense_ragged`]).
///
/// With `RELU` every tile stores `max(acc, 0)` ([`activate`]); the scalar
/// column tail runs [`relu`], the same select.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and slice lengths cover the
/// dims (`a ≥ rows*k`, `b ≥ k*n`, `out ≥ rows*n`, `bias ≥ n` when given),
/// and for [`RaggedRows`] that every entry of `order` is below
/// `ext.len()` and no extent is above `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2<const RELU: bool, P: RowPlan>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
) {
    use std::arch::x86_64::*;
    let (m, stored) = (rows.len(), rows.stored());
    assert!(a.len() >= stored * k && b.len() >= k * n && out.len() >= stored * n);
    if let Some(bv) = bias {
        assert!(bv.len() >= n);
    }
    let n16 = n - n % 16;
    let n8 = n - n % 8;
    // SAFETY: every row `rows` names is below `stored` and runs over at
    // most `k` inputs (the caller's contract for ragged rows), so every
    // read of `a` and write of `out` is inside the lengths asserted
    // above; every column is below `n`.
    unsafe {
        let seed = |j: usize| -> __m256 {
            match bias {
                Some(bv) => _mm256_loadu_ps(bv.as_ptr().add(j)),
                None => _mm256_setzero_ps(),
            }
        };
        let store = |o: *mut f32, acc: __m256| _mm256_storeu_ps(o, activate::<RELU>(acc));
        let mut p = 0;
        if P::EIGHT_ROW_BLOCKS && n16 == 0 && n8 == 8 {
            while p + 8 <= m {
                let (r, reach) = rows.block::<8>(p, k);
                let x = r.map(|r| a.as_ptr().add(r * k));
                let mut acc = [seed(0); 8];
                for kk in 0..reach {
                    let w = _mm256_loadu_ps(b.as_ptr().add(kk * n));
                    for (acc, x) in acc.iter_mut().zip(x) {
                        *acc = _mm256_fmadd_ps(_mm256_set1_ps(*x.add(kk)), w, *acc);
                    }
                }
                for (acc, r) in acc.into_iter().zip(r) {
                    store(out.as_mut_ptr().add(r * n), acc);
                }
                p += 8;
            }
        }
        while p + 4 <= m {
            let (r, reach) = rows.block::<4>(p, k);
            let [x0p, x1p, x2p, x3p] = r.map(|r| a.as_ptr().add(r * k));
            let [o0p, o1p, o2p, o3p] = r.map(|r| out.as_mut_ptr().add(r * n));
            let mut j = 0;
            while j < n16 {
                let s0 = seed(j);
                let s1 = seed(j + 8);
                let (mut a00, mut a01) = (s0, s1);
                let (mut a10, mut a11) = (s0, s1);
                let (mut a20, mut a21) = (s0, s1);
                let (mut a30, mut a31) = (s0, s1);
                for kk in 0..reach {
                    let w0 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    let w1 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j + 8));
                    let x0 = _mm256_set1_ps(*x0p.add(kk));
                    a00 = _mm256_fmadd_ps(x0, w0, a00);
                    a01 = _mm256_fmadd_ps(x0, w1, a01);
                    let x1 = _mm256_set1_ps(*x1p.add(kk));
                    a10 = _mm256_fmadd_ps(x1, w0, a10);
                    a11 = _mm256_fmadd_ps(x1, w1, a11);
                    let x2 = _mm256_set1_ps(*x2p.add(kk));
                    a20 = _mm256_fmadd_ps(x2, w0, a20);
                    a21 = _mm256_fmadd_ps(x2, w1, a21);
                    let x3 = _mm256_set1_ps(*x3p.add(kk));
                    a30 = _mm256_fmadd_ps(x3, w0, a30);
                    a31 = _mm256_fmadd_ps(x3, w1, a31);
                }
                store(o0p.add(j), a00);
                store(o0p.add(j + 8), a01);
                store(o1p.add(j), a10);
                store(o1p.add(j + 8), a11);
                store(o2p.add(j), a20);
                store(o2p.add(j + 8), a21);
                store(o3p.add(j), a30);
                store(o3p.add(j + 8), a31);
                j += 16;
            }
            while j < n8 {
                let s = seed(j);
                let (mut a0, mut a1, mut a2, mut a3) = (s, s, s, s);
                for kk in 0..reach {
                    let wr = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    a0 = _mm256_fmadd_ps(_mm256_set1_ps(*x0p.add(kk)), wr, a0);
                    a1 = _mm256_fmadd_ps(_mm256_set1_ps(*x1p.add(kk)), wr, a1);
                    a2 = _mm256_fmadd_ps(_mm256_set1_ps(*x2p.add(kk)), wr, a2);
                    a3 = _mm256_fmadd_ps(_mm256_set1_ps(*x3p.add(kk)), wr, a3);
                }
                store(o0p.add(j), a0);
                store(o1p.add(j), a1);
                store(o2p.add(j), a2);
                store(o3p.add(j), a3);
                j += 8;
            }
            p += 4;
        }
        // Row remainder: 64-, 32-, 16- then 8-wide tiles with the same
        // per-lane k-ascending FMA chain as the blocks above (row-count
        // invariance).
        while p < m {
            let ([r], reach) = rows.block::<1>(p, k);
            let (a_row, o_row) = (a.as_ptr().add(r * k), out.as_mut_ptr().add(r * n));
            let mut j = 0;
            while j + 64 <= n {
                row_tile::<8, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 64;
            }
            while j + 32 <= n {
                row_tile::<4, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 32;
            }
            while j + 16 <= n {
                row_tile::<2, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 16;
            }
            while j + 8 <= n {
                row_tile::<1, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 8;
            }
            p += 1;
        }
        // Column tail: plain bias-seeded dots (per row, k ascending).
        if n8 < n {
            for p in 0..m {
                let ([r], reach) = rows.block::<1>(p, k);
                for j in n8..n {
                    let mut acc = bias.map_or(0.0, |bv| bv[j]);
                    for kk in 0..reach {
                        acc += a[r * k + kk] * b[kk * n + j];
                    }
                    out[r * n + j] = if RELU { relu(acc) } else { acc };
                }
            }
        }
    }
}

/// The value a tile stores for `acc`: `max(acc, 0)` with `RELU`, with the
/// accumulator as the first operand, so a NaN or −0 accumulator stores
/// +0 (`maxps` returns its second operand then), as [`relu`] does; `acc`
/// itself otherwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn activate<const RELU: bool>(acc: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if RELU {
        _mm256_max_ps(acc, _mm256_setzero_ps())
    } else {
        acc
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
/// With `RELU` each accumulator stores `max(acc, 0)` ([`activate`]).
///
/// # Safety
/// AVX2+FMA must be available; `a_row` must hold `k` values, `b` `k * n`,
/// `o_row` `n`, `bias` (when given) `n`, and `j + 8 * V <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn row_tile<const V: usize, const RELU: bool>(
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
        for (v, acc) in acc.into_iter().enumerate() {
            _mm256_storeu_ps(o_row.add(j + 8 * v), activate::<RELU>(acc));
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
/// (the `dW = Xᵀ·dY` backward kernel): each output tile accumulates in
/// registers over a whole row block, then is added into `C` once.
/// Returns `false` (nothing written) when SIMD is unavailable or
/// `1 < n < 8`.
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
///
/// One output column (`n == 1`, a scalar head's `dW`) takes its own arm:
/// the `m` outputs sit in vector lanes and each lane runs
/// [`gemm_tn_scalar`]'s chain — rows ascending, multiply then add, a zero
/// `a` skipped — so it has no row blocks and ignores `ends` except for
/// the row count, and its bits are [`gemm_tn_scalar`]'s for every input.
pub fn gemm_tn_blocks(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl IntoIterator<Item = usize>,
    out: &mut [f32],
) -> bool {
    debug_assert!(out.len() >= m * n);
    if (n < 8 && n != 1) || !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `simd_enabled` verified AVX2+FMA at runtime; the kernels
        // check the rows they read against the slice lengths.
        if n == 1 {
            let r = ends.into_iter().last().unwrap_or(0);
            unsafe { gemm_tn_col_avx2(a, r, m, b, out) };
        } else {
            unsafe { gemm_tn_avx2(a, m, b, n, ends.into_iter(), None, out) };
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, b, ends);
        false
    }
}

/// [`gemm_tn_blocks`] over rows whose `A` row is zero past `ext[row]`
/// inputs, on whichever arm is active; the row count is `ext.len()`.
///
/// For each group of four inputs (then two, then one, at a ragged `m`)
/// the SIMD arm sums only the rows whose extent reaches the group:
/// `active` starts each block as its rows and is compacted, in place and
/// in row order, as the group index rises, so every sum stays row
/// ascending inside its block. A left-out row's terms are `+0 · dC`, and
/// a TN sum starts at +0 and never becomes −0 (round-to-nearest adds two
/// values to −0 only when both are −0), so leaving them out changes no
/// bit for finite `B` — the lemma in `fused`'s module docs. The scalar
/// arm skips zero `a` anyway, so it stops each row at its extent with
/// [`gemm_tn_scalar`]'s bits.
///
/// `A` must hold zeros from `ext[row]` up to `ext[row]` rounded up to a
/// multiple of [`RAGGED_BLOCK`] (at most `m`): a group reads all of its
/// inputs.
#[allow(clippy::too_many_arguments)] // gemm_tn_blocks' operands + extents and their scratch
pub fn gemm_tn_ragged(
    a: &[f32],
    m: usize,
    ext: &[usize],
    b: &[f32],
    n: usize,
    ends: impl IntoIterator<Item = usize>,
    active: &mut Vec<u32>,
    out: &mut [f32],
) {
    assert!(
        ext.iter().all(|&e| e <= m),
        "a row extends past the {m} inputs"
    );
    if n >= 8 && simd_enabled() {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: as in `gemm_tn_blocks`; the extents were checked
            // against `m` above.
            unsafe { gemm_tn_avx2(a, m, b, n, ends.into_iter(), Some((ext, active)), out) };
            return;
        }
    }
    tn_scalar(a, ext.len(), m, b, n, |row| ext[row], out);
}

/// Scalar reference for [`gemm_tn`]: r-outer rank-1 updates with
/// zero-contribution skips — bit-identical to the pre-SIMD `matmul_tn`.
/// It has no row blocks: every output is one row-ascending chain, so it
/// also stands in for [`gemm_tn_blocks`] at any block ends.
pub fn gemm_tn_scalar(a: &[f32], r: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    tn_scalar(a, r, m, b, n, |_| m, out);
}

/// [`gemm_tn_scalar`] reading row `row` of `A` only up to `ext(row)`.
fn tn_scalar(
    a: &[f32],
    r: usize,
    m: usize,
    b: &[f32],
    n: usize,
    ext: impl Fn(usize) -> usize,
    out: &mut [f32],
) {
    out[..m * n].fill(0.0);
    for row in 0..r {
        let a_row = &a[row * m..row * m + ext(row)];
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

/// The one-column arm of [`gemm_tn_blocks`]: `out[i] = Σ_row a[row, i] ·
/// b[row]` over `r` rows, eight outputs per vector, each lane the
/// [`gemm_tn_scalar`] chain (multiply, then add; the add is blended away
/// where `a` is ±0, which is the scalar loop's skip).
///
/// # Safety
/// AVX2 must be available. Slice lengths are checked: `a ≥ r*m`,
/// `b ≥ r`, `out ≥ m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_col_avx2(a: &[f32], r: usize, m: usize, b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    assert!(a.len() >= r * m && b.len() >= r && out.len() >= m);
    let m8 = m - m % 8;
    // SAFETY: every row read is below `r` and every lane below `m8 ≤ m`,
    // which the assert holds to the slice lengths.
    unsafe {
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i < m8 {
            let mut acc = zero;
            for (row, &bv) in b[..r].iter().enumerate() {
                let av = _mm256_loadu_ps(a.as_ptr().add(row * m + i));
                let sum = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_set1_ps(bv)));
                let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero);
                acc = _mm256_blendv_ps(acc, sum, keep);
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i), acc);
            i += 8;
        }
    }
    for (i, o) in out.iter_mut().enumerate().take(m).skip(m8) {
        let mut s = 0.0f32;
        for (row, &bv) in b[..r].iter().enumerate() {
            let av = a[row * m + i];
            if av != 0.0 {
                s += av * bv;
            }
        }
        *o = s;
    }
}

/// Outer-product kernel with register-resident accumulators: each group
/// of four `A` columns (then two, then one) runs [`tn_rows`] over a
/// block's rows — a 4-row × 16-column output tile is eight independent
/// FMA chains that accumulate across the whole row block before a single
/// read-modify-write of `out`, so B's column slice streams from cache and
/// A contributes four broadcasts per r. Under 16 columns the one 8-wide
/// tile would hold only four chains, so without `ragged` the groups are
/// eight `A` columns wide there (8 × 8: eight chains). The blocks
/// (`ends`, every [`TN_BLOCK_ROWS`] rows for [`gemm_tn`]) keep the
/// streamed slice L1/L2-resident. With `ragged` (extents and an active-row scratch,
/// [`gemm_tn_ragged`]) each group sums only the rows that reach it.
///
/// Each output element accumulates in its own lane, r ascending within
/// every block — so the tile geometry (8, 4, 2 or 1 rows per tile) never
/// changes a value.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, and with `ragged` that no
/// extent exceeds `m`. Slice lengths are checked per block: `out ≥ m*n`,
/// and `a ≥ r1*m`, `b ≥ r1*n` (and `ext ≥ r1`) for every block end `r1`,
/// which must not fall below the previous one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    mut ragged: Option<(&[usize], &mut Vec<u32>)>,
    out: &mut [f32],
) {
    assert!(out.len() >= m * n);
    out[..m * n].fill(0.0);
    // One 8-wide column tile: eight `A` columns give it eight chains.
    // Ragged groups keep their RAGGED_BLOCK inputs (`gemm_tn_ragged`).
    let eight = ragged.is_none() && n < 16;
    let mut r0 = 0;
    for r1 in ends {
        assert!(
            r0 <= r1 && a.len() >= r1 * m && b.len() >= r1 * n,
            "row block {r0}..{r1} out of order or past the inputs"
        );
        if let Some((ext, active)) = &mut ragged {
            assert!(ext.len() >= r1, "row block {r0}..{r1} past the extents");
            active.clear();
            active.extend(r0 as u32..r1 as u32);
        }
        let mut i = 0;
        while i < m && r0 < r1 {
            let step = if eight && i + 8 <= m {
                8
            } else if i + 4 <= m {
                4
            } else {
                1 + usize::from(i + 2 <= m)
            };
            // SAFETY: every row below is below `r1`, checked above against
            // both inputs; a group's columns are below `m`.
            unsafe {
                match &mut ragged {
                    None => tn_group(step, a, m, b, n, i, r0..r1, out),
                    Some((ext, active)) => {
                        active.retain(|&row| ext[row as usize] > i);
                        if active.is_empty() {
                            break;
                        }
                        let rows = active.iter().map(|&row| row as usize);
                        tn_group(step, a, m, b, n, i, rows, out);
                    }
                }
            }
            i += step;
        }
        r0 = r1;
    }
}

/// [`tn_rows`] for a group of `step` (8, 4, 2 or 1) `A` columns.
///
/// # Safety
/// As [`tn_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // tn_rows' operands + the group width
unsafe fn tn_group(
    step: usize,
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    i: usize,
    rows: impl Iterator<Item = usize> + Clone,
    out: &mut [f32],
) {
    // SAFETY: forwarded from the caller.
    unsafe {
        match step {
            8 => tn_rows::<8>(a, m, b, n, i, rows, out),
            4 => tn_rows::<4>(a, m, b, n, i, rows, out),
            2 => tn_rows::<2>(a, m, b, n, i, rows, out),
            _ => tn_rows::<1>(a, m, b, n, i, rows, out),
        }
    }
}

/// Add `Σ_row A[row, i + d] · B[row, j]` over `rows`, in their order,
/// into `out[i + d, j]` for `d < R` and every column: 16-wide tiles (two
/// FMA chains per `A` column), then 8-wide, then a scalar column tail of
/// plain multiply-adds.
///
/// # Safety
/// AVX2+FMA must be available; every row in `rows` must have its `A` row
/// (`m` wide) in `a` and its `B` row (`n` wide) in `b`, `i + R ≤ m`, and
/// `out` must hold `m * n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tn_rows<const R: usize>(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    i: usize,
    rows: impl Iterator<Item = usize> + Clone,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller's contract covers every row, column and output.
    unsafe {
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for row in rows.clone() {
                let bp = b.as_ptr().add(row * n + j);
                let (b0, b1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)));
                let ap = a.as_ptr().add(row * m + i);
                for (d, acc) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*ap.add(d));
                    acc[0] = _mm256_fmadd_ps(x, b0, acc[0]);
                    acc[1] = _mm256_fmadd_ps(x, b1, acc[1]);
                }
            }
            for (d, acc) in acc.iter().enumerate() {
                let o = out.as_mut_ptr().add((i + d) * n + j);
                _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), acc[0]));
                _mm256_storeu_ps(o.add(8), _mm256_add_ps(_mm256_loadu_ps(o.add(8)), acc[1]));
            }
            j += 16;
        }
        while j + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); R];
            for row in rows.clone() {
                let b0 = _mm256_loadu_ps(b.as_ptr().add(row * n + j));
                let ap = a.as_ptr().add(row * m + i);
                for (d, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(d)), b0, *acc);
                }
            }
            for (d, acc) in acc.iter().enumerate() {
                let o = out.as_mut_ptr().add((i + d) * n + j);
                _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), *acc));
            }
            j += 8;
        }
        for jj in j..n {
            for d in 0..R {
                let mut s = 0.0f32;
                for row in rows.clone() {
                    s += *a.get_unchecked(row * m + i + d) * *b.get_unchecked(row * n + jj);
                }
                *out.get_unchecked_mut((i + d) * n + jj) += s;
            }
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
/// `out = act(x @ w + b)`, `x` `[rows, in]`, `w` `[in, out]`.
///
/// With SIMD on, [`Activation::Relu`] and [`Activation::Identity`] are applied in the
/// register before each store (the bits of [`Activation::apply_slice`] after
/// the plain kernel: `max` maps −0 and NaN to +0 either way); Tanh and
/// Sigmoid, and every activation on the scalar arm, run
/// [`Activation::apply_slice`] over the output afterwards.
///
/// `out_dim == 1` heads (the kernel network's 8→1 and every critic's)
/// run [`dense_portable`]'s chain — start at the bias, multiply, then
/// add, `k` ascending — on both arms; with SIMD on, eight rows run it at
/// once, one per vector lane.
#[allow(clippy::too_many_arguments)] // dense_portable's operands + the activation
pub fn dense_any(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    out: &mut [f32],
) {
    debug_assert!(x.len() >= rows * in_dim, "input volume");
    debug_assert_eq!(w.len(), in_dim * out_dim, "weight volume");
    debug_assert_eq!(b.len(), out_dim, "bias length");
    debug_assert!(out.len() >= rows * out_dim, "output volume");
    let relu = act == Activation::Relu;
    let fused = if out_dim == 1 {
        head_lanes(x, rows, w, b[0], in_dim, relu, out)
    } else {
        gemm_act(x, rows, in_dim, w, out_dim, Some(b), relu, out)
    };
    if !fused {
        dense_portable(x, rows, w, b, in_dim, out_dim, out);
    }
    if !(fused && relu) {
        act.apply_slice(&mut out[..rows * out_dim]);
    }
}

/// The SIMD arm of [`dense_any`]'s one-column head: `out[i] = b +
/// Σ_k x[i, k] · w[k]` as [`dense_portable`]'s chain (multiply, then add;
/// never an FMA), eight rows per vector and the row remainder in scalar.
/// Returns `false` (nothing written) when SIMD is unavailable.
fn head_lanes(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: f32,
    in_dim: usize,
    relu: bool,
    out: &mut [f32],
) -> bool {
    if !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `simd_enabled` verified AVX2; the kernel checks the
        // slice lengths against the dims.
        unsafe {
            if relu {
                head_lanes_avx2::<true>(x, rows, w, b, in_dim, out)
            } else {
                head_lanes_avx2::<false>(x, rows, w, b, in_dim, out)
            }
        };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (x, rows, w, b, in_dim, relu, out);
        false
    }
}

/// [`head_lanes`]' kernel. Each block of eight rows loads its inputs
/// eight columns at a time (the last group masked, so nothing past
/// `in_dim` is read), transposes the 8×8 tile so that lane `d` holds row
/// `d`, and runs the chain in every lane at once. Each lane's bits are
/// the scalar chain's, so a row's value does not depend on whether a
/// block or the scalar remainder computed it. With `RELU` every output
/// stores `max(acc, 0)` ([`activate`]). FMA is not enabled here: the
/// chain rounds its product before the add.
///
/// # Safety
/// AVX2 must be available. Slice lengths are checked: `x ≥ rows*in_dim`,
/// `w ≥ in_dim`, `out ≥ rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn head_lanes_avx2<const RELU: bool>(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: f32,
    in_dim: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    assert!(x.len() >= rows * in_dim && w.len() >= in_dim && out.len() >= rows);
    let rows8 = rows - rows % 8;
    // SAFETY: a block's rows are below `rows8 ≤ rows`, and a group loads
    // only its columns below `in_dim` (the mask leaves the others
    // unread), so every read is inside `x`; the outputs are below `rows`.
    unsafe {
        let chain = |acc: __m256, col: __m256, w: *const f32| {
            _mm256_add_ps(acc, _mm256_mul_ps(col, _mm256_set1_ps(*w)))
        };
        let (full, cols) = (in_dim - in_dim % 8, in_dim % 8);
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(cols as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut i = 0;
        while i < rows8 {
            let xp = x.as_ptr().add(i * in_dim);
            let mut acc = _mm256_set1_ps(b);
            let mut kk = 0;
            while kk < full {
                let col = transpose8(std::array::from_fn(|d| {
                    _mm256_loadu_ps(xp.add(d * in_dim + kk))
                }));
                for (c, col) in col.into_iter().enumerate() {
                    acc = chain(acc, col, w.as_ptr().add(kk + c));
                }
                kk += 8;
            }
            if cols > 0 {
                let col = transpose8(std::array::from_fn(|d| {
                    _mm256_maskload_ps(xp.add(d * in_dim + kk), mask)
                }));
                for (c, col) in col.into_iter().enumerate().take(cols) {
                    acc = chain(acc, col, w.as_ptr().add(kk + c));
                }
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i), activate::<RELU>(acc));
            i += 8;
        }
    }
    for (i, o) in out.iter_mut().enumerate().take(rows).skip(rows8) {
        let mut acc = b;
        for (&xa, &wv) in x[i * in_dim..(i + 1) * in_dim].iter().zip(w) {
            acc += xa * wv;
        }
        *o = if RELU { relu(acc) } else { acc };
    }
}

/// Transpose an 8×8 tile held as eight row vectors: lane `d` of output
/// `c` is lane `c` of input `d`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let t: [__m256; 8] = std::array::from_fn(|p| {
        let (lo, hi) = (r[p / 2 * 2], r[p / 2 * 2 + 1]);
        if p % 2 == 0 {
            _mm256_unpacklo_ps(lo, hi)
        } else {
            _mm256_unpackhi_ps(lo, hi)
        }
    });
    // u[4h + q]: lanes of column q (and q + 4) from rows 4h..4h + 4.
    let u: [__m256; 8] = std::array::from_fn(|p| {
        let (h, q) = (p / 4, p % 4);
        let (lo, hi) = (t[4 * h + q / 2], t[4 * h + q / 2 + 2]);
        if q % 2 == 0 {
            _mm256_shuffle_ps::<0x44>(lo, hi)
        } else {
            _mm256_shuffle_ps::<0xEE>(lo, hi)
        }
    });
    std::array::from_fn(|c| {
        if c < 4 {
            _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c])
        } else {
            _mm256_permute2f128_ps::<0x31>(u[c - 4], u[c])
        }
    })
}

/// Rows per block of [`dense_ragged`]'s SIMD arm, and the multiple its
/// blocks' reaches are rounded up to (a [`gemm_tn_ragged`] input group).
pub const RAGGED_BLOCK: usize = 4;

/// How far the chains of a block of `rows` run: their widest extent,
/// rounded up to a multiple of [`RAGGED_BLOCK`], at most `k`.
fn ragged_reach(rows: &[u32], ext: &[usize], k: usize) -> usize {
    let widest = rows.iter().map(|&r| ext[r as usize]).max().unwrap_or(0);
    widest.next_multiple_of(RAGGED_BLOCK).min(k)
}

/// Fill `order` with the rows `0..ext.len()` sorted by extent: the block
/// order under which [`dense_ragged`] runs the fewest padding terms.
/// Sorting in place allocates nothing once `order` has the room.
pub fn ragged_order(ext: &[usize], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..ext.len() as u32);
    order.sort_unstable_by_key(|&r| ext[r as usize]);
}

/// Every row of a [`dense_ragged`] call with its reach, as `(row,
/// reach)`: the row's inputs from its extent up to its reach must hold
/// zeros, which also covers what [`gemm_tn_ragged`] reads of it.
pub fn ragged_reaches<'a>(
    ext: &'a [usize],
    order: &'a [u32],
    k: usize,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    order.chunks(RAGGED_BLOCK).flat_map(move |block| {
        let reach = ragged_reach(block, ext, k);
        block.iter().map(move |&r| (r as usize, reach))
    })
}

/// [`dense_any`] over rows whose inputs are zero past `ext[row]`:
/// `out[row] = x[row] @ w + b` with the bits [`dense_any`] gives the
/// whole zero-padded row, on either arm. `x` holds `ext.len()` rows of
/// `in_dim` values and `order` lists every row once.
///
/// The SIMD arm computes the rows in blocks of [`RAGGED_BLOCK`]
/// consecutive entries of `order`, every chain of a block running to the
/// block's reach ([`ragged_reaches`]), so an `order` that groups rows of
/// similar extent saves the most; each row's bits are the same under any
/// `order`. A row must hold zeros from its extent to its reach. The
/// scalar arm runs each row to its own extent.
///
/// Leaving out the `+0 · w` terms past a row's reach is exact unless the
/// chain's accumulator is −0 there: adding `±0` to a nonzero value
/// changes nothing, and only `−0 + −0` is −0. A chain starts at its bias,
/// so that takes a −0 bias (`fused`'s module docs). When a bias is −0,
/// every output that ended −0 replays its left-out terms, which restores
/// the sign the whole row gives. A non-finite weight past a row's reach
/// is never multiplied (the whole row would give `0 × inf = NaN`).
#[allow(clippy::too_many_arguments)] // dense_any's operands + extents and order
pub fn dense_ragged(
    x: &[f32],
    ext: &[usize],
    order: &[u32],
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    let rows = ext.len();
    assert!(
        x.len() >= rows * in_dim && out.len() >= rows * out_dim,
        "{rows} rows of {in_dim} inputs and {out_dim} outputs"
    );
    assert!(
        w.len() == in_dim * out_dim && b.len() == out_dim,
        "weight and bias volume"
    );
    assert!(
        order.len() == rows
            && order.iter().all(|&r| (r as usize) < rows)
            && ext.iter().all(|&e| e <= in_dim),
        "ragged rows: an order entry or extent out of range"
    );
    let mut dispatched = false;
    if out_dim >= 8 && simd_enabled() {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: AVX2+FMA detected; lengths, order entries and
            // extents are checked above.
            unsafe {
                gemm_avx2::<false, _>(
                    x,
                    in_dim,
                    w,
                    out_dim,
                    Some(b),
                    out,
                    RaggedRows { order, ext },
                )
            };
            dispatched = true;
        }
    }
    if !dispatched {
        for (r, &e) in ext.iter().enumerate() {
            let o_row = &mut out[r * out_dim..(r + 1) * out_dim];
            let x_row = &x[r * in_dim..r * in_dim + e];
            dense_portable(x_row, 1, &w[..e * out_dim], b, e, out_dim, o_row);
        }
    }
    const NEG_ZERO: u32 = 0x8000_0000;
    if b.iter().any(|v| v.to_bits() == NEG_ZERO) {
        for (r, &e) in ext.iter().enumerate() {
            let o_row = &mut out[r * out_dim..(r + 1) * out_dim];
            for (j, o) in o_row.iter_mut().enumerate() {
                if o.to_bits() == NEG_ZERO {
                    for kk in e..in_dim {
                        *o += 0.0 * w[kk * out_dim + j];
                    }
                }
            }
        }
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
        // The kernel network's widths (1, 8, 16, 32) run every row count
        // up to 17: the one-column lanes head's 8-row blocks and scalar
        // remainder, and the 8-column outputs' 8-row blocks beside their
        // 4-row blocks and one-row tiles — with and without ReLU at the
        // store.
        let narrow = [(4, 6, 8), (5, 7, 11), (9, 16, 24), (3, 32, 9), (6, 5, 16)];
        let wide = [32, 40, 64, 72, 100, 128, 136]
            .into_iter()
            .flat_map(|n| (1..=7).flat_map(move |m| [1, 9, 131, 900].map(|k| (m, k, n))));
        let kernel = [1, 8, 16, 32]
            .into_iter()
            .flat_map(|n| (1..=17).flat_map(move |m| [1, 7, 8, 16, 33].map(|k| (m, k, n))));
        for (m, k, n) in narrow.into_iter().chain(wide).chain(kernel) {
            let a = filled(m * k, |i| (i as f32 * 0.29).sin());
            let w = filled(k * n, |i| (i as f32 * 0.17).cos());
            let b = filled(n, |i| i as f32 * 0.03 - 0.1);
            for act in [Activation::Identity, Activation::Relu] {
                let mut batched = vec![f32::NAN; m * n];
                dense_any(&a, m, &w, &b, k, n, act, &mut batched);
                let mut single = vec![f32::NAN; n];
                for i in 0..m {
                    dense_any(&a[i * k..(i + 1) * k], 1, &w, &b, k, n, act, &mut single);
                    assert_eq!(
                        &batched[i * n..(i + 1) * n],
                        single.as_slice(),
                        "dense_any ({act:?}) row {i} of ({m},{k},{n}) depends on batch size"
                    );
                }
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
