//! Runtime-dispatched dense microkernels shared by the whole stack.
//!
//! One set of kernels serves the inference fast path ([`crate::infer`]),
//! the fused training forward and its analytic backward ([`crate::fused`]:
//! `dA = dC·Bᵀ` through a transposed-weight [`gemm`], `dB = Aᵀ·dC` via
//! [`gemm_tn`]), and the test-only reference tape. Every caller computes
//! the same bits, on every CPU.
//!
//! # One chain per output
//!
//! * A forward output ([`gemm`], [`dense_any`], [`dense_ragged`]) starts
//!   at its bias (or +0) and adds `x[k] · w[k, j]` for `k` ascending, one
//!   fused multiply-add per term. ReLU at the store is [`relu`]'s select.
//! * A `dW` output ([`gemm_tn_blocks`], [`gemm_tn_ragged`]) sums each row
//!   block from +0, rows ascending, one fused multiply-add per term, and
//!   adds each block's sum into the output in block order.
//!
//! No term is skipped for being zero, so `0 × inf` is NaN. The ragged
//! kernels leave out the terms past a row's reach, on every CPU alike.
//!
//! # Dispatch
//!
//! Which kernel runs is private to this module; every entry point writes
//! its whole output. The arm is detected once and cached, and
//! [`arm_name`] names it:
//!
//! * `avx512` (AVX-512F, AVX2 and FMA): 512-bit tiles run the outputs of
//!   16 or more columns (the kernel network's 7→32 and 32→16 layers, the
//!   backward's `dX` and `dW` of those widths, the critic's 896→32 layer),
//!   up to the last whole 16 columns. The AVX2 tiles run what is left: the
//!   outputs of 8–15 columns, a column tail of 8–15, and the one-column
//!   head. `simd::avx2` (hidden; the tests' handle) runs this CPU's
//!   kernels without the 512-bit tiles.
//! * `avx2` (AVX2 and FMA): register-blocked AVX2 tiles run the outputs
//!   of 8 or more columns, and a one-column dense head runs eight rows per
//!   vector, one row per lane. [`simd_enabled`] is true on both of these
//!   arms.
//! * `fma` and `plain`: every other shape and CPU runs the portable
//!   bodies ([`portable`]): loops over `f32::mul_add`, compiled once with
//!   FMA enabled, which runs where the CPU has it, and once plainly, where
//!   `mul_add` is the platform's `fmaf`.
//! * Setting `RLSCHED_FORCE_SCALAR` (to anything but `0`/empty) before the
//!   first call runs the portable bodies everywhere.
//! * Each tile loop is written once for both vector widths (the private
//!   `Lanes` trait over `__m256` and `__m512`) and compiled once per width
//!   inside that width's `#[target_feature]` kernel. Every tile keeps
//!   eight FMA chains in flight where the shape has them. [`gemm`] runs
//!   4-row × 2-vector blocks, and outputs one vector wide (8–15 columns,
//!   or 16–31 at 512 bits) run 8-row blocks first. The TN kernel sums a
//!   group of `A` columns over a row block in registers: at 256 bits
//!   eight columns when a group has one vector per column and four when
//!   it has two (eight chains); at 512 bits sixteen columns or eight
//!   (sixteen chains of the 32 registers), with a last seven in one
//!   group, so the kernel network's 7×32 `dW` is one group of fourteen
//!   chains and its 32×16 `dW` two passes over the rows, not four. The
//!   ragged kernels keep their [`RAGGED_BLOCK`]-row (and -input) blocks:
//!   a row holds zeros only up to its block's reach.
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
//! A fused multiply-add rounds once, whether a vector lane, an FMA
//! instruction or `fmaf` computes it, so each chain has one result on
//! every CPU (only a NaN's payload is not fixed). `tests/simd_parity_prop.rs`
//! holds every dispatched entry point `==` its portable body in one
//! process, and this module's tests hold the plainly compiled bodies
//! `==` the FMA-compiled ones. The one limit: `expf` and `ln`, which the
//! softmax and the log-probs around these kernels call, come from the
//! platform's libm, so "every CPU" means every CPU under one libm.
//!
//! ReLU at the store is `_mm256_max_ps(acc, 0)` (`_mm512_max_ps` at 512
//! bits) with the accumulator first: `maxps` returns its second operand
//! when either is NaN or both are zero, so a NaN or −0 accumulator
//! stores +0, which is what [`relu`] (the select
//! [`Activation::apply_slice`] runs) gives them; every other value is
//! unchanged. The fused store therefore has the bits of the
//! plain kernel followed by the separate pass, on every input and in
//! every build.
//!
//! # Row-count invariance
//!
//! The *forward* kernels ([`gemm`], [`dense_any`]) guarantee a stronger
//! property: each output **row** is computed with an accumulation order
//! that does not depend on how many rows are in the batch (an 8-row
//! block, a 4-row block and a one-row tile run the same per-lane chain).
//! Row `i` of an `m`-row product is bit-identical to the single row of the
//! `m == 1` product over the same inputs. This is what lets the
//! vectorized rollout path (`rlsched-rl`'s `VecEnv`) score every live
//! environment through one stacked matmul and still produce trajectories
//! bit-identical to sequential per-env stepping — the batched≡sequential
//! parity tests lean on it, so treat it as part of the kernel contract.

use std::sync::OnceLock;

use crate::layers::{relu, Activation};

/// The kernels this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Arm {
    /// The 512-bit tiles at 16 or more columns, the [`Arm::Avx2`] kernels
    /// elsewhere.
    Avx512,
    /// The AVX2 kernels where the shape has them, the portable bodies
    /// compiled with FMA elsewhere.
    Avx2,
    /// The portable bodies compiled with FMA.
    Fma,
    /// The portable bodies compiled plainly.
    Plain,
}

impl Arm {
    /// Detected once and cached; `RLSCHED_FORCE_SCALAR` (anything but
    /// `0`/empty) turns the AVX2 and AVX-512 kernels off.
    fn detected() -> Arm {
        static ARM: OnceLock<Arm> = OnceLock::new();
        *ARM.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("fma") {
                let forced = std::env::var_os("RLSCHED_FORCE_SCALAR")
                    .is_some_and(|v| !v.is_empty() && v != "0");
                let avx2 = std::arch::is_x86_feature_detected!("avx2");
                let avx512 = std::arch::is_x86_feature_detected!("avx512f");
                return match (avx2 && !forced, avx512) {
                    (true, true) => Arm::Avx512,
                    (true, false) => Arm::Avx2,
                    (false, _) => Arm::Fma,
                };
            }
            Arm::Plain
        })
    }

    /// This CPU's kernels without the 512-bit tiles.
    fn avx2() -> Arm {
        match Arm::detected() {
            Arm::Avx512 => Arm::Avx2,
            arm => arm,
        }
    }

    /// The portable bodies on this CPU.
    fn portable() -> Arm {
        match Arm::detected() {
            Arm::Avx512 | Arm::Avx2 => Arm::Fma,
            arm => arm,
        }
    }

    /// What [`arm_name`] calls this arm.
    fn name(self) -> &'static str {
        match self {
            Arm::Avx512 => "avx512",
            Arm::Avx2 => "avx2",
            Arm::Fma => "fma",
            Arm::Plain => "plain",
        }
    }
}

/// True when the x86 vector kernels run (AVX2 and FMA, with or without
/// the AVX-512 tiles): detected at runtime once and cached, and
/// `RLSCHED_FORCE_SCALAR` unset. Every CPU computes the same bits; this
/// only names the kernels that compute them.
pub fn simd_enabled() -> bool {
    matches!(Arm::detected(), Arm::Avx512 | Arm::Avx2)
}

/// The kernels this CPU runs: `"avx512"`, `"avx2"`, `"fma"` (the
/// portable bodies compiled with FMA, which `RLSCHED_FORCE_SCALAR`
/// selects on an FMA CPU) or `"plain"`. Every arm computes the same bits.
pub fn arm_name() -> &'static str {
    Arm::detected().name()
}

/// `body()`, compiled with the detected arm's instructions: the
/// element-wise loops around the kernels (`fused`'s backward, the Adam
/// step) vectorize as wide as the CPU allows. Pass an `#[inline(always)]`
/// closure, so that its loops are compiled inside each wrapper; a loop
/// whose elements are independent keeps its bits at any width.
pub(crate) fn with_arm_features<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each wrapper enables only what its arm detected.
    unsafe {
        match Arm::detected() {
            Arm::Avx512 => return on_avx512(body),
            Arm::Avx2 => return on_avx2(body),
            Arm::Fma => return on_fma(body),
            Arm::Plain => {}
        }
    }
    body()
}

/// [`with_arm_features`] on [`Arm::Avx512`].
///
/// # Safety
/// AVX-512F, AVX2 and FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn on_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// [`with_arm_features`] on [`Arm::Avx2`].
///
/// # Safety
/// AVX2 and FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn on_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// [`with_arm_features`] on [`Arm::Fma`].
///
/// # Safety
/// FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn on_fma<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The kernel entry points, each a call of its body on the arm `$arm`
/// names: the detected one here, the portable bodies in [`portable`].
macro_rules! entry_points {
    ($arm:expr) => {
        /// `C[m,n] = A[m,k] @ B[k,n]`, seeded with a broadcast `bias[n]` row (+0
        /// without one); `out` must hold `m * n` elements.
        pub fn gemm(
            a: &[f32],
            m: usize,
            k: usize,
            b: &[f32],
            n: usize,
            bias: Option<&[f32]>,
            out: &mut [f32],
        ) {
            dense_rows::<false, _>($arm, a, k, b, n, bias, out, AllRows(m));
        }

        /// `C[m,n] = A[r,m]ᵀ @ B[r,n]` without materializing the transpose (the
        /// `dW = Xᵀ·dY` backward kernel). The rows are summed in blocks of
        /// [`TN_BLOCK_ROWS`], each block's sum added into `C` in row order: this
        /// is [`gemm_tn_blocks`] with a block end every [`TN_BLOCK_ROWS`] rows.
        pub fn gemm_tn(a: &[f32], r: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
            gemm_tn_blocks(a, m, b, n, tn_block_ends(r), out);
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
        ) {
            tn_rows_on($arm, a, m, b, n, ends, None, out);
        }

        /// [`gemm_tn_blocks`] over rows whose `A` row is zero past `ext[row]`
        /// inputs; the row count is `ext.len()`.
        ///
        /// A row's terms count only for the inputs below its extent rounded up
        /// to a multiple of [`RAGGED_BLOCK`] (at most `m`), which must hold zeros
        /// past the extent. The x86 kernels sum each group of four inputs (then
        /// two, then one, at a ragged `m`) over only the rows that reach it:
        /// `active` starts each block as its rows and is compacted, in place and
        /// in row order, as the group index rises, so every sum stays row
        /// ascending inside its block. A left-out row's terms are `+0 · dC`, and
        /// a TN sum starts at +0 and never becomes −0 (round-to-nearest adds two
        /// values to −0 only when both are −0), so leaving them out changes no
        /// bit for finite `B` — the lemma in `fused`'s module docs.
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
            tn_rows_on($arm, a, m, b, n, ends, Some((ext, active)), out);
        }

        /// The one dense forward every caller runs (through
        /// `infer::dense_forward`: the fast path, the fused training pass and the
        /// reference tape alike): `out = act(x @ w + b)`, `x` `[rows, in]`, `w`
        /// `[in, out]`.
        ///
        /// [`Activation::Relu`] is applied at each store (the bits of
        /// [`Activation::apply_slice`] after the plain kernel: `max` maps −0 and
        /// NaN to +0 either way); Tanh and Sigmoid run [`Activation::apply_slice`]
        /// over the output afterwards.
        #[allow(clippy::too_many_arguments)] // gemm's operands + the activation
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
            dense_any_on($arm, x, rows, w, b, in_dim, out_dim, act, out);
        }

        /// [`dense_any`] over rows whose inputs are zero past `ext[row]`:
        /// `out[row] = x[row] @ w + b` with the bits [`dense_any`] gives the
        /// whole zero-padded row. `x` holds `ext.len()` rows of `in_dim` values
        /// and `order` lists every row once.
        ///
        /// The rows run in blocks of [`RAGGED_BLOCK`] consecutive entries of
        /// `order`, every chain of a block running to the block's reach
        /// ([`ragged_reaches`]), so an `order` that groups rows of similar extent
        /// saves the most; each row's bits are the same under any `order`. A row
        /// must hold zeros from its extent to its reach.
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
            dense_ragged_on($arm, x, ext, order, w, b, in_dim, out_dim, out);
        }
    };
}

entry_points!(Arm::detected());

/// The same entry points on the portable bodies: what a CPU without AVX2
/// runs, and what the AVX2 and AVX-512 kernels are held to, `==` on every
/// input, by `tests/simd_parity_prop.rs`. Compiled with FMA where the CPU
/// has it.
pub mod portable {
    use super::*;

    entry_points!(Arm::portable());
}

/// The same entry points on this CPU's kernels without the 512-bit tiles:
/// the AVX2 kernels on an AVX-512 CPU, which `tests/simd_parity_prop.rs`
/// holds `==` the portable bodies beside the dispatched arm; the
/// dispatched kernels everywhere else.
#[doc(hidden)]
pub mod avx2 {
    use super::*;

    entry_points!(Arm::avx2());
}

// ------------------------------------------------------------- C = A·B

/// The forward chains of `rows` on `arm`, ReLU at the store with `RELU`:
/// the AVX-512 kernel at 16 or more columns, the AVX2 kernels at 8 or more
/// and for a one-column output of [`AllRows`], the portable body
/// otherwise.
#[allow(clippy::too_many_arguments)] // gemm's operands + the arm and row plan
fn dense_rows<const RELU: bool, P: RowPlan>(
    arm: Arm,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `Arm::Avx512` detected AVX-512F+AVX2+FMA, `Arm::Avx2`
    // AVX2+FMA and `Arm::Fma` FMA; the kernels check the slice lengths
    // against the dims, and every row plan holds its rows and extents to
    // the slices (`dense_ragged`).
    unsafe {
        match arm {
            Arm::Avx512 if n >= 16 => return gemm_avx512::<RELU, P>(a, k, b, n, bias, out, rows),
            Arm::Avx512 | Arm::Avx2 if n >= 8 => {
                return gemm_avx2::<RELU, P>(a, k, b, n, bias, out, rows)
            }
            Arm::Avx512 | Arm::Avx2 if n == 1 && P::EIGHT_ROW_BLOCKS => {
                let seed = bias.map_or(0.0, |bv| bv[0]);
                return head_lanes_avx2::<RELU>(a, rows.len(), b, seed, k, out);
            }
            Arm::Avx512 | Arm::Avx2 | Arm::Fma => {
                return dense_chains_fma::<RELU, P>(a, k, b, n, bias, out, rows)
            }
            Arm::Plain => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = arm;
    dense_chains::<RELU, P>(a, k, b, n, bias, out, rows, 0..n)
}

/// The portable forward body: columns `cols` of each row of `rows`, from
/// the bias (or +0), `k` ascending up to the row's reach, one `mul_add`
/// per term, then [`relu`] with `RELU`; eight columns at a time
/// ([`fma_lanes`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // gemm's operands + the row plan and columns
fn dense_chains<const RELU: bool, P: RowPlan>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
    cols: std::ops::Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    for p in 0..rows.len() {
        let ([r], reach) = rows.block::<1>(p, k);
        for j0 in cols.clone().step_by(8) {
            let j1 = (j0 + 8).min(cols.end);
            let mut acc = [0.0f32; 8];
            if let Some(bv) = bias {
                acc[..j1 - j0].copy_from_slice(&bv[j0..j1]);
            }
            for (kk, &x) in a[r * k..r * k + reach].iter().enumerate() {
                fma_lanes(&mut acc, &b[kk * n + j0..kk * n + j1], x);
            }
            for (o, s) in out[r * n + j0..r * n + j1].iter_mut().zip(acc) {
                *o = if RELU { relu(s) } else { s };
            }
        }
    }
}

/// `acc[d] = lanes[d] · x + acc[d]` (one `mul_add`) for the lanes given:
/// a full eight compile to one vector FMA where the CPU has it.
#[inline(always)]
fn fma_lanes(acc: &mut [f32; 8], lanes: &[f32], x: f32) {
    let step = |(s, &y): (&mut f32, &f32)| *s = y.mul_add(x, *s);
    match <&[f32; 8]>::try_from(lanes) {
        Ok(full) => acc.iter_mut().zip(full).for_each(step),
        Err(_) => acc.iter_mut().zip(lanes).for_each(step),
    }
}

/// [`dense_chains`] compiled with FMA.
///
/// # Safety
/// FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dense_chains_fma<const RELU: bool, P: RowPlan>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
) {
    dense_chains::<RELU, P>(a, k, b, n, bias, out, rows, 0..n)
}

/// The rows a forward call computes, and how far each one's chain runs.
/// A type per plan, so each kernel compiles to its own loop.
trait RowPlan: Copy {
    /// Whether the x86 kernels may run rows in blocks of eight: outputs
    /// one vector wide (eight FMA chains on their one tile, ahead of the
    /// four-row blocks), and a one-column output one row per lane
    /// ([`head_lanes_avx2`]). Only [`AllRows`]: a
    /// [`RaggedRows`] block reaches as far as its widest row, and its rows
    /// hold zeros only up to the reach of their [`RAGGED_BLOCK`]-row block.
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

/// Rows in `order`, each run to the reach of its block of
/// [`RAGGED_BLOCK`] positions ([`ragged_reaches`]).
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
    /// `R` is 1, or [`RAGGED_BLOCK`] at a block's first position.
    #[inline(always)]
    fn block<const R: usize>(self, p: usize, k: usize) -> ([usize; R], usize) {
        let first = p - p % RAGGED_BLOCK;
        let block = &self.order[first..(first + RAGGED_BLOCK).min(self.order.len())];
        let rows = std::array::from_fn(|d| self.order[p + d] as usize);
        (rows, ragged_reach(block, self.ext, k))
    }
}

/// One vector width of the x86 tiles: eight lanes ([`Ymm`], `__m256`) or
/// sixteen ([`Zmm`], `__m512`), so that each tile loop is written once.
/// The methods are `#[inline(always)]` and run only inside a
/// `#[target_feature]` kernel that enables their width ([`gemm_avx2`],
/// [`gemm_avx512`], [`gemm_tn_avx2`], [`gemm_tn_avx512`]), where each
/// compiles to one instruction.
#[cfg(target_arch = "x86_64")]
trait Lanes {
    /// The vector.
    type V: Copy;
    /// Its lanes.
    const N: usize;
    /// All lanes +0.
    unsafe fn zero() -> Self::V;
    /// `x` in every lane.
    unsafe fn splat(x: f32) -> Self::V;
    /// `N` values from `p`.
    unsafe fn load(p: *const f32) -> Self::V;
    /// `N` values to `p`.
    unsafe fn store(p: *mut f32, v: Self::V);
    /// `x · w + acc` per lane, rounded once.
    unsafe fn fmadd(x: Self::V, w: Self::V, acc: Self::V) -> Self::V;
    /// `a + b` per lane.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// `max(acc, 0)` with the accumulator as the first operand, so a NaN
    /// or −0 accumulator gives +0 (`maxps` returns its second operand
    /// then), as [`relu`] does.
    unsafe fn max0(acc: Self::V) -> Self::V;
}

/// Eight lanes: the AVX2 tiles.
#[cfg(target_arch = "x86_64")]
struct Ymm;

/// Sixteen lanes: the AVX-512 tiles.
#[cfg(target_arch = "x86_64")]
struct Zmm;

#[cfg(target_arch = "x86_64")]
impl Lanes for Ymm {
    type V = std::arch::x86_64::__m256;
    const N: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        unsafe { std::arch::x86_64::_mm256_setzero_ps() }
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        unsafe { std::arch::x86_64::_mm256_set1_ps(x) }
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self::V {
        unsafe { std::arch::x86_64::_mm256_loadu_ps(p) }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self::V) {
        unsafe { std::arch::x86_64::_mm256_storeu_ps(p, v) }
    }
    #[inline(always)]
    unsafe fn fmadd(x: Self::V, w: Self::V, acc: Self::V) -> Self::V {
        unsafe { std::arch::x86_64::_mm256_fmadd_ps(x, w, acc) }
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        unsafe { std::arch::x86_64::_mm256_add_ps(a, b) }
    }
    #[inline(always)]
    unsafe fn max0(acc: Self::V) -> Self::V {
        use std::arch::x86_64::*;
        unsafe { _mm256_max_ps(acc, _mm256_setzero_ps()) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Zmm {
    type V = std::arch::x86_64::__m512;
    const N: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        unsafe { std::arch::x86_64::_mm512_setzero_ps() }
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::V {
        unsafe { std::arch::x86_64::_mm512_set1_ps(x) }
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self::V {
        unsafe { std::arch::x86_64::_mm512_loadu_ps(p) }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: Self::V) {
        unsafe { std::arch::x86_64::_mm512_storeu_ps(p, v) }
    }
    #[inline(always)]
    unsafe fn fmadd(x: Self::V, w: Self::V, acc: Self::V) -> Self::V {
        unsafe { std::arch::x86_64::_mm512_fmadd_ps(x, w, acc) }
    }
    #[inline(always)]
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
        unsafe { std::arch::x86_64::_mm512_add_ps(a, b) }
    }
    #[inline(always)]
    unsafe fn max0(acc: Self::V) -> Self::V {
        use std::arch::x86_64::*;
        unsafe { _mm512_max_ps(acc, _mm512_setzero_ps()) }
    }
}

/// Store what a tile stores for `acc`: [`Lanes::max0`] with `RELU`, `acc`
/// itself otherwise.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store<L: Lanes, const RELU: bool>(o: *mut f32, acc: L::V) {
    unsafe { L::store(o, if RELU { L::max0(acc) } else { acc }) }
}

/// The forward on AVX2: [`gemm_tiles`] at eight lanes, then
/// [`dense_chains`]' column tail.
///
/// # Safety
/// As [`gemm_tiles`], with AVX2+FMA available.
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
    // SAFETY: forwarded from the caller.
    let j = unsafe { gemm_tiles::<Ymm, RELU, P>(a, k, b, n, bias, out, rows, 0) };
    dense_chains::<RELU, P>(a, k, b, n, bias, out, rows, j..n);
}

/// The forward on AVX-512: [`gemm_tiles`] at sixteen lanes up to the last
/// whole 16 columns, at eight lanes over a tail of 8–15, then
/// [`dense_chains`]' column tail.
///
/// # Safety
/// As [`gemm_tiles`], with AVX-512F+AVX2+FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn gemm_avx512<const RELU: bool, P: RowPlan>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
) {
    // SAFETY: forwarded from the caller.
    let j = unsafe {
        let j = gemm_tiles::<Zmm, RELU, P>(a, k, b, n, bias, out, rows, 0);
        gemm_tiles::<Ymm, RELU, P>(a, k, b, n, bias, out, rows, j)
    };
    dense_chains::<RELU, P>(a, k, b, n, bias, out, rows, j..n);
}

/// Register-blocked tiles of `L` over the columns from `j0` up to the
/// last whole vector, whose end it returns: 4 rows × 2 vectors per block
/// (eight independent FMA chains — enough to cover FMA latency at two
/// issues per cycle), stepping down to 4 × 1, then a 1-row remainder of
/// 8-, 4-, 2- and 1-vector tiles (one input row keeps eight chains busy
/// only across eight vectors). When those columns are one vector wide,
/// [`AllRows`] runs them in 8-row blocks first (eight chains, where a
/// 4-row block has four).
///
/// Every output element is accumulated by its own k-ascending FMA chain
/// in its own vector lane, so the tile geometry and the vector width
/// never change a value: each row is bit-identical whether it was
/// computed in a full block or as a tail (the row-count-invariance
/// contract of the module docs), and it is [`dense_chains`]' row. A chain
/// stops where `rows` says its inputs end ([`dense_ragged`]). With `RELU`
/// every tile stores [`Lanes::max0`].
///
/// # Safety
/// Only inside a kernel that enables `L`'s instructions. The slice
/// lengths must cover the dims (`a ≥ rows*k`, `b ≥ k*n`, `out ≥ rows*n`,
/// `bias ≥ n` when given; asserted), and for [`RaggedRows`] every entry
/// of `order` must be below `ext.len()` and no extent above `k`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)] // gemm's operands + the row plan and first column
unsafe fn gemm_tiles<L: Lanes, const RELU: bool, P: RowPlan>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: P,
    j0: usize,
) -> usize {
    let (m, stored, w) = (rows.len(), rows.stored(), L::N);
    assert!(a.len() >= stored * k && b.len() >= k * n && out.len() >= stored * n);
    if let Some(bv) = bias {
        assert!(bv.len() >= n);
    }
    let end = n - (n - j0) % w;
    let pairs = n - (n - j0) % (2 * w);
    if end == j0 {
        return end;
    }
    // SAFETY: every row `rows` names is below `stored` and runs over at
    // most `k` inputs (the caller's contract for ragged rows), so every
    // read of `a` and write of `out` is inside the lengths asserted
    // above; every column is below `end ≤ n`.
    unsafe {
        let seed = |j: usize| match bias {
            Some(bv) => L::load(bv.as_ptr().add(j)),
            None => L::zero(),
        };
        let wrow = |kk: usize, j: usize| L::load(b.as_ptr().add(kk * n + j));
        let mut p = 0;
        if P::EIGHT_ROW_BLOCKS && end - j0 == w {
            while p + 8 <= m {
                let (r, reach) = rows.block::<8>(p, k);
                let x = r.map(|r| a.as_ptr().add(r * k));
                let mut acc = [seed(j0); 8];
                for kk in 0..reach {
                    let wv = wrow(kk, j0);
                    for (acc, x) in acc.iter_mut().zip(x) {
                        *acc = L::fmadd(L::splat(*x.add(kk)), wv, *acc);
                    }
                }
                for (acc, r) in acc.into_iter().zip(r) {
                    store::<L, RELU>(out.as_mut_ptr().add(r * n + j0), acc);
                }
                p += 8;
            }
        }
        while p + 4 <= m {
            let (r, reach) = rows.block::<4>(p, k);
            let x = r.map(|r| a.as_ptr().add(r * k));
            let o = r.map(|r| out.as_mut_ptr().add(r * n));
            let mut j = j0;
            while j < pairs {
                let mut acc = [[seed(j), seed(j + w)]; 4];
                for kk in 0..reach {
                    let (w0, w1) = (wrow(kk, j), wrow(kk, j + w));
                    for (acc, x) in acc.iter_mut().zip(x) {
                        let xv = L::splat(*x.add(kk));
                        acc[0] = L::fmadd(xv, w0, acc[0]);
                        acc[1] = L::fmadd(xv, w1, acc[1]);
                    }
                }
                for (acc, o) in acc.into_iter().zip(o) {
                    store::<L, RELU>(o.add(j), acc[0]);
                    store::<L, RELU>(o.add(j + w), acc[1]);
                }
                j += 2 * w;
            }
            while j < end {
                let mut acc = [seed(j); 4];
                for kk in 0..reach {
                    let wv = wrow(kk, j);
                    for (acc, x) in acc.iter_mut().zip(x) {
                        *acc = L::fmadd(L::splat(*x.add(kk)), wv, *acc);
                    }
                }
                for (acc, o) in acc.into_iter().zip(o) {
                    store::<L, RELU>(o.add(j), acc);
                }
                j += w;
            }
            p += 4;
        }
        // Row remainder: 8-, 4-, 2- then 1-vector tiles with the same
        // per-lane k-ascending FMA chain as the blocks above (row-count
        // invariance).
        while p < m {
            let ([r], reach) = rows.block::<1>(p, k);
            let (a_row, o_row) = (a.as_ptr().add(r * k), out.as_mut_ptr().add(r * n));
            let mut j = j0;
            while j + 8 * w <= end {
                row_tile::<L, 8, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 8 * w;
            }
            while j + 4 * w <= end {
                row_tile::<L, 4, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 4 * w;
            }
            while j + 2 * w <= end {
                row_tile::<L, 2, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += 2 * w;
            }
            while j < end {
                row_tile::<L, 1, RELU>(a_row, reach, b.as_ptr(), n, j, bias, o_row);
                j += w;
            }
            p += 1;
        }
    }
    end
}

/// How many rows of `B` ahead [`row_tile`] prefetches. One input row
/// walks `B` a row of `n` floats at a time and reads only a tile's slice
/// of each; the hardware prefetchers do not run far enough ahead of that
/// stride, and a flat MLP's first layer (≈458 KB for MLP v1) streams from
/// L2 on every decision. A prefetch reads nothing into a register, so no
/// value changes.
const ROW_TILE_PREFETCH_ROWS: usize = 8;

/// One row of [`gemm_tiles`]' row remainder: `a_row` times the `V`
/// vectors of `B` columns from `j`, into `o_row[j..]`. `V` accumulators,
/// each seeded with its lanes of `bias` (or zero) and run as a
/// k-ascending FMA chain — the same chain every lane of a 4-row block
/// runs, so a row's bits do not depend on which tile computed it.
///
/// # Safety
/// As [`gemm_tiles`]; `a_row` must hold `k` values, `b` `k * n`, `o_row`
/// `n`, `bias` (when given) `n`, and `j + V * L::N <= n`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn row_tile<L: Lanes, const V: usize, const RELU: bool>(
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
        let mut acc = [L::zero(); V];
        if let Some(bv) = bias {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = L::load(bv.as_ptr().add(j + L::N * v));
            }
        }
        for kk in 0..k {
            let x = L::splat(*a_row.add(kk));
            let w = b.add(kk * n + j);
            // One prefetch per 64-byte line of the tile's slice; past the
            // end of `B` it is a no-op (prefetches do not fault).
            let ahead = w.wrapping_add(ROW_TILE_PREFETCH_ROWS * n);
            for line in 0..(V * L::N).div_ceil(16) {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(16 * line) as *const i8);
            }
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = L::fmadd(x, L::load(w.add(L::N * v)), *acc);
            }
        }
        for (v, acc) in acc.into_iter().enumerate() {
            store::<L, RELU>(o_row.add(j + L::N * v), acc);
        }
    }
}

// --------------------------------------------------------- C = Aᵀ·B (TN)

/// Rows per block of [`gemm_tn`]: each block of `A`/`B` rows is summed
/// on its own, then added into `C`.
pub const TN_BLOCK_ROWS: usize = 512;

/// The block ends [`gemm_tn`] uses for `r` rows: every
/// [`TN_BLOCK_ROWS`] rows, then `r`.
pub fn tn_block_ends(r: usize) -> impl Iterator<Item = usize> {
    (1..=r.div_ceil(TN_BLOCK_ROWS)).map(move |i| (i * TN_BLOCK_ROWS).min(r))
}

/// The TN chains on `arm`: the AVX-512 kernel at 16 or more columns, the
/// AVX2 kernel at 8 or more, the portable body otherwise; with `ragged`
/// (extents and an active-row scratch) each row counts only up to its
/// reach.
#[allow(clippy::too_many_arguments)] // gemm_tn_ragged's operands + the arm
fn tn_rows_on(
    arm: Arm,
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl IntoIterator<Item = usize>,
    ragged: Option<(&[usize], &mut Vec<u32>)>,
    out: &mut [f32],
) {
    let ext = ragged.as_ref().map(|(ext, _)| *ext);
    if let Some(ext) = ext {
        assert!(
            ext.iter().all(|&e| e <= m),
            "a row extends past the {m} inputs"
        );
    }
    let ends = ends.into_iter();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `Arm::Avx512` detected AVX-512F+AVX2+FMA, `Arm::Avx2`
    // AVX2+FMA and `Arm::Fma` FMA; the extents were checked against `m`
    // above, and the kernels check the rows they read against the slice
    // lengths.
    unsafe {
        match arm {
            Arm::Avx512 if n >= 16 => return gemm_tn_avx512(a, m, b, n, ends, ragged, out),
            Arm::Avx512 | Arm::Avx2 if n >= 8 => {
                return gemm_tn_avx2(a, m, b, n, ends, ragged, out)
            }
            Arm::Avx512 | Arm::Avx2 | Arm::Fma => return tn_chains_fma(a, m, b, n, ends, ext, out),
            Arm::Plain => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (arm, ragged);
    tn_chains(a, m, b, n, ends, ext, out)
}

/// The portable TN body: block by block (`ends`), each output's sum over
/// the block's rows from +0, rows ascending, one `mul_add` per term,
/// then added into `out`. With `ext`, row `row` counts only for the
/// inputs below `ext[row]` rounded up to [`RAGGED_BLOCK`]. The sums of
/// a tile of 8 inputs × 8 columns ([`fma_lanes`] along the columns, or
/// along the inputs for one column) live on the stack, so it allocates
/// nothing.
#[inline(always)]
fn tn_chains(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    ext: Option<&[usize]>,
    out: &mut [f32],
) {
    let reach = |row: usize| ext.map_or(m, |e| e[row].next_multiple_of(RAGGED_BLOCK).min(m));
    out[..m * n].fill(0.0);
    let mut r0 = 0;
    for r1 in ends {
        assert!(
            r0 <= r1 && a.len() >= r1 * m && b.len() >= r1 * n,
            "row block {r0}..{r1} out of order or past the inputs"
        );
        for i0 in (0..m).step_by(8) {
            let i1 = (i0 + 8).min(m);
            if n == 1 {
                let mut acc = [0.0f32; 8];
                for row in r0..r1 {
                    let live = reach(row).clamp(i0, i1);
                    fma_lanes(&mut acc, &a[row * m + i0..row * m + live], b[row]);
                }
                out[i0..i1].iter_mut().zip(acc).for_each(|(o, s)| *o += s);
                continue;
            }
            for j0 in (0..n).step_by(8) {
                let j1 = (j0 + 8).min(n);
                let mut acc = [[0.0f32; 8]; 8];
                for row in r0..r1 {
                    let live = reach(row).clamp(i0, i1);
                    for (acc, &x) in acc.iter_mut().zip(&a[row * m + i0..row * m + live]) {
                        fma_lanes(acc, &b[row * n + j0..row * n + j1], x);
                    }
                }
                for (d, acc) in acc.iter().enumerate().take(i1 - i0) {
                    let o_row = &mut out[(i0 + d) * n + j0..(i0 + d) * n + j1];
                    o_row.iter_mut().zip(acc).for_each(|(o, s)| *o += s);
                }
            }
        }
        r0 = r1;
    }
}

/// [`tn_chains`] compiled with FMA.
///
/// # Safety
/// FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn tn_chains_fma(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    ext: Option<&[usize]>,
    out: &mut [f32],
) {
    tn_chains(a, m, b, n, ends, ext, out)
}

/// The `dW` kernel on AVX2: [`gemm_tn_tiles`] at eight lanes.
///
/// # Safety
/// As [`gemm_tn_tiles`], with AVX2+FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    ragged: Option<(&[usize], &mut Vec<u32>)>,
    out: &mut [f32],
) {
    // SAFETY: forwarded from the caller.
    unsafe { gemm_tn_tiles::<Ymm>(a, m, b, n, ends, ragged, out) }
}

/// The `dW` kernel on AVX-512: [`gemm_tn_tiles`] at sixteen lanes (eight
/// lanes over a column tail of 8–15).
///
/// # Safety
/// As [`gemm_tn_tiles`], with AVX-512F+AVX2+FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn gemm_tn_avx512(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    ends: impl Iterator<Item = usize>,
    ragged: Option<(&[usize], &mut Vec<u32>)>,
    out: &mut [f32],
) {
    // SAFETY: forwarded from the caller.
    unsafe { gemm_tn_tiles::<Zmm>(a, m, b, n, ends, ragged, out) }
}

/// Outer-product kernel with register-resident accumulators: each group
/// of `A` columns ([`tn_group_width`]) runs [`tn_cols`] over a block's
/// rows — a group × 2-vector output tile is independent FMA chains that
/// accumulate across the whole row block before a single
/// read-modify-write of `out`, so B's column slice streams from cache and
/// A contributes one broadcast per group column and row. The blocks
/// (`ends`, every [`TN_BLOCK_ROWS`] rows for [`gemm_tn`]) keep the
/// streamed slice L1/L2-resident. With `ragged` (extents and an
/// active-row scratch, [`gemm_tn_ragged`]) each group sums only the rows
/// that reach its first input's [`RAGGED_BLOCK`]-input block.
///
/// Each output element accumulates in its own lane, r ascending within
/// every block — so the group width, the tile and the vector width never
/// change a value, and it is [`tn_chains`]' element.
///
/// # Safety
/// Only inside a kernel that enables `L`'s instructions; with `ragged`
/// no extent may exceed `m`. Slice lengths are checked per block: `out ≥
/// m*n`, and `a ≥ r1*m`, `b ≥ r1*n` (and `ext ≥ r1`) for every block end
/// `r1`, which must not fall below the previous one.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gemm_tn_tiles<L: Lanes>(
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
            let step = tn_group_width(L::N, ragged.is_some(), m - i, n);
            // SAFETY: every row below is below `r1`, checked above against
            // both inputs; a group's columns are below `m`.
            unsafe {
                match &mut ragged {
                    None => tn_group::<L>(step, a, m, b, n, i, r0..r1, out),
                    Some((ext, active)) => {
                        let first = i - i % RAGGED_BLOCK;
                        active.retain(|&row| ext[row as usize] > first);
                        if active.is_empty() {
                            break;
                        }
                        let rows = active.iter().map(|&row| row as usize);
                        tn_group::<L>(step, a, m, b, n, i, rows, out);
                    }
                }
            }
            i += step;
        }
        r0 = r1;
    }
}

/// How many `A` columns the TN group holds, `left` of the `m` remaining,
/// at `lanes` per vector: the widest of the arm's group widths that fits.
/// A ragged group stays inside its [`RAGGED_BLOCK`] inputs: four, then
/// two, then one. At 512 bits a group holds sixteen accumulators of the
/// 32 registers: sixteen columns under 32 output columns (one vector per
/// column), eight at 32 or more (two), and a last seven in one group, so
/// a 7-input `dW` is one group of fourteen chains. At 256 bits eight
/// under 16 columns (one vector per column: eight chains), else four (two
/// vectors per column: eight chains), then two, then one.
fn tn_group_width(lanes: usize, ragged: bool, left: usize, n: usize) -> usize {
    let widths: &[usize] = match (ragged, lanes) {
        (true, _) => &[4, 2, 1],
        (false, 16) if n < 32 => &[16, 8, 7, 4, 2, 1],
        (false, 16) => &[8, 7, 4, 2, 1],
        (false, _) if n < 16 => &[8, 4, 2, 1],
        (false, _) => &[4, 2, 1],
    };
    widths.iter().copied().find(|&w| w <= left).unwrap_or(1)
}

/// [`tn_cols`] for a group of `step` (16, 8, 7, 4, 2 or 1) `A` columns.
///
/// # Safety
/// As [`tn_cols`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)] // tn_cols' operands + the group width
unsafe fn tn_group<L: Lanes>(
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
            16 => tn_cols::<L, 16>(a, m, b, n, i, rows, out),
            8 => tn_cols::<L, 8>(a, m, b, n, i, rows, out),
            7 => tn_cols::<L, 7>(a, m, b, n, i, rows, out),
            4 => tn_cols::<L, 4>(a, m, b, n, i, rows, out),
            2 => tn_cols::<L, 2>(a, m, b, n, i, rows, out),
            _ => tn_cols::<L, 1>(a, m, b, n, i, rows, out),
        }
    }
}

/// Add `Σ_row A[row, i + d] · B[row, j]` over `rows`, in their order,
/// into `out[i + d, j]` for `d < R` and every column: [`tn_tiles`] of
/// `L`, then of eight lanes over what is left, then a scalar column tail
/// of the same chains, one `mul_add` per term.
///
/// # Safety
/// Only inside a kernel that enables `L`'s instructions; every row in
/// `rows` must have its `A` row (`m` wide) in `a` and its `B` row (`n`
/// wide) in `b`, `i + R ≤ m`, and `out` must hold `m * n`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tn_cols<L: Lanes, const R: usize>(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    i: usize,
    rows: impl Iterator<Item = usize> + Clone,
    out: &mut [f32],
) {
    // SAFETY: the caller's contract covers every row, column and output.
    unsafe {
        let mut j = tn_tiles::<L, R>(a, m, b, n, i, rows.clone(), 0, out);
        if L::N > Ymm::N {
            j = tn_tiles::<Ymm, R>(a, m, b, n, i, rows.clone(), j, out);
        }
        for jj in j..n {
            for d in 0..R {
                let mut s = 0.0f32;
                for row in rows.clone() {
                    let x = *a.get_unchecked(row * m + i + d);
                    s = x.mul_add(*b.get_unchecked(row * n + jj), s);
                }
                *out.get_unchecked_mut((i + d) * n + jj) += s;
            }
        }
    }
}

/// [`tn_cols`]' vector tiles over the columns from `j0`: 2-vector tiles
/// (two FMA chains per `A` column), then 1-vector; returns the end of the
/// last whole vector.
///
/// # Safety
/// As [`tn_cols`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)] // tn_cols' operands + the first column
unsafe fn tn_tiles<L: Lanes, const R: usize>(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    i: usize,
    rows: impl Iterator<Item = usize> + Clone,
    j0: usize,
    out: &mut [f32],
) -> usize {
    let w = L::N;
    // SAFETY: the caller's contract covers every row, column and output.
    unsafe {
        let add_into = |o: *mut f32, acc: L::V| L::store(o, L::add(L::load(o), acc));
        let mut j = j0;
        while j + 2 * w <= n {
            let mut acc = [[L::zero(); 2]; R];
            for row in rows.clone() {
                let bp = b.as_ptr().add(row * n + j);
                let (b0, b1) = (L::load(bp), L::load(bp.add(w)));
                let ap = a.as_ptr().add(row * m + i);
                for (d, acc) in acc.iter_mut().enumerate() {
                    let x = L::splat(*ap.add(d));
                    acc[0] = L::fmadd(x, b0, acc[0]);
                    acc[1] = L::fmadd(x, b1, acc[1]);
                }
            }
            for (d, acc) in acc.iter().enumerate() {
                let o = out.as_mut_ptr().add((i + d) * n + j);
                add_into(o, acc[0]);
                add_into(o.add(w), acc[1]);
            }
            j += 2 * w;
        }
        while j + w <= n {
            let mut acc = [L::zero(); R];
            for row in rows.clone() {
                let b0 = L::load(b.as_ptr().add(row * n + j));
                let ap = a.as_ptr().add(row * m + i);
                for (d, acc) in acc.iter_mut().enumerate() {
                    *acc = L::fmadd(L::splat(*ap.add(d)), b0, *acc);
                }
            }
            for (d, acc) in acc.iter().enumerate() {
                add_into(out.as_mut_ptr().add((i + d) * n + j), *acc);
            }
            j += w;
        }
        j
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

/// [`dense_any`] on `arm`.
#[allow(clippy::too_many_arguments)] // dense_any's operands + the arm
fn dense_any_on(
    arm: Arm,
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
    let all = AllRows(rows);
    if act == Activation::Relu {
        dense_rows::<true, _>(arm, x, in_dim, w, out_dim, Some(b), out, all);
    } else {
        dense_rows::<false, _>(arm, x, in_dim, w, out_dim, Some(b), out, all);
        act.apply_slice(&mut out[..rows * out_dim]);
    }
}

/// The AVX2 kernel of a one-column forward: `out[i] = b + Σ_k x[i, k] ·
/// w[k]`, the FMA chain of [`dense_chains`]. Each block of eight rows
/// loads its inputs eight columns at a time (the last group masked, so
/// nothing past `in_dim` is read), transposes the 8×8 tile so that lane
/// `d` holds row `d`, and runs the chain in every lane at once; the row
/// remainder runs it by `mul_add`. So a row's value does not depend on
/// whether a block or the remainder computed it. With `RELU` every
/// output stores [`Lanes::max0`].
///
/// # Safety
/// AVX2+FMA must be available. Slice lengths are checked: `x ≥
/// rows*in_dim`, `w ≥ in_dim`, `out ≥ rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
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
        let chain =
            |acc: __m256, col: __m256, w: *const f32| _mm256_fmadd_ps(col, _mm256_set1_ps(*w), acc);
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
            store::<Ymm, RELU>(out.as_mut_ptr().add(i), acc);
            i += 8;
        }
    }
    let rest = AllRows(rows - rows8);
    let (x, out) = (&x[rows8 * in_dim..], &mut out[rows8..]);
    dense_chains::<RELU, _>(x, in_dim, w, 1, Some(&[b]), out, rest, 0..1);
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

/// Rows per block of [`dense_ragged`], and the multiple its blocks'
/// reaches are rounded up to (a [`gemm_tn_ragged`] input group).
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

/// [`dense_ragged`] on `arm`.
#[allow(clippy::too_many_arguments)] // dense_ragged's operands + the arm
fn dense_ragged_on(
    arm: Arm,
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
    let plan = RaggedRows { order, ext };
    dense_rows::<false, _>(arm, x, in_dim, w, out_dim, Some(b), out, plan);
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

    /// Equal bits, or both NaN.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what} element {i}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn arm_name_follows_the_cpu_and_the_force_switch() {
        let forced =
            std::env::var_os("RLSCHED_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        #[cfg(target_arch = "x86_64")]
        let want = {
            use std::arch::is_x86_feature_detected as has;
            match (has!("fma"), has!("avx2") && !forced, has!("avx512f")) {
                (false, ..) => "plain",
                (true, false, _) => "fma",
                (true, true, false) => "avx2",
                (true, true, true) => "avx512",
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "plain";
        println!("simd arm: {}", arm_name());
        assert_eq!(arm_name(), want, "RLSCHED_FORCE_SCALAR set: {forced}");
        assert_eq!(simd_enabled(), matches!(want, "avx2" | "avx512"));
        let avx2 = match want {
            "avx512" => "avx2",
            other => other,
        };
        assert_eq!(Arm::avx2().name(), avx2);
    }

    #[test]
    fn gemm_matches_scalar_on_ragged_shapes() {
        // The wide shapes reach every one-row tile (64, 32, 16 and 8
        // columns) and the 4-row blocks next to them; the narrow ones the
        // one-column lanes and the portable body.
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
            (11, 9, 1),
            (3, 5, 3),
        ] {
            let a = filled(m * k, |i| (i as f32 * 0.37).sin());
            let b = filled(k * n, |i| (i as f32 * 0.21).cos());
            let mut dispatched = vec![f32::NAN; m * n];
            let mut chains = vec![f32::NAN; m * n];
            portable::gemm(&a, m, k, &b, n, None, &mut chains);
            gemm(&a, m, k, &b, n, None, &mut dispatched);
            assert_eq!(dispatched, chains, "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_bias_seed_matches_portable() {
        let (m, k, n) = (6, 5, 13);
        let a = filled(m * k, |i| (i as f32 * 0.11).sin());
        let w = filled(k * n, |i| (i as f32 * 0.07).cos());
        let b = filled(n, |i| i as f32 * 0.01 - 0.05);
        let mut dispatched = vec![f32::NAN; m * n];
        let mut chains = vec![f32::NAN; m * n];
        portable::gemm(&a, m, k, &w, n, Some(&b), &mut chains);
        gemm(&a, m, k, &w, n, Some(&b), &mut dispatched);
        assert_eq!(dispatched, chains);
    }

    #[test]
    fn gemm_tn_matches_scalar() {
        for &(r, m, n) in &[(4, 3, 8), (5, 7, 11), (16, 2, 32), (3, 1, 9), (700, 9, 1)] {
            let a = filled(r * m, |i| (i as f32 * 0.23).sin());
            let b = filled(r * n, |i| (i as f32 * 0.31).cos());
            let mut dispatched = vec![f32::NAN; m * n];
            let mut chains = vec![f32::NAN; m * n];
            portable::gemm_tn_blocks(&a, m, &b, n, tn_block_ends(r), &mut chains);
            gemm_tn(&a, r, m, &b, n, &mut dispatched);
            assert_eq!(dispatched, chains, "({r},{m},{n})");
        }
    }

    #[test]
    fn plain_portable_bodies_are_the_fma_compiled_ones() {
        // Without FMA in hardware `mul_add` is a correctly rounded `fmaf`
        // call, so the plainly compiled bodies give the FMA-compiled ones'
        // bits, on values of every class. Comparing needs an FMA CPU.
        if Arm::detected() == Arm::Plain {
            return;
        }
        let special = |i: usize, v: f32| match i % 23 {
            0 => 0.0,
            5 => -0.0,
            9 => f32::INFINITY,
            14 => f32::NAN,
            19 => f32::from_bits(3),
            _ => v,
        };
        for (rows, k, n) in [(1, 1, 1), (9, 7, 1), (5, 13, 8), (3, 40, 11), (17, 9, 33)] {
            let x = filled(rows * k, |i| special(i, (i as f32 * 0.37).sin()));
            let w = filled(k * n, |i| special(i + 3, (i as f32 * 0.21).cos()));
            let b = filled(n, |j| special(j + 1, j as f32 * 0.1 - 0.3));
            let y = filled(rows * n, |i| special(i + 7, (i as f32 * 0.13).sin()));
            let ext: Vec<usize> = (0..rows).map(|r| r * 5 % (k + 1)).collect();
            let mut padded = x.clone();
            for (row, &e) in padded.chunks_mut(k).zip(&ext) {
                row[e..].fill(0.0);
            }
            let order: Vec<u32> = (0..rows as u32).rev().collect();
            let ends = [rows / 2, rows];
            let run = |arm| {
                let mut dense = vec![f32::NAN; rows * n];
                dense_any_on(arm, &x, rows, &w, &b, k, n, Activation::Relu, &mut dense);
                let mut ragged = vec![f32::NAN; rows * n];
                dense_ragged_on(arm, &padded, &ext, &order, &w, &b, k, n, &mut ragged);
                let mut dw = vec![f32::NAN; k * n];
                tn_rows_on(arm, &x, k, &y, n, ends, None, &mut dw);
                let mut ragged_dw = vec![f32::NAN; k * n];
                let rows_reach = Some((ext.as_slice(), &mut Vec::new()));
                tn_rows_on(arm, &padded, k, &y, n, ends, rows_reach, &mut ragged_dw);
                [dense, ragged, dw, ragged_dw]
            };
            let (plain, fma) = (run(Arm::Plain), run(Arm::Fma));
            let what = ["dense", "ragged", "dW", "ragged dW"];
            for (what, (p, f)) in what.iter().zip(plain.iter().zip(&fma)) {
                assert_same(p, f, &format!("{what} at ({rows},{k},{n})"));
            }
        }
    }

    #[test]
    fn forward_kernels_are_row_count_invariant() {
        // Each output row must be bit-identical whether it is computed
        // alone (m = 1) or inside a larger batch. VecEnv's
        // batched≡sequential rollout parity rests on this. Shapes cover
        // full 4-row blocks, row tails (m % 4 ≠ 0), ragged column tails
        // (n % 8 ≠ 0), and widths that reach the one-row remainder's 64-
        // and 32-column tiles (a one-row product runs only those tiles;
        // rows of a 4-row block run the 16/8-wide block tiles), over inner
        // dimensions up to a flat MLP's 896. The kernel network's widths
        // (1, 8, 16, 32) run every row count up to 17: the one-column
        // lanes head's 8-row blocks and scalar remainder, and the
        // 8-column outputs' 8-row blocks beside their 4-row blocks and
        // one-row tiles — with and without ReLU at the store.
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
}
