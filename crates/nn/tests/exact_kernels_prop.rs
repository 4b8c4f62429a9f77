//! Exact-kernel properties: the kernels that skip arithmetic must give
//! the bits of the kernels that do it, with `==` (NaN matching NaN), on
//! whichever dispatch arm is active — CI runs this file once more with
//! `RLSCHED_FORCE_SCALAR=1`.
//!
//! * the one-column `dW` arm of `gemm_tn_blocks` is `gemm_tn_scalar`'s
//!   chain, non-finite inputs included;
//! * `dense_ragged` is `dense_any` over the zero-padded rows, a −0 bias
//!   included, under any block order;
//! * `gemm_tn_ragged` is `gemm_tn_blocks` over the zero-padded rows, with
//!   block ends on and across the 512-row boundary;
//! * `window_mlp_forward` (the rollout critic) is `mlp_forward`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rlsched_nn::infer::{self, Scratch};
use rlsched_nn::layers::{Activation, Mlp};
use rlsched_nn::simd;

/// The same value: equal bits, or both NaN (a NaN's payload depends on
/// operand order, which no kernel contract fixes).
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        prop_assert!(same(g, w), "{} element {}: {:e} vs {:e}", what, i, g, w);
    }
    Ok(())
}

/// A finite value in about ±1.5, zero one time in `zero_one_in` (with
/// either sign).
fn value(rng: &mut StdRng, zero_one_in: u32) -> f32 {
    if rng.gen_range(0..zero_one_in) == 0 {
        if rng.gen_range(0..2) == 0 {
            0.0
        } else {
            -0.0
        }
    } else {
        rng.gen_range(-1.5f32..1.5)
    }
}

/// Each row's extent: 0, 1, the whole row or anything between.
fn extents(rng: &mut StdRng, rows: usize, width: usize) -> Vec<usize> {
    (0..rows)
        .map(|_| match rng.gen_range(0..4) {
            0 => 0,
            1 => 1.min(width),
            2 => width,
            _ => rng.gen_range(0..=width),
        })
        .collect()
}

/// `rows` rows of `width` values, each zero (+0) past its extent.
fn padded_rows(rng: &mut StdRng, ext: &[usize], width: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; ext.len() * width];
    for (row, &e) in x.chunks_mut(width).zip(ext) {
        for v in &mut row[..e] {
            *v = value(rng, 6);
        }
    }
    x
}

/// Block ends over `r` rows: every 512 rows, or cut points anywhere
/// (empty blocks and blocks across 512 included).
fn block_ends(rng: &mut StdRng, r: usize) -> Vec<usize> {
    if rng.gen_range(0..2) == 0 {
        return simd::tn_block_ends(r).collect();
    }
    let mut ends: Vec<usize> = (0..rng.gen_range(0..5))
        .map(|_| rng.gen_range(0..=r))
        .collect();
    ends.push(r);
    ends.sort_unstable();
    ends
}

/// `dW` of one output column, both ways.
fn one_column(a: &[f32], r: usize, m: usize, b: &[f32], ends: &[usize]) -> (Vec<f32>, Vec<f32>) {
    let mut got = vec![f32::NAN; m];
    let dispatched = simd::gemm_tn_blocks(a, m, b, 1, ends.iter().copied(), &mut got);
    assert_eq!(
        dispatched,
        simd::simd_enabled(),
        "one column dispatches exactly when SIMD is on"
    );
    if !dispatched {
        simd::gemm_tn_scalar(a, r, m, b, 1, &mut got);
    }
    let mut want = vec![f32::NAN; m];
    simd::gemm_tn_scalar(a, r, m, b, 1, &mut want);
    (got, want)
}

#[test]
fn one_column_tn_keeps_the_scalar_zero_skip_beside_non_finite_dc() {
    // Eleven outputs (one vector and a three-lane tail); each column of
    // `a` holds a ±0 in the rows whose `dC` is ±inf or NaN, so a kernel
    // that multiplies instead of skipping gets NaN where the chain has a
    // number.
    let (r, m) = (6, 11);
    let b = [0.5, f32::INFINITY, -0.0, f32::NEG_INFINITY, f32::NAN, 1.25];
    let mut a = vec![0.0f32; r * m];
    for (row, a_row) in a.chunks_mut(m).enumerate() {
        for (i, v) in a_row.iter_mut().enumerate() {
            *v = match (row, i % 3) {
                (1 | 3 | 4, 0) => 0.0,
                (1 | 3 | 4, 1) => -0.0,
                _ => (row * m + i) as f32 * 0.37 - 2.0,
            };
        }
    }
    let (got, want) = one_column(&a, r, m, &b, &[r]);
    assert!(want.iter().step_by(3).all(|v| v.is_finite()), "{want:?}");
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert!(same(g, w), "output {i}: {g:e} vs {w:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-column arm runs `gemm_tn_scalar`'s chain in each lane:
    /// multiply then add (an FMA rounds once and differs), rows ascending,
    /// a ±0 `a` skipped (so `0 × inf` never happens), and no row blocks
    /// whatever `ends` says. `m` is rarely a multiple of 8.
    #[test]
    fn one_column_tn_is_the_scalar_chain(
        r in 0usize..70,
        m in 1usize..30,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..r * m).map(|_| value(&mut rng, 4)).collect();
        let b: Vec<f32> = (0..r)
            .map(|_| match rng.gen_range(0..12) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                3 => 0.0,
                4 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        let ends = block_ends(&mut rng, r);
        let (got, want) = one_column(&a, r, m, &b, &ends);
        assert_same(&got, &want, "one-column dW")?;
    }

    /// `dense_ragged` gives `dense_any`'s bits over the zero-padded rows:
    /// 1–9 rows of extents 0, 1, mixed and full, blocked in index order
    /// (mixed extents in a block), sorted or shuffled, under biases with
    /// −0 entries — where a −0 chain meets the padding's `+0 · w` terms.
    #[test]
    fn ragged_forward_is_dense_any_over_zero_padding(
        rows in 1usize..10,
        in_dim in 1usize..80,
        out_pick in 0usize..11,
        order_kind in 0u32..3,
        bias_kind in 0u32..4,
        seed in 0u64..10_000,
    ) {
        let out_dim = [1, 2, 7, 8, 9, 16, 24, 32, 33, 64, 72][out_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let ext = extents(&mut rng, rows, in_dim);
        let x = padded_rows(&mut rng, &ext, in_dim);
        let mut w: Vec<f32> = (0..in_dim * out_dim).map(|_| value(&mut rng, 8)).collect();
        let b: Vec<f32> = (0..out_dim)
            .map(|j| match bias_kind {
                0 => rng.gen_range(-0.5f32..0.5),
                1 if j == 0 => -0.0,
                1 => rng.gen_range(-0.5f32..0.5),
                2 => -0.0,
                _ => 0.0,
            })
            .collect();
        if bias_kind == 2 {
            // One column whose padding terms are all −0, so its −0 chains
            // stay −0 in the whole row too.
            for k in 0..in_dim {
                w[k * out_dim] = -w[k * out_dim].abs() - 0.25;
            }
        }
        let mut order: Vec<u32> = (0..rows as u32).collect();
        match order_kind {
            0 => {}
            1 => order.sort_by_key(|&r| ext[r as usize]),
            _ => {
                for i in (1..rows).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
            }
        }

        let mut want = vec![f32::NAN; rows * out_dim];
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, &mut want);
        let mut got = vec![f32::NAN; rows * out_dim];
        simd::dense_ragged(&x, &ext, &order, &w, &b, in_dim, out_dim, &mut got);
        assert_same(&got, &want, "ragged forward")?;
    }

    /// `gemm_tn_ragged` gives `gemm_tn_blocks`' bits over the zero-padded
    /// rows: each input group sums only the rows that reach it, in row
    /// order, block by block, with block ends every 512 rows or anywhere.
    #[test]
    fn ragged_tn_is_gemm_tn_blocks_over_zero_padding(
        r in 1usize..1300,
        m in 1usize..40,
        n_pick in 0usize..7,
        seed in 0u64..10_000,
    ) {
        let n = [1, 3, 8, 9, 16, 32, 40][n_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let ext = extents(&mut rng, r, m);
        let a = padded_rows(&mut rng, &ext, m);
        let b: Vec<f32> = (0..r * n).map(|_| value(&mut rng, 8)).collect();
        let ends = block_ends(&mut rng, r);

        let mut want = vec![f32::NAN; m * n];
        if !simd::gemm_tn_blocks(&a, m, &b, n, ends.iter().copied(), &mut want) {
            simd::gemm_tn_scalar(&a, r, m, &b, n, &mut want);
        }
        let mut got = vec![f32::NAN; m * n];
        let mut active = Vec::new();
        simd::gemm_tn_ragged(&a, m, &ext, &b, n, ends.iter().copied(), &mut active, &mut got);
        assert_same(&got, &want, "ragged dW")?;
    }

    /// The rollout critic's forward, which reads each window up to its
    /// last job, is `mlp_forward` over the whole windows — with a −0
    /// first-layer bias too.
    #[test]
    fn window_forward_is_mlp_forward(
        rows in 1usize..9,
        slots in 1usize..20,
        hidden in 1usize..40,
        neg_zero_bias in 0u32..2,
        seed in 0u64..10_000,
    ) {
        const F: usize = 7;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(
            &[slots * F, hidden, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        if neg_zero_bias == 1 {
            mlp.layers[0].b.data_mut().fill(-0.0);
        }
        let jobs: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..=slots)).collect();
        let ext: Vec<usize> = jobs.iter().map(|&j| j * F).collect();
        let x = padded_rows(&mut rng, &ext, slots * F);

        let (mut scratch, mut want, mut got) = (Scratch::new(), Vec::new(), Vec::new());
        infer::mlp_forward(&mlp, &x, rows, &mut scratch, &mut want);
        infer::window_mlp_forward(&mlp, &x, rows, F, &mut scratch, &mut got);
        assert_same(&got, &want, "critic forward")?;
    }
}

#[test]
fn ragged_kernels_hold_at_the_critics_width() {
    // The critic's first layer: 896 inputs, 32 outputs, windows of every
    // fill across two 512-row blocks.
    let (r, m, n) = (600, 896, 32);
    let mut rng = StdRng::seed_from_u64(7);
    let ext: Vec<usize> = (0..r).map(|_| 7 * rng.gen_range(0..=128usize)).collect();
    let a = padded_rows(&mut rng, &ext, m);
    let b: Vec<f32> = (0..r * n).map(|_| value(&mut rng, 3)).collect();
    let mut want = vec![f32::NAN; m * n];
    if !simd::gemm_tn(&a, r, m, &b, n, &mut want) {
        simd::gemm_tn_scalar(&a, r, m, &b, n, &mut want);
    }
    let mut got = vec![f32::NAN; m * n];
    let mut active = Vec::new();
    let ends = simd::tn_block_ends(r);
    simd::gemm_tn_ragged(&a, m, &ext, &b, n, ends, &mut active, &mut got);
    assert!(
        got.iter().zip(&want).all(|(&g, &w)| same(g, w)),
        "ragged dW at 896 x 32"
    );

    let w: Vec<f32> = (0..m * n).map(|_| value(&mut rng, 8)).collect();
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let mut order: Vec<u32> = (0..r as u32).collect();
    order.sort_by_key(|&t| ext[t as usize]);
    let mut want = vec![f32::NAN; r * n];
    simd::dense_any(&a, r, &w, &bias, m, n, &mut want);
    let mut got = vec![f32::NAN; r * n];
    simd::dense_ragged(&a, &ext, &order, &w, &bias, m, n, &mut got);
    assert!(
        got.iter().zip(&want).all(|(&g, &w)| same(g, w)),
        "ragged forward at 896 x 32"
    );
}
