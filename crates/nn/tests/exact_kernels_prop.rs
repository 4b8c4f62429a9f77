//! Exact-kernel properties: the kernels that skip arithmetic must give
//! the bits of the kernels that do it, and every kernel the bits of its
//! chain spelled out here, with `==` (NaN matching NaN).
//!
//! * the one-column `dW` of `gemm_tn_blocks` is each block's FMA chain,
//!   non-finite inputs included (`0 × inf` is NaN);
//! * `dense_ragged` is `dense_any` over the zero-padded rows, a −0 bias
//!   included, under any block order;
//! * `gemm_tn_ragged` is `gemm_tn_blocks` over the zero-padded rows, with
//!   block ends on and across the 512-row boundary;
//! * `window_mlp_forward` (the rollout critic) is `mlp_forward`;
//! * `dense_any`'s one-column head is the k-ascending FMA chain from the
//!   bias at any row count and input width, non-finite values included;
//! * every row of an 8-column output is its k-ascending FMA chain from
//!   the bias, whichever block computed it;
//! * ReLU at the store is `Activation::Relu.apply_slice` after the plain kernel,
//!   for ±0, NaN, ±inf and subnormal accumulators in every tile;
//! * a ragged block reads no input past its reach (8-column outputs
//!   included, where whole rows run in blocks of eight);
//! * `gemm_tn_blocks` at fewer than 16 columns (eight `A` columns per
//!   group) is each block's row-ascending FMA chain;
//! * `infer::live_job_rows` is the row-wise count.

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

/// `dW` of one output column: the kernel's and the block model's.
fn one_column(a: &[f32], m: usize, b: &[f32], ends: &[usize]) -> (Vec<f32>, Vec<f32>) {
    let mut got = vec![f32::NAN; m];
    simd::gemm_tn_blocks(a, m, b, 1, ends.iter().copied(), &mut got);
    (got, tn_block_model(a, m, b, 1, ends))
}

#[test]
fn one_column_tn_multiplies_zeros_by_non_finite_dc() {
    // Eleven outputs (an 8-input tile and a three-input tail); two of
    // every three columns of `a` hold a ±0 in the rows whose `dC` is ±inf,
    // and no term is skipped for being zero, so those outputs are NaN (a
    // kernel that skipped them would give a number).
    let (r, m) = (6, 11);
    let b = [0.5, f32::INFINITY, -0.0, f32::NEG_INFINITY, 1.25, -2.0];
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
    let (got, want) = one_column(&a, m, &b, &[r]);
    for (i, w) in want.iter().enumerate().filter(|(i, _)| i % 3 < 2) {
        assert!(w.is_nan(), "output {i}: {w:e}");
    }
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert!(same(g, w), "output {i}: {g:e} vs {w:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-column `dW` is each block's chain from +0, rows
    /// ascending, one FMA per term and no term skipped, the blocks' sums
    /// added in order. `m` is rarely a multiple of 8.
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
        let (got, want) = one_column(&a, m, &b, &ends);
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
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, Activation::Identity, &mut want);
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
        simd::gemm_tn_blocks(&a, m, &b, n, ends.iter().copied(), &mut want);
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
    simd::gemm_tn(&a, r, m, &b, n, &mut want);
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
    simd::dense_any(&a, r, &w, &bias, m, n, Activation::Identity, &mut want);
    let mut got = vec![f32::NAN; r * n];
    simd::dense_ragged(&a, &ext, &order, &w, &bias, m, n, &mut got);
    assert!(
        got.iter().zip(&want).all(|(&g, &w)| same(g, w)),
        "ragged forward at 896 x 32"
    );
}

/// A value of any class: finite in about ±1.5, ±0, ±inf, NaN or a
/// subnormal, `special_one_in` deciding how often it is not finite-normal.
fn any_value(rng: &mut StdRng, special_one_in: u32) -> f32 {
    if rng.gen_range(0..special_one_in) != 0 {
        return rng.gen_range(-1.5f32..1.5);
    }
    match rng.gen_range(0..7) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        _ => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
    }
}

/// `out = x @ w + b` with each element's chain spelled out: from the
/// bias, `k` ascending, one FMA per input.
fn chain_model(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
) -> Vec<f32> {
    let mut out = vec![f32::NAN; rows * out_dim];
    for i in 0..rows {
        for j in 0..out_dim {
            let mut acc = b[j];
            for k in 0..in_dim {
                acc = x[i * in_dim + k].mul_add(w[k * out_dim + j], acc);
            }
            out[i * out_dim + j] = acc;
        }
    }
    out
}

/// `dW = Aᵀ·B` summed block by block: each block's sum a row-ascending
/// chain from +0, one FMA per term, added into the output in block order.
fn tn_block_model(a: &[f32], m: usize, b: &[f32], n: usize, ends: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let mut r0 = 0;
    for &r1 in ends {
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for row in r0..r1 {
                    s = a[row * m + i].mul_add(b[row * n + j], s);
                }
                out[i * n + j] += s;
            }
        }
        r0 = r1;
    }
    out
}

/// The row-wise definition of `live_job_rows`: complete rows up to the
/// last one with a nonzero bit.
fn live_rows_by_row(window: &[f32], features: usize) -> usize {
    let rows = window.chunks_exact(features);
    let padding = rows
        .rev()
        .take_while(|row| row.iter().all(|v| v.to_bits() == 0))
        .count();
    window.len() / features - padding
}

#[test]
fn relu_at_the_store_maps_negative_zero_and_nan_to_positive_zero() {
    // Every output of every width gets a −0 accumulator (a −0 bias and
    // only −0 terms) in even rows and a NaN one in odd rows: a `max` with
    // its operands swapped stores −0 and NaN where ReLU gives +0. The
    // separate pass gives +0 too, in every build (`layers::relu`).
    for out_dim in [1, 7, 8, 9, 16, 24, 32, 33, 64, 72] {
        for rows in [1, 3, 4, 8, 9, 17] {
            let in_dim = 3;
            let x: Vec<f32> = (0..rows * in_dim)
                .map(|i| if (i / in_dim) % 2 == 0 { 0.0 } else { f32::NAN })
                .collect();
            let w = vec![-0.75f32; in_dim * out_dim];
            let b = vec![-0.0f32; out_dim];
            let mut got = vec![f32::NAN; rows * out_dim];
            simd::dense_any(
                &x,
                rows,
                &w,
                &b,
                in_dim,
                out_dim,
                Activation::Relu,
                &mut got,
            );
            let mut plain = vec![f32::NAN; rows * out_dim];
            simd::dense_any(
                &x,
                rows,
                &w,
                &b,
                in_dim,
                out_dim,
                Activation::Identity,
                &mut plain,
            );
            assert!(
                plain
                    .chunks(out_dim)
                    .step_by(2)
                    .flatten()
                    .all(|v| v.to_bits() == 0x8000_0000),
                "the plain kernel ends even rows at -0 ({out_dim} columns)"
            );
            Activation::Relu.apply_slice(&mut plain);
            assert!(
                plain.iter().all(|v| v.to_bits() == 0),
                "apply_slice gives +0"
            );
            for (i, (&g, &p)) in got.iter().zip(&plain).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    p.to_bits(),
                    "{rows}x{out_dim} element {i}: {g:e}"
                );
            }
        }
    }
}

#[test]
fn live_job_rows_edges() {
    for features in [1, 7] {
        for rows in [0, 1, 2, 3, 9, 128] {
            let len = rows * features;
            assert_eq!(
                infer::live_job_rows(&vec![0.0; len], features),
                0,
                "empty window"
            );
            assert_eq!(
                infer::live_job_rows(&vec![1.0; len], features),
                rows,
                "full window"
            );
            for at in 0..len {
                for v in [-0.0, f32::NAN, f32::from_bits(1), f32::MIN_POSITIVE] {
                    let mut window = vec![0.0; len];
                    window[at] = v;
                    assert_eq!(
                        infer::live_job_rows(&window, features),
                        at / features + 1,
                        "{v:e} at {at} of {rows} rows of {features}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-column head (the kernel network's 8→1, every critic's
    /// last layer) is the FMA chain from the bias bit for bit — eight
    /// rows per vector on AVX2, the rest one by one — at row counts and
    /// input widths that are mostly not multiples of 8, over values of
    /// every class; with ReLU it is that chain then `apply_slice`.
    #[test]
    fn one_column_head_is_the_portable_chain(
        rows in 1usize..40,
        in_dim in 1usize..30,
        relu in 0u32..2,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..rows * in_dim).map(|_| any_value(&mut rng, 12)).collect();
        let w: Vec<f32> = (0..in_dim).map(|_| any_value(&mut rng, 16)).collect();
        let b = [any_value(&mut rng, 4)];
        let act = if relu == 1 { Activation::Relu } else { Activation::Identity };
        let mut want = chain_model(&x, rows, &w, &b, in_dim, 1);
        act.apply_slice(&mut want);
        let mut got = vec![f32::NAN; rows];
        simd::dense_any(&x, rows, &w, &b, in_dim, 1, act, &mut got);
        assert_same(&got, &want, "one-column head")?;
    }

    /// Rows of an 8-column output (and 9–15: one vector tile and a
    /// scalar tail) are each their own chain from the bias, whether an
    /// 8-row block, a 4-row block or the one-row tile computed them.
    #[test]
    fn eight_column_rows_are_their_chains(
        rows in 1usize..30,
        in_dim in 1usize..40,
        out_dim in 8usize..16,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..rows * in_dim).map(|_| any_value(&mut rng, 40)).collect();
        let w: Vec<f32> = (0..in_dim * out_dim).map(|_| any_value(&mut rng, 40)).collect();
        let b: Vec<f32> = (0..out_dim).map(|_| any_value(&mut rng, 8)).collect();
        let want = chain_model(&x, rows, &w, &b, in_dim, out_dim);
        let mut got = vec![f32::NAN; rows * out_dim];
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, Activation::Identity, &mut got);
        assert_same(&got, &want, "8-column forward")?;
    }

    /// ReLU applied before the store is `Activation::Relu.apply_slice` after
    /// the plain kernel, in every tile (the one-column head, 8-row and
    /// 4-row blocks, the one-row 64/32/16/8 tiles, the column tail), with
    /// ±0, NaN, ±inf and subnormal inputs and a −0 bias entry.
    #[test]
    fn relu_at_the_store_is_apply_slice(
        rows in 1usize..20,
        in_dim in 1usize..24,
        out_pick in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let out_dim = [1, 7, 8, 9, 16, 24, 32, 33, 64, 72][out_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..rows * in_dim).map(|_| any_value(&mut rng, 6)).collect();
        let w: Vec<f32> = (0..in_dim * out_dim).map(|_| any_value(&mut rng, 30)).collect();
        let b: Vec<f32> = (0..out_dim)
            .map(|j| if j % 3 == 0 { -0.0 } else { any_value(&mut rng, 3) })
            .collect();
        let mut want = vec![f32::NAN; rows * out_dim];
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, Activation::Identity, &mut want);
        Activation::Relu.apply_slice(&mut want);
        let mut got = vec![f32::NAN; rows * out_dim];
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, Activation::Relu, &mut got);
        assert_same(&got, &want, "ReLU at the store")?;
    }

    /// A ragged block runs to its own reach and no further: each row
    /// holds NaN past the reach of its `RAGGED_BLOCK`-row block, which
    /// only a chain that reads too far would meet. Rows sorted by extent
    /// give blocks of differing reach side by side; 8–15 columns are the
    /// widths whose whole rows run in blocks of eight.
    #[test]
    fn ragged_blocks_read_nothing_past_their_reach(
        rows in 1usize..30,
        in_dim in 1usize..40,
        out_dim in 8usize..16,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ext = extents(&mut rng, rows, in_dim);
        let x = padded_rows(&mut rng, &ext, in_dim);
        let w: Vec<f32> = (0..in_dim * out_dim).map(|_| value(&mut rng, 8)).collect();
        let b: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let mut order = Vec::new();
        simd::ragged_order(&ext, &mut order);
        let mut fenced = x.clone();
        for (row, reach) in simd::ragged_reaches(&ext, &order, in_dim) {
            fenced[row * in_dim + reach..(row + 1) * in_dim].fill(f32::NAN);
        }
        let mut want = vec![f32::NAN; rows * out_dim];
        simd::dense_any(&x, rows, &w, &b, in_dim, out_dim, Activation::Identity, &mut want);
        let mut got = vec![f32::NAN; rows * out_dim];
        simd::dense_ragged(&fenced, &ext, &order, &w, &b, in_dim, out_dim, &mut got);
        assert_same(&got, &want, "ragged forward past the reach")?;
    }

    /// `dW` at fewer than 16 columns, where the AVX2 kernel sums eight
    /// `A` columns per group, is each block's FMA chain at any block
    /// ends, over values on a grid (where every product and sum is exact)
    /// and over any finite values.
    #[test]
    fn tn_eight_column_groups_are_the_scalar_sums(
        r in 1usize..1300,
        m in 1usize..40,
        n_pick in 0usize..6,
        grid in 0u32..2,
        seed in 0u64..10_000,
    ) {
        let n = [8, 9, 12, 15, 16, 24][n_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |zero_one_in| {
            if grid == 1 {
                rng.gen_range(-8i32..8) as f32 * 0.125
            } else {
                value(&mut rng, zero_one_in)
            }
        };
        let a: Vec<f32> = (0..r * m).map(|_| draw(6)).collect();
        let b: Vec<f32> = (0..r * n).map(|_| draw(8)).collect();
        let ends = block_ends(&mut rng, r);
        let mut got = vec![f32::NAN; m * n];
        simd::gemm_tn_blocks(&a, m, &b, n, ends.iter().copied(), &mut got);
        assert_same(&got, &tn_block_model(&a, m, &b, n, &ends), "8-column-group dW")?;
    }

    /// `live_job_rows` is the row-wise count, for windows whose live rows
    /// hold sparse values (−0, NaN, a lone bit) and whose padding is
    /// zero, at one and seven features per row.
    #[test]
    fn live_job_rows_is_the_row_wise_count(
        rows in 0usize..140,
        features_pick in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let features = [1, 7][features_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let live = rng.gen_range(0..=rows);
        let mut window = vec![0.0f32; rows * features];
        for v in &mut window[..live * features] {
            *v = match rng.gen_range(0..8) {
                0 => -0.0,
                1 => f32::NAN,
                2 => f32::from_bits(1u32 << rng.gen_range(0u32..32)),
                3 => rng.gen_range(-2.0f32..2.0),
                _ => 0.0,
            };
        }
        prop_assert_eq!(
            infer::live_job_rows(&window, features),
            live_rows_by_row(&window, features)
        );
    }
}
