//! Property tests: every dispatched kernel entry point gives its portable
//! body's bits (`rlsched_nn::simd::portable`), `==` with NaN matching
//! NaN, in one process — for every matmul flavor the training path uses:
//! forward (`C = A·B`, bias-seeded dense and ragged rows included),
//! `dA = dC·Bᵀ` (the gemm over transposed weights) and `dB = Aᵀ·dC` (TN,
//! row-blocked and ragged) — across ragged shapes (rows/cols not multiples
//! of the 4×8 block), including rows == 1, widths past the one-row
//! remainder's 64-column tile, and ±0, ±inf, NaN and subnormal inputs.
//!
//! On an AVX-512 CPU the dispatched kernels run the 512-bit tiles at 16
//! or more columns, so every property holds both arms to the portable
//! bodies: the dispatched one and `simd::avx2` (the same CPU's kernels
//! without the 512-bit tiles). The widths 16, 17, 31, 32, 33, 48 and 64
//! are drawn often: one and two 16-lane vectors, with and without an
//! 8-lane or scalar column tail. On a CPU without AVX2 every side runs
//! the portable body and the properties hold trivially; `golden.rs` then
//! checks the bits against the ones an AVX2 machine committed.

use proptest::prelude::*;

use rlsched_nn::infer::{self, Scratch};
use rlsched_nn::layers::{Activation, Mlp};
use rlsched_nn::simd::{self, portable};
use rlsched_nn::Tensor;

/// Run `$body` twice, with `$arm` naming the dispatched kernels
/// (`rlsched_nn::simd`) and then the AVX2 kernels (`simd::avx2`), and
/// `$label` saying which.
macro_rules! on_both_arms {
    (|$arm:ident, $label:ident| $body:block) => {{
        {
            use rlsched_nn::simd as $arm;
            let $label = "dispatched";
            $body
        }
        {
            use rlsched_nn::simd::avx2 as $arm;
            let $label = "avx2";
            $body
        }
    }};
}

/// The output widths where the 512-bit tiles change shape: one vector,
/// one with a scalar tail, one with an 8-lane tail, two, two with a
/// tail, three and four.
fn tile_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(16usize),
        Just(17),
        Just(31),
        Just(32),
        Just(33),
        Just(48),
        Just(64),
    ]
}

/// Equal bits, or both NaN (a NaN's payload depends on operand order,
/// which no kernel contract fixes).
fn assert_same(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    assert_same_on("dispatched", got, want)
}

/// [`assert_same`] for the kernels `arm` names.
fn assert_same_on(arm: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "element {}: {} {:e} vs portable {:e}",
            i,
            arm,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward: `matmul_into` (the reference tape's MatMul op, `simd::gemm`)
    /// and the AVX2 gemm ≡ the portable gemm on ragged shapes, including
    /// single-row products, a third of the time one output column (the
    /// eight-rows-per-vector head) and a third a width where the 512-bit
    /// tiles change shape.
    #[test]
    fn matmul_dispatch_matches_scalar(
        m in 1usize..20,
        k in 1usize..34,
        n in prop_oneof![Just(1usize), 1usize..140, tile_width()],
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        special_one_in in prop_oneof![Just(0u64), Just(7)],
    ) {
        let a = pseudo(m, k, seed_a, special_one_in);
        let b = pseudo(k, n, seed_b, special_one_in);
        let mut dispatched = Vec::new();
        rlsched_nn_ref::matmul_into(&a, &b, &mut dispatched);
        let mut chains = vec![f32::NAN; m * n];
        portable::gemm(a.data(), m, k, b.data(), n, None, &mut chains);
        assert_same(&dispatched, &chains)?;
        let mut avx2 = vec![f32::NAN; m * n];
        simd::avx2::gemm(a.data(), m, k, b.data(), n, None, &mut avx2);
        assert_same_on("avx2", &avx2, &chains)?;
    }

    /// Backward dA: `matmul_nt_into` (`dA = dC·Bᵀ`, the gemm over the
    /// transposed weights that every dense backward runs) and the AVX2
    /// gemm ≡ the portable gemm over the same transpose, including
    /// rows == 1.
    #[test]
    fn matmul_nt_dispatch_matches_scalar(
        m in 1usize..10,
        k in 1usize..34,
        n in prop_oneof![1usize..40, tile_width()],
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        special_one_in in prop_oneof![Just(0u64), Just(7)],
    ) {
        let a = pseudo(m, k, seed_a, special_one_in);
        let b = pseudo(n, k, seed_b, special_one_in);
        let mut dispatched = Vec::new();
        rlsched_nn_ref::matmul_nt_into(&a, &b, &mut dispatched);
        let mut bt = vec![0.0f32; k * n];
        simd::transpose(b.data(), n, k, &mut bt);
        let mut chains = vec![f32::NAN; m * n];
        portable::gemm(a.data(), m, k, &bt, n, None, &mut chains);
        assert_same(&dispatched, &chains)?;
        let mut avx2 = vec![f32::NAN; m * n];
        simd::avx2::gemm(a.data(), m, k, &bt, n, None, &mut avx2);
        assert_same_on("avx2", &avx2, &chains)?;
    }

    /// Backward dB: `gemm_tn_blocks` (`dB = Aᵀ·dC`) ≡ the portable
    /// block-summed chains, with blocks every 512 rows (`matmul_tn_into`,
    /// the tape's) or cut anywhere, empty blocks included, on both arms;
    /// `m` up to 40 reaches every group width of both (sixteen, eight,
    /// seven, four, two and one `A` columns).
    #[test]
    fn matmul_tn_dispatch_matches_scalar(
        r in 1usize..1100,
        m in 1usize..41,
        n in prop_oneof![1usize..40, tile_width()],
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        special_one_in in prop_oneof![Just(0u64), Just(7)],
    ) {
        let a = pseudo(r, m, seed_a, special_one_in);
        let b = pseudo(r, n, seed_b, special_one_in);
        let mut tape = Vec::new();
        rlsched_nn_ref::matmul_tn_into(&a, &b, &mut tape);
        let mut chains = vec![f32::NAN; m * n];
        portable::gemm_tn_blocks(a.data(), m, b.data(), n, simd::tn_block_ends(r), &mut chains);
        assert_same(&tape, &chains)?;

        let mut ends: Vec<usize> = cuts.iter().map(|c| (c * r as f64) as usize).collect();
        ends.push(r);
        ends.sort_unstable();
        portable::gemm_tn_blocks(a.data(), m, b.data(), n, ends.iter().copied(), &mut chains);
        on_both_arms!(|arm, label| {
            let mut got = vec![f32::NAN; m * n];
            arm::gemm_tn_blocks(a.data(), m, b.data(), n, ends.iter().copied(), &mut got);
            assert_same_on(label, &got, &chains)?;
        });
    }

    /// Leaving rows out of `dB = Aᵀ·dC` whose `dC` row is all zero
    /// changes no bit, as long as the kept rows keep their blocks:
    /// `gemm_tn_blocks` over the kept rows, with every 512-row boundary
    /// of the full product mapped to the kept row that holds it, equals
    /// `gemm_tn` over all rows with the zero rows in place — exactly. The
    /// left-out rows' `A` rows are not zero (like a padding row's hidden
    /// activations), and the products span up to four row blocks.
    #[test]
    fn tn_over_kept_rows_with_mapped_block_ends_is_exact(
        r in 1usize..1700,
        m in 1usize..12,
        n in 1usize..40,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        drop_one_in in 1u64..5,
    ) {
        let a = pseudo(r, m, seed_a, 0);
        let mut b = pseudo(r, n, seed_b, 0).data().to_vec();
        // Zero about `drop_one_in - 1` of every `drop_one_in` rows of dC
        // and leave most of those out; a few zero rows stay in.
        let dropped: Vec<bool> = (0..r as u64)
            .map(|i| {
                let h = (i ^ seed_b).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                h % drop_one_in != 0
            })
            .collect();
        for (row, &d) in b.chunks_mut(n).zip(&dropped) {
            if d {
                row.fill(0.0);
            }
        }
        let left_out = |i: usize| dropped[i] && !i.is_multiple_of(5);

        let mut full = vec![f32::NAN; m * n];
        simd::gemm_tn(a.data(), r, m, &b, n, &mut full);

        let (mut ka, mut kb, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..r {
            if i > 0 && i % simd::TN_BLOCK_ROWS == 0 {
                ends.push(kb.len() / n);
            }
            if !left_out(i) {
                ka.extend_from_slice(&a.data()[i * m..(i + 1) * m]);
                kb.extend_from_slice(&b[i * n..(i + 1) * n]);
            }
        }
        let kept = kb.len() / n;
        ends.push(kept);
        let mut compact = vec![f32::NAN; m * n];
        simd::gemm_tn_blocks(&ka, m, &kb, n, ends.iter().copied(), &mut compact);
        for (i, (c, f)) in compact.iter().zip(&full).enumerate() {
            prop_assert!(
                c.to_bits() == f.to_bits(),
                "element {}: kept rows {} vs all rows {} ({} of {} rows kept)",
                i, c, f, kept, r
            );
        }
    }

    /// The bias-seeded dense forward (shared by the inference fast path,
    /// the fused training pass and the reference tape) ≡ its portable
    /// body on both arms, ReLU at the store and the activations applied
    /// after it included; a third of the cases are a one-column head.
    #[test]
    fn dense_dispatch_matches_portable(
        rows in 1usize..20,
        in_dim in 1usize..20,
        out_dim in prop_oneof![Just(1usize), 1usize..140, tile_width()],
        act in prop_oneof![
            Just(Activation::Identity),
            Just(Activation::Relu),
            Just(Activation::Tanh),
        ],
        seed_x in 0u64..1000,
        seed_w in 0u64..1000,
        special_one_in in prop_oneof![Just(0u64), Just(7)],
    ) {
        let x = pseudo(rows, in_dim, seed_x, special_one_in);
        let w = pseudo(in_dim, out_dim, seed_w, special_one_in);
        let b = pseudo(1, out_dim, seed_x ^ seed_w, special_one_in);
        let (x, w, b) = (x.data(), w.data(), b.data());
        let mut chains = vec![f32::NAN; rows * out_dim];
        portable::dense_any(x, rows, w, b, in_dim, out_dim, act, &mut chains);
        on_both_arms!(|arm, label| {
            let mut got = vec![f32::NAN; rows * out_dim];
            arm::dense_any(x, rows, w, b, in_dim, out_dim, act, &mut got);
            assert_same_on(label, &got, &chains)?;
        });
    }

    /// The ragged kernels (the flat chains' first layer, forward and
    /// `dW`) ≡ their portable bodies on both arms: rows of every extent
    /// in a shuffled block order, zero past each extent, with non-finite
    /// weights, live values and `dC` entries, a −0 bias entry, and row
    /// blocks cut anywhere.
    #[test]
    fn ragged_dispatch_matches_portable(
        rows in 1usize..40,
        in_dim in 1usize..40,
        out_dim in prop_oneof![
            Just(1usize),
            Just(3),
            Just(8),
            Just(13),
            Just(40),
            tile_width(),
        ],
        seed in 0u64..1000,
        special_one_in in prop_oneof![Just(0u64), Just(7)],
        cut in 0.0f64..1.0,
    ) {
        let ext: Vec<usize> = (0..rows as u64)
            .map(|r| (mix(r, seed) % (in_dim as u64 + 1)) as usize)
            .collect();
        let mut x = pseudo(rows, in_dim, seed, special_one_in).data().to_vec();
        for (row, &e) in x.chunks_mut(in_dim).zip(&ext) {
            row[e..].fill(0.0);
        }
        let w = pseudo(in_dim, out_dim, seed ^ 1, special_one_in);
        let mut b = pseudo(1, out_dim, seed ^ 2, special_one_in).data().to_vec();
        b[0] = -0.0;
        let mut order: Vec<u32> = (0..rows as u32).collect();
        order.sort_by_key(|&r| mix(r as u64, seed ^ 3));

        let mut chains = vec![f32::NAN; rows * out_dim];
        portable::dense_ragged(&x, &ext, &order, w.data(), &b, in_dim, out_dim, &mut chains);
        let dc = pseudo(rows, out_dim, seed ^ 4, special_one_in);
        let ends = [(cut * rows as f64) as usize, rows];
        let mut active = Vec::new();
        let mut dw = vec![f32::NAN; in_dim * out_dim];
        portable::gemm_tn_ragged(&x, in_dim, &ext, dc.data(), out_dim, ends, &mut active, &mut dw);
        on_both_arms!(|arm, label| {
            let mut got = vec![f32::NAN; rows * out_dim];
            arm::dense_ragged(&x, &ext, &order, w.data(), &b, in_dim, out_dim, &mut got);
            assert_same_on(label, &got, &chains)?;
            let mut got = vec![f32::NAN; in_dim * out_dim];
            arm::gemm_tn_ragged(&x, in_dim, &ext, dc.data(), out_dim, ends, &mut active, &mut got);
            assert_same_on(label, &got, &dw)?;
        });
    }

    /// Row-count invariance of the MLP forward, **exactly**: row `i` of a
    /// stacked `mlp_forward` must reproduce a one-row forward of row `i`
    /// bit for bit, at every batch size — what lets a served batch, a
    /// lockstep evaluation and a single decision agree. The widths reach
    /// the one-row remainder's 64- and 32-column tiles, the 4-row blocks,
    /// the row remainder and the odd-n column remainder.
    #[test]
    fn mlp_batch_rows_are_bit_identical_to_single_rows(
        rows in 1usize..11,
        in_dim in 1usize..34,
        hidden in 1usize..140,
        out_dim in 1usize..140,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &[in_dim, hidden, out_dim],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let x = pseudo(rows, in_dim, seed ^ 0x5eed, 0);

        let mut scratch = Scratch::new();
        let mut batched = Vec::new();
        infer::mlp_forward(&mlp, x.data(), rows, &mut scratch, &mut batched);
        prop_assert_eq!(batched.len(), rows * out_dim);

        let mut single = Vec::new();
        for r in 0..rows {
            infer::mlp_forward(
                &mlp,
                &x.data()[r * in_dim..(r + 1) * in_dim],
                1,
                &mut scratch,
                &mut single,
            );
            for (j, (&b, &s)) in batched[r * out_dim..(r + 1) * out_dim]
                .iter()
                .zip(&single)
                .enumerate()
            {
                prop_assert!(
                    b.to_bits() == s.to_bits(),
                    "row {} col {}: batched {} != single {}",
                    r, j, b, s
                );
            }
        }
    }
}

/// A hash of `i` under `seed`.
fn mix(i: u64, seed: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seed.wrapping_mul(0x2545_f491_4f6c_dd1d))
        >> 33
}

/// Deterministic pseudo-random matrix (keeps the strategy space on the
/// shape dims, where the block-boundary edge cases live): values in
/// ±1.5, and with `special_one_in > 0` about one in that many replaced by
/// ±0, ±inf, NaN or a subnormal.
fn pseudo(rows: usize, cols: usize, seed: u64, special_one_in: u64) -> Tensor {
    let data = (0..(rows * cols) as u64)
        .map(|i| {
            let h = mix(i, seed);
            if special_one_in > 0 && h.is_multiple_of(special_one_in) {
                return [
                    0.0,
                    -0.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::NAN,
                    f32::from_bits(5),
                ][(h / special_one_in % 6) as usize];
            }
            (h as f32 / (1u64 << 31) as f32) * 3.0 - 1.5
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}
