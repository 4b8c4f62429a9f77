//! Property tests: the runtime-dispatched SIMD kernels must agree with
//! the scalar reference loops for every matmul flavor the training path
//! uses — forward (`C = A·B`, bias-seeded dense included), `dA = dC·Bᵀ`
//! (NT) and `dB = Aᵀ·dC` (TN) — across ragged shapes (rows/cols not
//! multiples of the 4×8 block), including rows == 1 and widths past the
//! one-row remainder's 64-column tile.
//!
//! The kernels fuse multiply-adds and reorder accumulation, so values are
//! compared within an ulp-scale relative tolerance; on machines (or CI
//! arms) where SIMD is unavailable the dispatch falls back to the very
//! loops we compare against and the properties hold trivially.

use proptest::prelude::*;

use rlsched_nn::infer::{self, Scratch};
use rlsched_nn::layers::{Activation, Mlp};
use rlsched_nn::simd;
use rlsched_nn::Tensor;

const TOL: f32 = 1e-4;

fn assert_close(simd: &[f32], scalar: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(simd.len(), scalar.len());
    for (i, (a, b)) in simd.iter().zip(scalar).enumerate() {
        prop_assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "element {}: dispatched {} vs scalar {}",
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward: `matmul_into` (the reference tape's MatMul op) ≡ the scalar
    /// i-k-j loop on ragged shapes, including single-row products.
    #[test]
    fn matmul_dispatch_matches_scalar(
        m in 1usize..10,
        k in 1usize..34,
        n in 1usize..140,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let a = pseudo(m, k, seed_a);
        let b = pseudo(k, n, seed_b);
        let mut dispatched = Vec::new();
        rlsched_nn_ref::matmul_into(&a, &b, &mut dispatched);
        let mut scalar = vec![0.0f32; m * n];
        simd::gemm_scalar(a.data(), m, k, b.data(), n, &mut scalar);
        assert_close(&dispatched, &scalar)?;
    }

    /// Backward dA: `matmul_nt_into` (`dA = dC·Bᵀ`) ≡ per-element dot
    /// products, including rows == 1.
    #[test]
    fn matmul_nt_dispatch_matches_scalar(
        m in 1usize..10,
        k in 1usize..34,
        n in 1usize..40,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let a = pseudo(m, k, seed_a);
        let b = pseudo(n, k, seed_b);
        let mut dispatched = Vec::new();
        rlsched_nn_ref::matmul_nt_into(&a, &b, &mut dispatched);
        let mut scalar = vec![0.0f32; m * n];
        simd::gemm_nt_scalar(a.data(), m, k, b.data(), n, &mut scalar);
        assert_close(&dispatched, &scalar)?;
    }

    /// Backward dB: `matmul_tn_into` (`dB = Aᵀ·dC`) ≡ the scalar rank-1
    /// update loop.
    #[test]
    fn matmul_tn_dispatch_matches_scalar(
        r in 1usize..34,
        m in 1usize..12,
        n in 1usize..40,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let a = pseudo(r, m, seed_a);
        let b = pseudo(r, n, seed_b);
        let mut dispatched = Vec::new();
        rlsched_nn_ref::matmul_tn_into(&a, &b, &mut dispatched);
        let mut scalar = vec![0.0f32; m * n];
        simd::gemm_tn_scalar(a.data(), r, m, b.data(), n, &mut scalar);
        assert_close(&dispatched, &scalar)?;
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
        let a = pseudo(r, m, seed_a);
        let mut b = pseudo(r, n, seed_b).data().to_vec();
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
        if !simd::gemm_tn(a.data(), r, m, &b, n, &mut full) {
            simd::gemm_tn_scalar(a.data(), r, m, &b, n, &mut full);
        }

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
        if !simd::gemm_tn_blocks(&ka, m, &kb, n, ends.iter().copied(), &mut compact) {
            simd::gemm_tn_scalar(&ka, kept, m, &kb, n, &mut compact);
        }
        for (i, (c, f)) in compact.iter().zip(&full).enumerate() {
            prop_assert!(
                c.to_bits() == f.to_bits(),
                "element {}: kept rows {} vs all rows {} ({} of {} rows kept)",
                i, c, f, kept, r
            );
        }
    }

    /// The bias-seeded dense forward (shared by the inference fast path,
    /// the fused training pass and the reference tape) ≡ the portable
    /// kernel.
    #[test]
    fn dense_dispatch_matches_portable(
        rows in 1usize..10,
        in_dim in 1usize..20,
        out_dim in 1usize..140,
        seed_x in 0u64..1000,
        seed_w in 0u64..1000,
    ) {
        let x = pseudo(rows, in_dim, seed_x);
        let w = pseudo(in_dim, out_dim, seed_w);
        let b: Vec<f32> = (0..out_dim).map(|j| (j as f32 * 0.3).sin() * 0.1).collect();
        let mut dispatched = vec![0.0f32; rows * out_dim];
        simd::dense_any(x.data(), rows, w.data(), &b, in_dim, out_dim, Activation::Identity, &mut dispatched);
        let mut portable = vec![0.0f32; rows * out_dim];
        simd::dense_portable(x.data(), rows, w.data(), &b, in_dim, out_dim, &mut portable);
        assert_close(&dispatched, &portable)?;
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
        let x = pseudo(rows, in_dim, seed ^ 0x5eed);

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

/// Deterministic pseudo-random matrix (keeps the strategy space on the
/// shape dims, where the block-boundary edge cases live).
fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
            ((h >> 33) as f32 / (1u64 << 31) as f32) * 3.0 - 1.5
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}
