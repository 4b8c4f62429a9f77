//! The inference fast path against the reference tape: both run the same
//! kernels and loops, so dense chains, log-softmax and conv/pool forwards
//! agree bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{FusedHead, FusedPolicy};
use rlsched_nn::infer::{self, Scratch};
use rlsched_nn::{Activation, Mlp, Tensor};
use rlsched_nn_ref::Graph;

/// The reference tape's output of a dense chain over `x`.
fn tape_forward(mlp: &Mlp, x: &[f32], rows: usize) -> Vec<f32> {
    let mut g = Graph::new();
    let o = g.input_from(x, &[rows, mlp.in_dim()]);
    let p = FusedPolicy {
        convs: vec![],
        mlp: mlp.clone(),
        head: FusedHead::Flat,
    };
    let (y, _) = rlsched_nn_ref::forward(&mut g, &p, o, rows);
    g.value(y).data().to_vec()
}

#[test]
fn mlp_fast_path_matches_tape() {
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(
        &[7, 32, 16, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let rows = 128;
    let x: Vec<f32> = (0..rows * 7)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.02)
        .collect();
    let tape_out = tape_forward(&mlp, &x, rows);

    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    infer::mlp_forward(&mlp, &x, rows, &mut scratch, &mut out);
    assert_eq!(out.len(), tape_out.len());
    for (a, b) in out.iter().zip(&tape_out) {
        assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

#[test]
fn dispatched_kernel_matches_tape_bitwise() {
    // The tape's dense node and the fast path share one `simd::dense_any`,
    // so the two must agree bit-for-bit — including the out_dim 4
    // (portable body) and AVX2-eligible out_dim 16 layers here.
    let mut rng = StdRng::seed_from_u64(9);
    let mlp = Mlp::new(
        &[5, 16, 4],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    let rows = 6;
    let x: Vec<f32> = (0..rows * 5)
        .map(|i| ((i * 13 % 29) as f32 - 14.0) * 0.05)
        .collect();
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    infer::mlp_forward(&mlp, &x, rows, &mut scratch, &mut out);
    assert_eq!(
        out,
        tape_forward(&mlp, &x, rows),
        "tape and fast path share one kernel dispatch"
    );
}

#[test]
fn log_softmax_inplace_matches_tape() {
    let logits = vec![1.5f32, -0.5, 3.0, 0.0];
    let mut fast = logits.clone();
    infer::log_softmax_inplace(&mut fast);

    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(logits, &[1, 4]));
    let ls = g.log_softmax(x);
    assert_eq!(fast.as_slice(), g.value(ls).data());
}

#[test]
fn conv_and_pool_match_tape() {
    let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.7).sin()).collect();
    let w: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).cos()).collect();
    let b = vec![0.1f32, -0.2];

    let mut g = Graph::new();
    let xv = g.input(Tensor::from_vec(x.clone(), &[1, 2, 4, 4]));
    let wv = g.input(Tensor::from_vec(w.clone(), &[2, 2, 2, 2]));
    let bv = g.input(Tensor::from_vec(b.clone(), &[2]));
    let c = g.conv2d(xv, wv, bv, 1); // [1,2,3,3]
    let r = g.act(c, Activation::Relu);
    let p = g.max_pool2d(r, 3); // [1,2,1,1]

    let mut conv_out = Vec::new();
    let (oh, ow) = infer::conv2d_forward(&x, &w, &b, 1, 2, 4, 4, 2, 2, 2, 1, &mut conv_out);
    assert_eq!((oh, ow), (3, 3));
    assert_eq!(conv_out.as_slice(), g.value(c).data());

    Activation::Relu.apply_slice(&mut conv_out);
    let mut pool_out = Vec::new();
    infer::max_pool2d_forward(&conv_out, 1, 2, 3, 3, 3, &mut pool_out);
    assert_eq!(pool_out.as_slice(), g.value(p).data());
}
