//! Property-based fused ≡ tape gradient parity: for random MLP-chain
//! policies (flat and kernel heads), random PPO batches and random
//! hyperparameters, the tape-free fused forward+backward must produce the
//! **same bits** as the autodiff tape building the exact `Ppo::update`
//! op pipeline — loss, selected log-probs, and every parameter gradient —
//! on batches of up to `SHARD_ROWS` rows (one chunk, which is how every
//! ≤ 64-row minibatch runs); a multi-chunk case pins exact forward
//! diagnostics and bounds the gradient re-association drift.
//! CI runs this on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`); the contract holds on each arm separately.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch, SHARD_ROWS};
use rlsched_nn::{Activation, Graph, Mlp, Network, ParamBinds, Tensor};

/// Build the exact policy-loss graph `Ppo::update` builds on the tape
/// and return `(loss, selected logp, grads in bind order)`.
#[allow(clippy::too_many_arguments)]
fn tape_policy_grads(
    mlp: &Mlp,
    head: FusedHead,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
    n: usize,
) -> (f32, Vec<f32>, Vec<Tensor>) {
    let width = masks.len() / n;
    let mut g = Graph::new();
    let mut binds = ParamBinds::new();
    let o = g.input_from(obs, &[n, obs.len() / n]);
    let m = g.input_from(masks, &[n, width]);
    let logits = match head {
        FusedHead::Flat => mlp.forward(&mut g, o, &mut binds),
        FusedHead::Kernel { window } => {
            let per_job = g.reshape(o, &[n * window, mlp.in_dim()]);
            let scores = mlp.forward(&mut g, per_job, &mut binds);
            g.reshape(scores, &[n, window])
        }
    };
    let masked = g.add(logits, m);
    let logp_all = g.log_softmax(masked);
    let logp = g.select_cols(logp_all, actions);
    let old = g.input_from(logp_old, &[n]);
    let diff = g.sub(logp, old);
    let ratio = g.exp(diff);
    let advv = g.input_from(advantages, &[n]);
    let surr1 = g.mul(ratio, advv);
    let clipped = g.clamp(ratio, 1.0 - clip, 1.0 + clip);
    let surr2 = g.mul(clipped, advv);
    let obj = g.min_elem(surr1, surr2);
    let mean_obj = g.mean(obj);
    let mut loss = g.scale(mean_obj, -1.0);
    if ent_coef != 0.0 {
        let p = g.exp(logp_all);
        let plogp = g.mul(p, logp_all);
        let row = g.sum_rows(plogp);
        let ent = g.mean(row);
        let weighted = g.scale(ent, ent_coef);
        loss = g.add(loss, weighted);
    }
    g.backward(loss);
    let sel = g.value(logp).data().to_vec();
    let loss_v = g.value(loss).item();
    let grads = binds.take_grads(&mut g);
    (loss_v, sel, grads)
}

fn lcg(seed: &mut u64) -> f32 {
    // Deterministic input stream independent of the rand shim.
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn policy_grads_match_tape_bitwise(
        n in 1usize..=SHARD_ROWS,
        width in 2usize..9,
        hidden in prop::collection::vec(prop_oneof![Just(4usize), Just(8), Just(16), Just(32)], 1..3),
        kernel_head in any::<bool>(),
        features in 3usize..9,
        net_seed in any::<u64>(),
        data_seed in any::<u64>(),
        ent_coef in prop_oneof![Just(0.0f32), Just(0.01), Just(0.1)],
        clip in 0.1f32..0.4,
    ) {
        let (head, in_dim, out_dim) = if kernel_head {
            (FusedHead::Kernel { window: width }, features, 1)
        } else {
            (FusedHead::Flat, features * 2, width)
        };
        let mut dims = vec![in_dim];
        dims.extend(&hidden);
        dims.push(out_dim);
        let mut rng = StdRng::seed_from_u64(net_seed);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let obs_dim = if kernel_head { width * features } else { in_dim };

        let mut s = data_seed | 1;
        let obs: Vec<f32> = (0..n * obs_dim).map(|_| lcg(&mut s) * 2.0).collect();
        let masks: Vec<f32> = (0..n * width)
            .map(|i| if lcg(&mut s) > 0.35 && i % width != 0 { -1.0e9 } else { 0.0 })
            .collect();
        let actions: Vec<usize> = (0..n).map(|_| ((lcg(&mut s).abs() * 97.0) as usize) % width).collect();
        let advantages: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let logp_old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        let (tape_loss, tape_sel, tape_grads) = tape_policy_grads(
            &mlp, head, &obs, &masks, &actions, &advantages, &logp_old, clip, ent_coef, n,
        );

        let p = FusedPolicy { mlp: &mlp, head };
        let mut scratch = FusedScratch::new();
        let fused_loss = fused::policy_pass(
            &p, &obs, &masks, &actions, &advantages, &logp_old, clip, ent_coef, n, &mut scratch,
        )
        .loss;
        prop_assert_eq!(scratch.selected_logp().collect::<Vec<_>>(), tape_sel,
            "selected log-probs must match the tape exactly");
        prop_assert_eq!(fused_loss, tape_loss, "loss value");
        prop_assert_eq!(scratch.grads().len(), tape_grads.len());
        for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
            prop_assert_eq!(f.shape(), t.shape(), "grad {} shape", i);
            prop_assert_eq!(f.data(), t.data(), "grad {} bits diverged from the tape", i);
        }
    }

    #[test]
    fn value_grads_match_tape_bitwise(
        n in 1usize..=SHARD_ROWS,
        obs_dim in 4usize..40,
        h in prop_oneof![Just(8usize), Just(16), Just(32)],
        net_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(net_seed);
        let mlp = Mlp::new(&[obs_dim, h, h / 2, 1], Activation::Relu, Activation::Identity, &mut rng);
        let mut s = data_seed | 1;
        let obs: Vec<f32> = (0..n * obs_dim).map(|_| lcg(&mut s) * 2.0).collect();
        let returns: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 10.0).collect();

        // The exact value-loss graph Ppo::update builds.
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(&obs, &[n, obs_dim]);
        let v = mlp.forward(&mut g, o, &mut binds);
        let r = g.input_from(&returns, &[n, 1]);
        let d = g.sub(v, r);
        let sq = g.mul(d, d);
        let loss = g.mean(sq);
        g.backward(loss);
        let tape_loss = g.value(loss).item();
        let tape_grads = binds.take_grads(&mut g);

        let mut scratch = FusedScratch::new();
        let fused_loss = fused::value_pass(&mlp, &obs, &returns, n, &mut scratch).loss;
        prop_assert_eq!(fused_loss, tape_loss, "value loss");
        for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
            prop_assert_eq!(f.data(), t.data(), "value grad {} diverged", i);
        }
    }
}

/// Across chunk boundaries the forward stays exact (row-local outputs on
/// row-count-invariant kernels) while dW/db and the loss re-associate
/// their f32 row sums per chunk: loss within 1e-6, every gradient within
/// 1e-4 relative of the tape's.
#[test]
fn multi_chunk_policy_pass_matches_tape_within_tolerance() {
    let n = 2 * SHARD_ROWS + 19; // three chunks, last ragged
    for (head, dims, width) in [
        (FusedHead::Flat, vec![6, 16, 9], 9),
        (FusedHead::Kernel { window: 5 }, vec![4, 16, 8, 1], 5),
    ] {
        let mut rng = StdRng::seed_from_u64(17);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let obs_dim = match head {
            FusedHead::Flat => dims[0],
            FusedHead::Kernel { window } => window * dims[0],
        };
        let mut s = 0x5eed;
        let obs: Vec<f32> = (0..n * obs_dim).map(|_| lcg(&mut s) * 2.0).collect();
        let masks: Vec<f32> = (0..n * width)
            .map(|i| {
                if lcg(&mut s) > 0.35 && i % width != 0 {
                    -1.0e9
                } else {
                    0.0
                }
            })
            .collect();
        let actions: Vec<usize> = (0..n)
            .map(|i| if masks[i * width + 1] == 0.0 { 1 } else { 0 })
            .collect();
        let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        let (tape_loss, tape_sel, tape_grads) =
            tape_policy_grads(&mlp, head, &obs, &masks, &actions, &adv, &old, 0.2, 0.01, n);
        let p = FusedPolicy { mlp: &mlp, head };
        let mut scratch = FusedScratch::new();
        let loss = fused::policy_pass(
            &p,
            &obs,
            &masks,
            &actions,
            &adv,
            &old,
            0.2,
            0.01,
            n,
            &mut scratch,
        )
        .loss;
        assert_eq!(
            scratch.selected_logp().collect::<Vec<_>>(),
            tape_sel,
            "{head:?}: selected logp"
        );
        assert!(
            (loss - tape_loss).abs() <= 1e-6,
            "{head:?}: {loss} vs {tape_loss}"
        );
        for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
            for (x, y) in f.data().iter().zip(t.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "{head:?} grad {i}: {x} vs {y}"
                );
            }
        }
    }
}
