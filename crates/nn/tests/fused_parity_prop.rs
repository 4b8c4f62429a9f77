//! Property-based fused ≡ reference gradient parity: for random
//! policies under every head (flat and kernel MLP chains, the LeNet conv
//! stack), random PPO batches and random hyperparameters, the fused
//! forward+backward must produce the **same bits** as the reference tape
//! (`rlsched-nn-ref`) building the exact `Ppo::update` objective — loss,
//! selected log-probs, and every parameter gradient — on batches of up
//! to `SHARD_ROWS` rows (one chunk, which is how every ≤ 64-row minibatch
//! runs); multi-chunk cases pin exact forward diagnostics, bound the
//! gradient re-association drift and pin worker-count invariance.
//! CI runs this on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`); the contract holds on each arm separately.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch, SHARD_ROWS};
use rlsched_nn::{Activation, Conv2dLayer, Mlp, Tensor};
use rlsched_nn_ref::Graph;

/// Build the exact policy loss `Ppo::update` minimizes on the reference
/// tape and return `(loss, selected logp, grads in bind order)`.
#[allow(clippy::too_many_arguments)]
fn tape_policy_grads(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
) -> (f32, Vec<f32>, Vec<Tensor>) {
    let mut g = Graph::new();
    let l = rlsched_nn_ref::policy_loss(
        &mut g, p, obs, masks, actions, advantages, logp_old, clip, ent_coef,
    );
    g.backward(l.loss);
    let sel = g.value(l.logp).data().to_vec();
    (g.value(l.loss).item(), sel, g.grads(&l.params))
}

/// `fused::policy_pass` over contiguous row-major observations and
/// masks, every row once in order; returns the loss.
#[allow(clippy::too_many_arguments)]
fn contiguous_policy_pass(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
    s: &mut FusedScratch,
) -> f32 {
    let n = actions.len();
    let (od, width) = (obs.len() / n, masks.len() / n);
    let rows = |i: usize| {
        (
            &obs[i * od..(i + 1) * od],
            &masks[i * width..(i + 1) * width],
        )
    };
    let index: Vec<u32> = (0..n as u32).collect();
    fused::policy_pass(
        p, rows, &index, actions, advantages, logp_old, clip, ent_coef, s,
    )
    .loss
}

/// `fused::value_pass` over contiguous row-major observations, every row
/// once in order; returns the loss.
fn contiguous_value_pass(mlp: &Mlp, obs: &[f32], returns: &[f32], s: &mut FusedScratch) -> f32 {
    let od = obs.len() / returns.len();
    let index: Vec<u32> = (0..returns.len() as u32).collect();
    fused::value_pass(mlp, |i| &obs[i * od..(i + 1) * od], &index, returns, s).loss
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

    /// For the kernel head every window ends in 0..=width all-zero job
    /// rows (the encoder's padding). The padded slots are masked at
    /// −1e9 except in one case of four, and some actions land in
    /// the padding — so the pass's compaction, its zero-dlogit check and
    /// its full-width re-run are all held to the tape.
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
        tail_draw in 0u8..4,
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
        let mut obs: Vec<f32> = (0..n * obs_dim).map(|_| lcg(&mut s) * 2.0).collect();
        let mut masks: Vec<f32> = (0..n * width)
            .map(|i| if lcg(&mut s) > 0.35 && i % width != 0 { -1.0e9 } else { 0.0 })
            .collect();
        let actions: Vec<usize> = (0..n).map(|_| ((lcg(&mut s).abs() * 97.0) as usize) % width).collect();
        if kernel_head {
            for t in 0..n {
                let live = ((lcg(&mut s) + 0.5) * (width + 1) as f32) as usize % (width + 1);
                obs[(t * width + live) * features..(t + 1) * width * features].fill(0.0);
                let tail_mask = if tail_draw == 0 { 0.0 } else { -1.0e9 };
                masks[t * width + live..(t + 1) * width].fill(tail_mask);
            }
        }
        let advantages: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let logp_old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        let p = FusedPolicy { mlp: &mlp, head };
        let (tape_loss, tape_sel, tape_grads) = tape_policy_grads(
            &p, &obs, &masks, &actions, &advantages, &logp_old, clip, ent_coef,
        );

        let mut scratch = FusedScratch::new();
        let fused_loss = contiguous_policy_pass(
            &p, &obs, &masks, &actions, &advantages, &logp_old, clip, ent_coef, &mut scratch,
        );
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

        // The exact value loss Ppo::update minimizes.
        let mut g = Graph::new();
        let (loss, params) = rlsched_nn_ref::value_loss(&mut g, &mlp, &obs, &returns);
        g.backward(loss);
        let tape_loss = g.value(loss).item();
        let tape_grads = g.grads(&params);

        let mut scratch = FusedScratch::new();
        let fused_loss = contiguous_value_pass(&mlp, &obs, &returns, &mut scratch);
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
            FusedHead::Kernel { window } => window * dims[0],
            _ => dims[0],
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

        let p = FusedPolicy { mlp: &mlp, head };
        let (tape_loss, tape_sel, tape_grads) =
            tape_policy_grads(&p, &obs, &masks, &actions, &adv, &old, 0.2, 0.01);
        let mut scratch = FusedScratch::new();
        let loss = contiguous_policy_pass(
            &p,
            &obs,
            &masks,
            &actions,
            &adv,
            &old,
            0.2,
            0.01,
            &mut scratch,
        );
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

/// The paper's kernel network at its 128-job window, one full chunk of
/// 64 transitions: 8 192 job rows, so the `dW` sums close 16 row blocks
/// of 512 — and the windows end in padding of every length, with a few
/// actions inside it. With the padding masked the pass scores only each
/// window's rows up to its last job or its action, plus one zero row;
/// with some of it unmasked it widens those windows and runs the chunk
/// again. Either way it gives the tape's loss, selected log-probs and
/// every gradient bit for bit, with and without the entropy term.
#[test]
fn kernel_window_128_with_padded_tails_matches_tape_bitwise() {
    let (n, window, features) = (SHARD_ROWS, 128, 7);
    let mut rng = StdRng::seed_from_u64(53);
    let mlp = Mlp::new(
        &[features, 32, 16, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let p = FusedPolicy {
        mlp: &mlp,
        head: FusedHead::Kernel { window },
    };
    let mut s = 0xfeed;
    let mut obs = vec![0.0f32; n * window * features];
    let mut masks = vec![-1.0e9f32; n * window];
    let (mut actions, mut kept) = (Vec::new(), 0);
    for t in 0..n {
        // Live prefixes 1, 37, 74, 111, 20, … and one full window. (A
        // window with no job and every slot masked has no padding to
        // drop: its masked slots share the probability.)
        let live = if t == 5 {
            window
        } else {
            (t * 37 % window).max(1)
        };
        for j in 0..live {
            let row = &mut obs[(t * window + j) * features..][..features];
            row.iter_mut().for_each(|v| *v = lcg(&mut s) + 0.5);
            row[features - 1] = 1.0;
            masks[t * window + j] = 0.0;
        }
        let a = if t % 7 == 2 && live < window {
            live + t % (window - live) // in the padding
        } else {
            t % live
        };
        actions.push(a);
        kept += live.max(a + 1);
    }
    let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
    let old: Vec<f32> = (0..n).map(|_| -1.0 - lcg(&mut s).abs() * 3.0).collect();
    let mut unmasked = masks.clone();
    for t in (3..n).step_by(11) {
        let live = (t * 37 % window).max(1);
        unmasked[t * window + live..(t + 1) * window].fill(0.0);
    }

    let od = window * features;
    let index: Vec<u32> = (0..n as u32).collect();
    for (masks, all_masked) in [(&masks, true), (&unmasked, false)] {
        for ent_coef in [0.0f32, 0.01] {
            let what = format!("padding all masked {all_masked}, ent_coef {ent_coef}");
            let (tape_loss, tape_sel, tape_grads) =
                tape_policy_grads(&p, &obs, masks, &actions, &adv, &old, 0.2, ent_coef);
            let rows = |i: usize| {
                (
                    &obs[i * od..(i + 1) * od],
                    &masks[i * window..(i + 1) * window],
                )
            };
            let mut scratch = FusedScratch::new();
            let pass = fused::policy_pass(
                &p,
                rows,
                &index,
                &actions,
                &adv,
                &old,
                0.2,
                ent_coef,
                &mut scratch,
            );
            assert_eq!(pass.window_rows, n * window, "{what}: window rows");
            if all_masked {
                assert_eq!(pass.rows, kept + 1, "{what}: scored rows");
            } else {
                assert!(pass.rows > kept + 1, "{what}: the chunk ran again wider");
            }
            assert_eq!(pass.loss, tape_loss, "{what}: loss");
            let sel: Vec<f32> = scratch.selected_logp().collect();
            assert_eq!(sel, tape_sel, "{what}: selected logp");
            for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
                assert_eq!(f.data(), t.data(), "{what}: grad {i}");
            }
        }
    }
}

/// A pass reads exactly the rows its index names: over a shuffled index
/// with repeats into a larger row source, the loss, every gradient and
/// the selected log-probs are the same bits as a pass over those rows
/// copied out contiguously first — for the flat and kernel heads and the
/// critic, at 1, 2 and 3 workers.
#[test]
fn indexed_pass_equals_a_pass_over_the_rows_gathered_first() {
    let (source_rows, n) = (150usize, 2 * SHARD_ROWS + 29); // three chunks
    let mut s = 0x1dea;
    let mut index: Vec<u32> = (0..n)
        .map(|_| ((lcg(&mut s) + 0.5) * source_rows as f32) as u32 % source_rows as u32)
        .collect();
    index[1] = index[0];
    index[n - 1] = index[0];
    let gather = |data: &[f32], width: usize| -> Vec<f32> {
        let rows = index.iter().map(|&i| i as usize);
        rows.flat_map(|i| &data[i * width..(i + 1) * width])
            .copied()
            .collect()
    };
    let grads = |scratch: &FusedScratch| -> Vec<Vec<f32>> {
        scratch.grads().iter().map(|t| t.data().to_vec()).collect()
    };

    for (head, dims, width) in [
        (FusedHead::Flat, vec![6, 16, 9], 9),
        (FusedHead::Kernel { window: 5 }, vec![4, 16, 8, 1], 5),
    ] {
        let mut rng = StdRng::seed_from_u64(29);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let p = FusedPolicy { mlp: &mlp, head };
        let od = match head {
            FusedHead::Kernel { window } => window * dims[0],
            _ => dims[0],
        };
        let obs: Vec<f32> = (0..source_rows * od).map(|_| lcg(&mut s) * 2.0).collect();
        let masks: Vec<f32> = (0..source_rows * width)
            .map(|i| if i % width % 3 == 2 { -1.0e9 } else { 0.0 })
            .collect();
        // Every third slot is masked; actions take the others.
        let actions: Vec<usize> = (0..n).map(|i| (i * 7) % width / 3 * 3).collect();
        let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();
        let (dense_obs, dense_masks) = (gather(&obs, od), gather(&masks, width));
        let rows = |i: usize| {
            (
                &obs[i * od..(i + 1) * od],
                &masks[i * width..(i + 1) * width],
            )
        };

        for threads in [1usize, 2, 3] {
            let (indexed, dense) = rlsched_nn::pool::with_threads(threads, || {
                let mut si = FusedScratch::new();
                let loss =
                    fused::policy_pass(&p, rows, &index, &actions, &adv, &old, 0.2, 0.01, &mut si)
                        .loss;
                let mut sd = FusedScratch::new();
                let dense_loss = contiguous_policy_pass(
                    &p,
                    &dense_obs,
                    &dense_masks,
                    &actions,
                    &adv,
                    &old,
                    0.2,
                    0.01,
                    &mut sd,
                );
                let sel = |s: &FusedScratch| s.selected_logp().collect::<Vec<_>>();
                (
                    (loss.to_bits(), grads(&si), sel(&si)),
                    (dense_loss.to_bits(), grads(&sd), sel(&sd)),
                )
            });
            assert_eq!(indexed, dense, "{head:?} at {threads} workers");
        }
    }

    let mut rng = StdRng::seed_from_u64(31);
    let critic = Mlp::new(
        &[7, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let obs: Vec<f32> = (0..source_rows * 7).map(|_| lcg(&mut s) * 2.0).collect();
    let returns: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 10.0).collect();
    let dense_obs = gather(&obs, 7);
    for threads in [1usize, 2, 3] {
        let (indexed, dense) = rlsched_nn::pool::with_threads(threads, || {
            let mut si = FusedScratch::new();
            let row = |i: usize| &obs[i * 7..(i + 1) * 7];
            let loss = fused::value_pass(&critic, row, &index, &returns, &mut si).loss;
            let mut sd = FusedScratch::new();
            let dense_loss = contiguous_value_pass(&critic, &dense_obs, &returns, &mut sd);
            (
                (loss.to_bits(), grads(&si)),
                (dense_loss.to_bits(), grads(&sd)),
            )
        });
        assert_eq!(indexed, dense, "critic at {threads} workers");
    }
}

/// The LeNet baseline of Table IV at the smallest window it takes: 64
/// jobs of 7 features as a 16 x 28 image, two conv 5 x 5 stages of 6 and
/// 16 maps (1 x 4 each after the second pool), a 120-unit dense layer and
/// the 64-slot head.
fn lenet(seed: u64) -> (Vec<Conv2dLayer>, Mlp) {
    let mut rng = StdRng::seed_from_u64(seed);
    let convs = vec![
        Conv2dLayer::new(1, 6, 5, 5, 1, &mut rng),
        Conv2dLayer::new(6, 16, 5, 5, 1, &mut rng),
    ];
    let mlp = Mlp::new(
        &[64, 120, 64],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    (convs, mlp)
}

/// An `n`-transition LeNet batch: observations in `[0, 1)` like the
/// encoder's, a third of the slots masked, every action valid.
#[allow(clippy::type_complexity)]
fn lenet_batch(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<usize>, Vec<f32>, Vec<f32>) {
    let mut s = seed | 1;
    let obs: Vec<f32> = (0..n * 16 * 28).map(|_| lcg(&mut s) + 0.5).collect();
    let masks: Vec<f32> = (0..n * 64)
        .map(|i| if i % 3 == 1 { -1.0e9 } else { 0.0 })
        .collect();
    let actions: Vec<usize> = (0..n).map(|i| (i * 7) % 64 / 3 * 3).collect();
    let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
    let old: Vec<f32> = (0..n).map(|_| -3.0 - lcg(&mut s).abs()).collect();
    (obs, masks, actions, adv, old)
}

/// One chunk: the LeNet policy's fused loss, selected log-probs and
/// every gradient (both conv stages included) equal the reference's bit
/// for bit, with and without the entropy term.
#[test]
fn lenet_grads_match_tape_bitwise_in_one_chunk() {
    let (convs, mlp) = lenet(41);
    let p = FusedPolicy {
        mlp: &mlp,
        head: FusedHead::Conv {
            convs: &convs,
            h: 16,
            w: 28,
        },
    };
    for n in [1usize, 63, 64] {
        for ent_coef in [0.0f32, 0.01] {
            let (obs, masks, actions, adv, old) = lenet_batch(n, n as u64);
            let (tape_loss, tape_sel, tape_grads) =
                tape_policy_grads(&p, &obs, &masks, &actions, &adv, &old, 0.2, ent_coef);
            let mut scratch = FusedScratch::new();
            let loss = contiguous_policy_pass(
                &p,
                &obs,
                &masks,
                &actions,
                &adv,
                &old,
                0.2,
                ent_coef,
                &mut scratch,
            );
            let what = format!("n = {n}, ent_coef = {ent_coef}");
            assert_eq!(loss, tape_loss, "{what}: loss");
            let sel: Vec<f32> = scratch.selected_logp().collect();
            assert_eq!(sel, tape_sel, "{what}: selected logp");
            assert_eq!(scratch.grads().len(), 8, "{what}: two convs + two dense");
            for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
                assert_eq!(f.data(), t.data(), "{what}: grad {i}");
            }
        }
    }
}

/// Across chunk boundaries: at 65 rows (two chunks) the forward stays
/// exact and the re-associated gradients stay within f32 tolerance of
/// the reference; at 65 and 193 rows every output is the same bits at 1,
/// 2, 3 and 7 workers.
#[test]
fn lenet_across_chunks_matches_tape_and_is_thread_count_invariant() {
    let (convs, mlp) = lenet(43);
    let p = FusedPolicy {
        mlp: &mlp,
        head: FusedHead::Conv {
            convs: &convs,
            h: 16,
            w: 28,
        },
    };
    for n in [SHARD_ROWS + 1, 3 * SHARD_ROWS + 1] {
        let (obs, masks, actions, adv, old) = lenet_batch(n, 7 + n as u64);
        let run = |threads: usize| {
            rlsched_nn::pool::with_threads(threads, || {
                let mut s = FusedScratch::new();
                let loss = contiguous_policy_pass(
                    &p, &obs, &masks, &actions, &adv, &old, 0.2, 0.01, &mut s,
                );
                let grads: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
                let logp: Vec<f32> = s.logp_all().flatten().copied().collect();
                let sel: Vec<f32> = s.selected_logp().collect();
                (loss.to_bits(), grads, logp, sel)
            })
        };
        let base = run(1);
        for threads in [2usize, 3, 7] {
            assert_eq!(run(threads), base, "n = {n} at {threads} workers");
        }
        if n == SHARD_ROWS + 1 {
            let (tape_loss, tape_sel, tape_grads) =
                tape_policy_grads(&p, &obs, &masks, &actions, &adv, &old, 0.2, 0.01);
            assert_eq!(base.3, tape_sel, "selected logp");
            let loss = f32::from_bits(base.0);
            assert!((loss - tape_loss).abs() <= 1e-6, "{loss} vs {tape_loss}");
            for (i, (f, t)) in base.1.iter().zip(&tape_grads).enumerate() {
                for (x, y) in f.iter().zip(t.data()) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                        "grad {i}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
