//! Property-based fused ≡ reference gradient parity: for random
//! policies under every head (flat and kernel MLP chains, the LeNet conv
//! stack), random PPO batches and random hyperparameters, the fused
//! forward+backward must produce the **same bits** as the reference tape
//! (`rlsched-nn-ref`) building the exact `Ppo::update` objective — loss,
//! selected log-probs, and every parameter gradient — on batches of up
//! to `SHARD_ROWS` rows (one chunk, which is how every ≤ 64-row minibatch
//! runs); multi-chunk cases pin exact forward diagnostics, bound the
//! gradient re-association drift and pin worker-count invariance.
//!
//! The fused passes read each transition as the rollout store keeps it —
//! its window's valid job rows only — and the tape reads the same
//! windows zero-padded with their masks, as a rollout produced them.
//! CI runs this on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`); the contract holds on each arm separately.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch, SHARD_ROWS};
use rlsched_nn::{Activation, Conv2dLayer, Mlp, Tensor, MASK_OFF};
use rlsched_nn_ref::Graph;

/// Transitions stored as the rollout store keeps them: transition `t` is
/// its window's `counts[t]` valid job rows of `f` values, back to back in
/// `jobs`; the window's other slots, up to `width`, are implied padding.
struct Windows {
    jobs: Vec<f32>,
    counts: Vec<usize>,
    f: usize,
    width: usize,
}

impl Windows {
    /// `counts.len()` windows whose job-row values `value` draws.
    fn new(counts: Vec<usize>, f: usize, width: usize, value: impl FnMut() -> f32) -> Self {
        assert!(counts.iter().all(|&c| (1..=width).contains(&c)));
        let jobs = std::iter::repeat_with(value)
            .take(counts.iter().sum::<usize>() * f)
            .collect();
        Windows {
            jobs,
            counts,
            f,
            width,
        }
    }

    /// `n` windows of 1 to `width` valid slots each.
    fn random(n: usize, f: usize, width: usize, s: &mut u64, scale: f32) -> Self {
        let counts = (0..n)
            .map(|_| 1 + ((lcg(s) + 0.5) * width as f32) as usize % width)
            .collect();
        Windows::new(counts, f, width, || lcg(s) * scale)
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Where each transition's rows start in `jobs`, in job rows.
    fn starts(&self) -> Vec<usize> {
        let mut at = 0;
        self.counts
            .iter()
            .map(|&c| {
                at += c;
                at - c
            })
            .collect()
    }

    /// The row source the fused passes read.
    fn rows<'a>(&'a self) -> impl Fn(usize) -> &'a [f32] + Sync + 'a {
        let starts = self.starts();
        move |t| &self.jobs[starts[t] * self.f..(starts[t] + self.counts[t]) * self.f]
    }

    /// The windows `index` names, in index order, stored back to back.
    fn gathered(&self, index: &[u32]) -> Windows {
        let rows = self.rows();
        Windows {
            jobs: index
                .iter()
                .flat_map(|&i| rows(i as usize))
                .copied()
                .collect(),
            counts: index.iter().map(|&i| self.counts[i as usize]).collect(),
            f: self.f,
            width: self.width,
        }
    }

    /// The dense form a rollout produced and the tape reads: every window
    /// zero-padded to `width` slots, and its additive mask.
    fn dense(&self) -> (Vec<f32>, Vec<f32>) {
        let rows = self.rows();
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        for (t, &c) in self.counts.iter().enumerate() {
            obs.extend_from_slice(rows(t));
            obs.resize(obs.len() + (self.width - c) * self.f, 0.0);
            masks.extend((0..self.width).map(|j| if j < c { 0.0 } else { MASK_OFF }));
        }
        (obs, masks)
    }

    /// One valid action per window, drawn by `pick(t)` below its count.
    fn actions(&self, mut pick: impl FnMut(usize) -> usize) -> Vec<usize> {
        let counts = self.counts.iter().enumerate();
        counts.map(|(t, &c)| pick(t) % c).collect()
    }
}

/// Build the exact policy loss `Ppo::update` minimizes on the reference
/// tape over the windows' dense form and return `(loss, selected logp,
/// grads in bind order)`.
#[allow(clippy::too_many_arguments)]
fn tape_policy_grads(
    p: &FusedPolicy<'_>,
    w: &Windows,
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
) -> (f32, Vec<f32>, Vec<Tensor>) {
    let (obs, masks) = w.dense();
    let mut g = Graph::new();
    let l = rlsched_nn_ref::policy_loss(
        &mut g, p, &obs, &masks, actions, advantages, logp_old, clip, ent_coef,
    );
    g.backward(l.loss);
    let sel = g.value(l.logp).data().to_vec();
    (g.value(l.loss).item(), sel, g.grads(&l.params))
}

/// `fused::policy_pass` over every window once, in order; returns the
/// pass.
#[allow(clippy::too_many_arguments)]
fn windows_policy_pass(
    p: &FusedPolicy<'_>,
    w: &Windows,
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
    s: &mut FusedScratch,
) -> fused::FusedPass {
    let index: Vec<u32> = (0..w.len() as u32).collect();
    fused::policy_pass(
        p,
        w.rows(),
        &index,
        actions,
        advantages,
        logp_old,
        clip,
        ent_coef,
        s,
    )
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

    /// Every window holds 1 to `width` valid slots, so the pass rebuilds
    /// padding of every length: the flat head's zero-filled rows and
    /// implied masks, and the kernel head's compaction and zero-dlogit
    /// check, are all held to the tape.
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
            (FusedHead::Flat, width * features, width)
        };
        let mut dims = vec![in_dim];
        dims.extend(&hidden);
        dims.push(out_dim);
        let mut rng = StdRng::seed_from_u64(net_seed);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);

        let mut s = data_seed | 1;
        let w = Windows::random(n, features, width, &mut s, 2.0);
        let actions = w.actions(|_| (lcg(&mut s).abs() * 97.0) as usize);
        let advantages: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let logp_old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        let p = FusedPolicy { mlp: &mlp, head };
        let (tape_loss, tape_sel, tape_grads) = tape_policy_grads(
            &p, &w, &actions, &advantages, &logp_old, clip, ent_coef,
        );

        let mut scratch = FusedScratch::new();
        let fused_loss = windows_policy_pass(
            &p, &w, &actions, &advantages, &logp_old, clip, ent_coef, &mut scratch,
        ).loss;
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
    for (head, dims, width, f) in [
        (FusedHead::Flat, vec![18, 16, 9], 9, 2),
        (FusedHead::Kernel { window: 5 }, vec![4, 16, 8, 1], 5, 4),
    ] {
        let mut rng = StdRng::seed_from_u64(17);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let mut s = 0x5eed;
        let w = Windows::random(n, f, width, &mut s, 2.0);
        let actions = w.actions(|t| t);
        let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        let p = FusedPolicy { mlp: &mlp, head };
        let (tape_loss, tape_sel, tape_grads) =
            tape_policy_grads(&p, &w, &actions, &adv, &old, 0.2, 0.01);
        let mut scratch = FusedScratch::new();
        let loss = windows_policy_pass(&p, &w, &actions, &adv, &old, 0.2, 0.01, &mut scratch).loss;
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
/// of 512 — and the windows end in padding of every length. The pass
/// scores only each window's valid rows plus one zero row, and gives the
/// tape's loss, selected log-probs and every gradient bit for bit, with
/// and without the entropy term.
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
    // Valid prefixes 1, 37, 74, 111, 20, … and one full window; every
    // job row ends in the encoder's always-one feature.
    let counts: Vec<usize> = (0..n)
        .map(|t| {
            if t == 5 {
                window
            } else {
                (t * 37 % window).max(1)
            }
        })
        .collect();
    let kept: usize = counts.iter().sum();
    let mut s = 0xfeed;
    let mut w = Windows::new(counts, features, window, || 0.0);
    for row in w.jobs.chunks_mut(features) {
        row.iter_mut().for_each(|v| *v = lcg(&mut s) + 0.5);
        row[features - 1] = 1.0;
    }
    let actions = w.actions(|t| t);
    let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
    let old: Vec<f32> = (0..n).map(|_| -1.0 - lcg(&mut s).abs() * 3.0).collect();

    for ent_coef in [0.0f32, 0.01] {
        let what = format!("ent_coef {ent_coef}");
        let (tape_loss, tape_sel, tape_grads) =
            tape_policy_grads(&p, &w, &actions, &adv, &old, 0.2, ent_coef);
        let mut scratch = FusedScratch::new();
        let pass = windows_policy_pass(&p, &w, &actions, &adv, &old, 0.2, ent_coef, &mut scratch);
        assert_eq!(pass.window_rows, n * window, "{what}: window rows");
        assert_eq!(pass.rows, kept + 1, "{what}: scored rows");
        assert_eq!(pass.loss, tape_loss, "{what}: loss");
        let sel: Vec<f32> = scratch.selected_logp().collect();
        assert_eq!(sel, tape_sel, "{what}: selected logp");
        for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
            assert_eq!(f.data(), t.data(), "{what}: grad {i}");
        }
    }
}

/// The one case the kernel head's compaction cannot drop: a network whose
/// all-zero job row scores about 1e9 above every valid row, so a padding
/// slot's masked logit `c0 + MASK_OFF` is no longer negligible and keeps
/// probability (and gradient). The pass must widen those windows, gather
/// their implied zero rows and run the chunk again — and still give the
/// tape's bits.
#[test]
fn kernel_fallback_widens_windows_whose_padding_keeps_probability() {
    let (n, window, features) = (12, 16, 4);
    let mut rng = StdRng::seed_from_u64(61);
    let mut mlp = Mlp::new(
        &[features, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    // Hidden unit 0 fires at 1e9 on the zero row only: every valid row
    // carries the always-one feature, which cancels the unit's bias.
    {
        let first = &mut mlp.layers[0];
        for r in 0..features {
            first.w.data_mut()[r * 8] = if r == features - 1 { -1.0e9 } else { 0.0 };
        }
        first.b.data_mut()[0] = 1.0e9;
        mlp.layers[1].w.data_mut()[0] = 1.0;
    }
    let p = FusedPolicy {
        mlp: &mlp,
        head: FusedHead::Kernel { window },
    };
    let counts: Vec<usize> = (0..n).map(|t| 1 + t * 5 % window).collect();
    let kept: usize = counts.iter().sum();
    let mut s = 0xfa11;
    let mut w = Windows::new(counts, features, window, || 0.0);
    for row in w.jobs.chunks_mut(features) {
        row.iter_mut().for_each(|v| *v = lcg(&mut s) + 0.5);
        row[features - 1] = 1.0;
    }
    let actions = w.actions(|t| t * 3);
    let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
    let old: Vec<f32> = (0..n).map(|_| -1.0 - lcg(&mut s).abs() * 3.0).collect();

    for ent_coef in [0.0f32, 0.01] {
        let what = format!("ent_coef {ent_coef}");
        let (tape_loss, tape_sel, tape_grads) =
            tape_policy_grads(&p, &w, &actions, &adv, &old, 0.2, ent_coef);
        let mut scratch = FusedScratch::new();
        let pass = windows_policy_pass(&p, &w, &actions, &adv, &old, 0.2, ent_coef, &mut scratch);
        // A padded window gives its padding real probability here.
        let padded = w.counts.iter().any(|&c| c < window);
        assert!(padded, "{what}: the case needs padded windows");
        let padding_mass: f32 = scratch
            .logp_all()
            .flat_map(|b| b.chunks(window))
            .zip(&w.counts)
            .map(|(row, &c)| row[c..].iter().map(|lp| lp.exp()).sum::<f32>())
            .sum();
        assert!(padding_mass > 0.1, "{what}: padding mass {padding_mass}");
        assert!(pass.rows > kept + 1, "{what}: the chunk ran again wider");
        assert_eq!(pass.loss, tape_loss, "{what}: loss");
        let sel: Vec<f32> = scratch.selected_logp().collect();
        assert_eq!(sel, tape_sel, "{what}: selected logp");
        for (i, (f, t)) in scratch.grads().iter().zip(&tape_grads).enumerate() {
            assert_eq!(f.data(), t.data(), "{what}: grad {i}");
        }
    }
}

/// A pass reads exactly the rows its index names: over a shuffled index
/// with repeats into a larger row source, the loss, every gradient and
/// the selected log-probs are the same bits as a pass over those rows
/// copied out first — for the flat and kernel heads and the critic (whose
/// ragged rows it zero-fills like a dense copy), at 1, 2 and 3 workers.
#[test]
fn indexed_pass_equals_a_pass_over_the_rows_gathered_first() {
    let (source_rows, n) = (150usize, 2 * SHARD_ROWS + 29); // three chunks
    let mut s = 0x1dea;
    let mut index: Vec<u32> = (0..n)
        .map(|_| ((lcg(&mut s) + 0.5) * source_rows as f32) as u32 % source_rows as u32)
        .collect();
    index[1] = index[0];
    index[n - 1] = index[0];
    let grads = |scratch: &FusedScratch| -> Vec<Vec<f32>> {
        scratch.grads().iter().map(|t| t.data().to_vec()).collect()
    };

    for (head, dims, width, f) in [
        (FusedHead::Flat, vec![18, 16, 9], 9, 2),
        (FusedHead::Kernel { window: 5 }, vec![4, 16, 8, 1], 5, 4),
    ] {
        let mut rng = StdRng::seed_from_u64(29);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let p = FusedPolicy { mlp: &mlp, head };
        let source = Windows::random(source_rows, f, width, &mut s, 2.0);
        let gathered = source.gathered(&index);
        let actions = gathered.actions(|t| t * 7);
        let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
        let old: Vec<f32> = (0..n).map(|_| -0.1 - lcg(&mut s).abs() * 3.0).collect();

        for threads in [1usize, 2, 3] {
            let (indexed, dense) = rlsched_nn::pool::with_threads(threads, || {
                let mut si = FusedScratch::new();
                let loss = fused::policy_pass(
                    &p,
                    source.rows(),
                    &index,
                    &actions,
                    &adv,
                    &old,
                    0.2,
                    0.01,
                    &mut si,
                )
                .loss;
                let mut sd = FusedScratch::new();
                let dense_loss =
                    windows_policy_pass(&p, &gathered, &actions, &adv, &old, 0.2, 0.01, &mut sd)
                        .loss;
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
        &[12, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let source = Windows::random(source_rows, 3, 4, &mut s, 2.0);
    let returns: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 10.0).collect();
    let (dense_obs, _) = source.gathered(&index).dense();
    for threads in [1usize, 2, 3] {
        let (indexed, dense) = rlsched_nn::pool::with_threads(threads, || {
            let mut si = FusedScratch::new();
            let loss = fused::value_pass(&critic, source.rows(), &index, &returns, &mut si).loss;
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

/// An `n`-transition LeNet batch over 64-slot windows of 7 features:
/// job-row values in `[0, 1)` like the encoder's, 1 to 64 valid slots
/// per window, every action valid.
fn lenet_batch(n: usize, seed: u64) -> (Windows, Vec<usize>, Vec<f32>, Vec<f32>) {
    let mut s = seed | 1;
    let counts = (0..n)
        .map(|_| 1 + ((lcg(&mut s) + 0.5) * 64.0) as usize % 64)
        .collect();
    let w = Windows::new(counts, 7, 64, || lcg(&mut s) + 0.5);
    let actions = w.actions(|t| t * 7);
    let adv: Vec<f32> = (0..n).map(|_| lcg(&mut s) * 4.0).collect();
    let old: Vec<f32> = (0..n).map(|_| -3.0 - lcg(&mut s).abs()).collect();
    (w, actions, adv, old)
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
            let (w, actions, adv, old) = lenet_batch(n, n as u64);
            let (tape_loss, tape_sel, tape_grads) =
                tape_policy_grads(&p, &w, &actions, &adv, &old, 0.2, ent_coef);
            let mut scratch = FusedScratch::new();
            let loss =
                windows_policy_pass(&p, &w, &actions, &adv, &old, 0.2, ent_coef, &mut scratch).loss;
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
        let (w, actions, adv, old) = lenet_batch(n, 7 + n as u64);
        let run = |threads: usize| {
            rlsched_nn::pool::with_threads(threads, || {
                let mut s = FusedScratch::new();
                let loss =
                    windows_policy_pass(&p, &w, &actions, &adv, &old, 0.2, 0.01, &mut s).loss;
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
                tape_policy_grads(&p, &w, &actions, &adv, &old, 0.2, 0.01);
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
