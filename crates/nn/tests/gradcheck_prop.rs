//! Property-based gradient checks against central finite differences:
//! for random tensors and random op pipelines, the reference tape's
//! analytic gradients; and for random LeNet-shaped conv stacks, the fused
//! pass's conv and pool backward on its own, with no tape involved. With
//! the bit-parity suites, this is the load-bearing correctness test for
//! everything PPO-side.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch, POOL};
use rlsched_nn::{infer, Act, Activation, Conv2dLayer, Mlp, Tensor};
use rlsched_nn_ref::{Graph, Var};

fn finite_diff_check<F>(input: Tensor, build: F, tol: f32) -> Result<(), TestCaseError>
where
    F: Fn(&mut Graph, Var) -> Var,
{
    let mut g = Graph::new();
    let x = g.param(input.clone());
    let loss = build(&mut g, x);
    g.backward(loss);
    let analytic = g.grad_or_zeros(x);

    let eps = 1e-2f32;
    for i in 0..input.len() {
        let f = |delta: f32| {
            let mut t = input.clone();
            t.data_mut()[i] += delta;
            let mut g = Graph::new();
            let x = g.param(t);
            let l = build(&mut g, x);
            g.value(l).item()
        };
        let numeric = (f(eps) - f(-eps)) / (2.0 * eps);
        let a = analytic.data()[i];
        prop_assert!(
            (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "grad[{}]: analytic {} vs numeric {}",
            i,
            a,
            numeric
        );
    }
    Ok(())
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_relu_pipeline_grads(x in arb_matrix(3, 4), w in arb_matrix(4, 2)) {
        finite_diff_check(
            x,
            move |g, xv| {
                let wv = g.input(w.clone());
                let h = g.matmul(xv, wv);
                let r = g.act(h, Act::Tanh); // tanh: smooth, no kink issues at random points
                g.mean(r)
            },
            0.05,
        )?;
    }

    #[test]
    fn weight_side_grads(x in arb_matrix(3, 4), w in arb_matrix(4, 2)) {
        finite_diff_check(
            w,
            move |g, wv| {
                let xv = g.input(x.clone());
                let h = g.matmul(xv, wv);
                let s = g.act(h, Act::Sigmoid);
                g.sum(s)
            },
            0.05,
        )?;
    }

    #[test]
    fn log_softmax_select_grads(x in arb_matrix(3, 5), picks in prop::collection::vec(0usize..5, 3)) {
        finite_diff_check(
            x,
            move |g, xv| {
                let ls = g.log_softmax(xv);
                let sel = g.select_cols(ls, &picks);
                g.mean(sel)
            },
            0.05,
        )?;
    }

    #[test]
    fn ppo_objective_grads(
        x in arb_matrix(4, 3),
        adv in prop::collection::vec(-2.0f32..2.0, 4),
        old in prop::collection::vec(-2.0f32..-0.1, 4),
        picks in prop::collection::vec(0usize..3, 4),
    ) {
        // The exact loss PPO builds: masked log-softmax, selected actions,
        // ratio, clip, min, negated mean — with the clip boundaries taken
        // from the real agent configuration, so changing the clip radius
        // changes this test in lockstep.
        let eps_clip = rlsched_rl::PpoConfig::default().clip_ratio;
        let (clip_lo, clip_hi) = (1.0 - eps_clip, 1.0 + eps_clip);
        // clamp/min are piecewise-linear: central differences straddling a
        // kink (a ratio at a clip boundary) disagree with the one-sided
        // analytic gradient by construction, so draws near a boundary are
        // skipped — the standard gradcheck treatment of non-differentiable
        // points. The skip band scales with the clip radius (half of it),
        // which keeps the two bands disjoint for any radius and reproduces
        // the historical 0.1 band at the default ε = 0.2.
        let band = 0.5 * eps_clip;
        for (i, &pick) in picks.iter().enumerate() {
            let row: Vec<f32> = (0..3).map(|j| x.at(i, j)).collect();
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx + row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln();
            let ratio = (row[pick] - lse - old[i]).exp();
            if (ratio - clip_lo).abs() < band || (ratio - clip_hi).abs() < band {
                return Ok(());
            }
        }
        finite_diff_check(
            x,
            move |g, xv| {
                let ls = g.log_softmax(xv);
                let logp = g.select_cols(ls, &picks);
                let oldv = g.input(Tensor::from_vec(old.clone(), &[4]));
                let diff = g.sub(logp, oldv);
                let ratio = g.exp(diff);
                let advv = g.input(Tensor::from_vec(adv.clone(), &[4]));
                let s1 = g.mul(ratio, advv);
                let clipped = g.clamp(ratio, clip_lo, clip_hi);
                let s2 = g.mul(clipped, advv);
                let obj = g.min_elem(s1, s2);
                let m = g.mean(obj);
                g.scale(m, -1.0)
            },
            0.08,
        )?;
    }

    #[test]
    fn exp_sub_mul_grads(a in arb_matrix(2, 3), b in arb_matrix(2, 3)) {
        finite_diff_check(
            a,
            move |g, av| {
                let bv = g.input(b.clone());
                let d = g.sub(av, bv);
                let e = g.exp(d);
                let p = g.mul(e, bv);
                g.mean(p)
            },
            0.05,
        )?;
    }

    #[test]
    fn log_softmax_is_shift_invariant(x in arb_matrix(2, 4), shift in -5.0f32..5.0) {
        let mut g = Graph::new();
        let a = g.input(x.clone());
        let la = g.log_softmax(a);
        let shifted = g.add_scalar(a, shift);
        let lb = g.log_softmax(shifted);
        for (p, q) in g.value(la).data().iter().zip(g.value(lb).data()) {
            prop_assert!((p - q).abs() < 1e-4, "{} vs {}", p, q);
        }
    }

    #[test]
    fn matmul_distributes_over_add(a in arb_matrix(2, 3), b in arb_matrix(2, 3), w in arb_matrix(3, 2)) {
        // (A + B) W == A W + B W on the tape's forward values.
        let mut g = Graph::new();
        let av = g.input(a);
        let bv = g.input(b);
        let wv = g.input(w);
        let sum_first = {
            let s = g.add(av, bv);
            g.matmul(s, wv)
        };
        let mul_first = {
            let x = g.matmul(av, wv);
            let y = g.matmul(bv, wv);
            g.add(x, y)
        };
        for (p, q) in g.value(sum_first).data().iter().zip(g.value(mul_first).data()) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }
}

/// Where a conv stack is not differentiable, as a pattern: the sign of
/// every conv output and the position of every pool window's first
/// maximum, stage by stage. A finite difference is only meaningful
/// between parameters that leave this pattern unchanged.
fn kinks(convs: &[Conv2dLayer], h: usize, w: usize, obs: &[f32], n: usize) -> Vec<usize> {
    let (mut x, mut c, mut h, mut w) = (obs.to_vec(), 1, h, w);
    let mut pattern = Vec::new();
    for conv in convs {
        let (o, k) = (conv.w.shape()[0], conv.w.shape()[2]);
        let mut y = Vec::new();
        let (ch, cw) = infer::conv2d_forward(
            &x,
            conv.w.data(),
            conv.b.data(),
            n,
            c,
            h,
            w,
            o,
            k,
            k,
            1,
            &mut y,
        );
        pattern.extend(y.iter().map(|&v| usize::from(v > 0.0)));
        infer::relu_inplace(&mut y);
        for map in y.chunks(ch * cw) {
            for py in 0..ch / POOL {
                for px in 0..cw / POOL {
                    let at = |i: usize| map[(py * POOL + i / POOL) * cw + px * POOL + i % POOL];
                    let first_max =
                        (0..POOL * POOL).fold(0, |b, i| if at(i) > at(b) { i } else { b });
                    pattern.push(first_max);
                }
            }
        }
        infer::max_pool2d_forward(&y, n, o, ch, cw, POOL, &mut x);
        (c, h, w) = (o, ch / POOL, cw / POOL);
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused conv/pool backward against finite differences of the
    /// fused loss, on random two-stage stacks (1..=3 maps each, kernels
    /// 3..=5, stride 1, 2 x 2 pool) under a linear head. The clip radius
    /// is out of reach, so the loss is smooth away from ReLU and pool
    /// kinks, and a parameter whose ±eps moves any kink is skipped.
    /// `tied` images repeat each row's value across it, so every pool
    /// window ties horizontally at both stages (the first maximum must
    /// take the whole gradient); `zero_adv` zeroes every upstream
    /// gradient, which must come back exactly zero.
    #[test]
    fn conv_stack_grads_match_finite_differences(
        o1 in 1usize..=3,
        o2 in 1usize..=3,
        k1 in 3usize..=5,
        k2 in 3usize..=5,
        extra_h in 0usize..=3,
        extra_w in 0usize..=3,
        n in 1usize..=3,
        width in 2usize..=4,
        tied in any::<bool>(),
        zero_adv in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The image is `width` job rows (the window contract), so its
        // width is padded up to a multiple of the slot count.
        let base_w = k1 - 1 + 2 * (k2 + 1) + extra_w;
        let extra_w = extra_w + (width - base_w % width) % width;
        let (h, w) = (k1 - 1 + 2 * (k2 + 1) + extra_h, k1 - 1 + 2 * (k2 + 1) + extra_w);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut convs = vec![
            Conv2dLayer::new(1, o1, k1, k1, 1, &mut rng),
            Conv2dLayer::new(o1, o2, k2, k2, 1, &mut rng),
        ];
        for conv in &mut convs {
            conv.b = Tensor::from_vec((0..conv.b.len()).map(|i| 0.1 - 0.07 * i as f32).collect(), conv.b.shape());
        }
        let flat = o2 * ((2 + extra_h / 2) / POOL) * ((2 + extra_w / 2) / POOL);
        let mlp = Mlp::new(&[flat, width], Activation::Identity, Activation::Identity, &mut rng);
        let mut s = seed | 1;
        let obs: Vec<f32> = (0..n * h * w)
            .map(|i| if tied { (i / w) as f32 * 0.37 % 1.0 } else { lcg(&mut s) + 0.5 })
            .collect();
        let actions: Vec<usize> = (0..n).map(|i| i % width).collect();
        let adv: Vec<f32> = (0..n).map(|_| if zero_adv { 0.0 } else { lcg(&mut s) * 4.0 }).collect();
        let old: Vec<f32> = (0..n).map(|_| -(width as f32).ln()).collect();
        let ent_coef = if zero_adv { 0.0 } else { 0.01 };
        // Whole windows: every slot valid.
        let rows = |i: usize| &obs[i * h * w..(i + 1) * h * w];
        let index: Vec<u32> = (0..n as u32).collect();
        let loss_of = |convs: &[Conv2dLayer], mlp: &Mlp, scratch: &mut FusedScratch| {
            let p = FusedPolicy { mlp, head: FusedHead::Conv { convs, h, w } };
            fused::policy_pass(&p, rows, &index, &actions, &adv, &old, 1e3, ent_coef, scratch).loss
        };

        let mut scratch = FusedScratch::new();
        loss_of(&convs, &mlp, &mut scratch);
        let analytic = scratch.grads().to_vec();
        if zero_adv {
            for (i, g) in analytic.iter().enumerate() {
                prop_assert!(g.data().iter().all(|&v| v == 0.0), "grad {} is not zero", i);
            }
        }
        let base = kinks(&convs, h, w, &obs, n);
        let eps = 1e-3f32;
        for (t, grad) in analytic.iter().enumerate().take(4) {
            for i in 0..grad.len() {
                let nudged = |delta: f32| {
                    let mut c = convs.clone();
                    let p = if t % 2 == 0 { &mut c[t / 2].w } else { &mut c[t / 2].b };
                    p.data_mut()[i] += delta;
                    c
                };
                let (plus, minus) = (nudged(eps), nudged(-eps));
                if kinks(&plus, h, w, &obs, n) != base || kinks(&minus, h, w, &obs, n) != base {
                    continue;
                }
                let numeric = (loss_of(&plus, &mlp, &mut scratch) - loss_of(&minus, &mlp, &mut scratch)) / (2.0 * eps);
                let a = grad.data()[i];
                prop_assert!(
                    (a - numeric).abs() <= 2e-3 + 2e-2 * numeric.abs(),
                    "conv param {}[{}]: analytic {} vs numeric {}", t, i, a, numeric
                );
            }
        }
    }
}

fn lcg(seed: &mut u64) -> f32 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
}
