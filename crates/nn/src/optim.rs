//! The first-order optimizer: Adam (the paper trains with learning rate
//! 1e-3, §V-A), plus global-norm gradient clipping.
//!
//! The Adam inner loop runs once per update iteration over every
//! parameter, m/v moment and gradient, so at 80+80 iterations per PPO
//! epoch it streams the whole optimizer state hundreds of times. It is
//! compiled under the detected arm's instructions
//! (`simd::with_arm_features`, as `fused`'s backward loops are), so it
//! vectorizes as wide as the CPU allows. Each element is its own
//! multiply/add/sqrt/divide, and Rust never contracts a multiply and an
//! add into an FMA, so every arm computes the same bits — pinned by the
//! parity test below.

use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba) with per-parameter moment state.
/// Equality compares the whole state — hyperparameters, step count and
/// both moment sets — which is what the update-parity suites pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) moments.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update step to the tensors a parameter iterator yields —
    /// allocation-free for callers that walk their layers in place (the
    /// fused PPO update steps its networks this way instead of collecting
    /// a `Vec<&mut Tensor>` per iteration). The iterator must yield
    /// exactly `grads.len()` tensors, index-aligned with `grads` and
    /// keeping the same shapes across calls.
    pub fn step_params<'a>(
        &mut self,
        mut params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
    ) {
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
            self.v = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        }
        assert_eq!(self.m.len(), grads.len(), "parameter set changed size");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let mut count = 0;
        // Grads drive the zip so a too-long params iterator is never
        // pulled past grads.len(): the surplus tensor stays in the
        // iterator for the trailing exhaustion assert to catch.
        for ((g, (m, v)), p) in grads
            .iter()
            .zip(self.m.iter_mut().zip(&mut self.v))
            .zip(params.by_ref())
        {
            assert_eq!(p.shape(), g.shape(), "parameter/gradient shape mismatch");
            adam_update_slice(
                p.data_mut(),
                g.data(),
                m.data_mut(),
                v.data_mut(),
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                b1t,
                b2t,
            );
            count += 1;
        }
        assert_eq!(count, grads.len(), "params/grads must align");
        assert!(
            params.next().is_none(),
            "params/grads must align (iterator yielded more than {} tensors)",
            grads.len()
        );
    }
}

/// One fused m/v/param Adam update over a parameter slice, compiled
/// with the detected arm's instructions. Every compilation computes
/// identical bits per element.
#[allow(clippy::too_many_arguments)] // the full Adam state, BLAS-style
fn adam_update_slice(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    b1t: f32,
    b2t: f32,
) {
    debug_assert!(g.len() == p.len() && m.len() == p.len() && v.len() == p.len());
    crate::simd::with_arm_features(
        #[inline(always)]
        || adam_update_scalar(p, g, m, v, lr, beta1, beta2, eps, b1t, b2t),
    );
}

/// The per-element Adam loop. It uses separate multiplies and adds (no
/// FMA contraction) and IEEE-exact sqrt and divide, so each element's
/// bits do not depend on how wide the compiler vectorizes it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn adam_update_scalar(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    b1t: f32,
    b2t: f32,
) {
    for (((p, &gi), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let mi = beta1 * *m + (1.0 - beta1) * gi;
        let vi = beta2 * *v + (1.0 - beta2) * gi * gi;
        *m = mi;
        *v = vi;
        let mhat = mi / b1t;
        let vhat = vi / b2t;
        *p -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Scale all gradients down so their joint L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().map(|g| g.norm().powi(2)).sum::<f32>().sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 elementwise with each optimizer.
    fn quadratic_grad(p: &Tensor) -> Tensor {
        p.map(|x| 2.0 * (x - 3.0))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Tensor::from_vec(vec![-5.0, 10.0], &[2]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quadratic_grad(&p);
            opt.step_params([&mut p].into_iter(), &[g]);
        }
        for &x in p.data() {
            assert!((x - 3.0).abs() < 1e-2, "x={x}");
        }
    }

    #[test]
    fn adam_bias_correction_makes_first_step_lr_sized() {
        // With a constant gradient, the very first Adam step is ~lr.
        let mut p = Tensor::from_vec(vec![0.0], &[1]);
        let mut opt = Adam::new(0.01);
        opt.step_params([&mut p].into_iter(), &[Tensor::from_vec(vec![42.0], &[1])]);
        assert!(
            (p.data()[0] + 0.01).abs() < 1e-4,
            "step was {}",
            p.data()[0]
        );
    }

    #[test]
    fn adam_multiple_params() {
        let mut a = Tensor::from_vec(vec![0.0], &[1]);
        let mut b = Tensor::from_vec(vec![10.0], &[1]);
        let mut opt = Adam::new(0.2);
        for _ in 0..400 {
            let ga = quadratic_grad(&a);
            let gb = quadratic_grad(&b);
            opt.step_params([&mut a, &mut b].into_iter(), &[ga, gb]);
        }
        assert!((a.data()[0] - 3.0).abs() < 1e-2);
        assert!((b.data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_rejected() {
        let mut p = Tensor::zeros(&[1]);
        Adam::new(0.1).step_params([&mut p].into_iter(), &[]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn step_params_rejects_one_surplus_param() {
        // Exactly one extra tensor is the subtle case: zip would consume
        // it before stopping if params drove the zip, silently freezing
        // the surplus parameter instead of panicking.
        let mut a = Tensor::zeros(&[2]);
        let mut b = Tensor::zeros(&[2]);
        let grads = vec![Tensor::from_vec(vec![1.0, 2.0], &[2])];
        Adam::new(0.1).step_params([&mut a, &mut b].into_iter(), &grads);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn step_params_rejects_short_params() {
        let grads = vec![
            Tensor::from_vec(vec![1.0], &[1]),
            Tensor::from_vec(vec![2.0], &[1]),
        ];
        let mut a = Tensor::zeros(&[1]);
        Adam::new(0.1).step_params([&mut a].into_iter(), &grads);
    }

    #[test]
    fn clip_scales_down_only_when_needed() {
        let mut grads = vec![
            Tensor::from_vec(vec![3.0], &[1]),
            Tensor::from_vec(vec![4.0], &[1]),
        ];
        let norm = clip_global_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped: f32 = grads.iter().map(|g| g.norm().powi(2)).sum::<f32>().sqrt();
        assert!((clipped - 1.0).abs() < 1e-5);

        let mut small = vec![Tensor::from_vec(vec![0.1], &[1])];
        clip_global_norm(&mut small, 1.0);
        assert_eq!(small[0].data(), &[0.1], "under-norm gradients untouched");
    }

    /// The parity contract of the fused m/v/param kernel: the
    /// dispatched compilation (AVX-512, AVX2 or FMA, as detected) must
    /// produce the *same bits* as the plainly compiled loop (no FMA
    /// contraction), so parameter trajectories never depend on dispatch.
    #[test]
    fn adam_kernel_simd_matches_scalar_bitwise() {
        for n in [1usize, 7, 8, 9, 64, 129] {
            let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 2.0).collect();
            let mut ps = vec![0.5f32; n];
            let mut ms: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos() * 0.1).collect();
            let mut vs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).sin().abs()).collect();
            let (mut pv, mut mv, mut vv) = (ps.clone(), ms.clone(), vs.clone());
            adam_update_scalar(
                &mut ps, &g, &mut ms, &mut vs, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001,
            );
            adam_update_slice(
                &mut pv, &g, &mut mv, &mut vv, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001,
            );
            assert_eq!(ps, pv, "params diverged at n={n}");
            assert_eq!(ms, mv, "first moments diverged at n={n}");
            assert_eq!(vs, vv, "second moments diverged at n={n}");
        }
    }
}
