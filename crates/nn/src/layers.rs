//! Network building blocks: dense and convolutional layers, their
//! activations, and the [`Network`] trait over parameter storage.
//!
//! Parameters are plain [`Tensor`]s owned by the layer. The forwards live
//! in [`crate::infer`] (inference) and [`crate::fused`] (training), which
//! read the layers in place.

use rand::Rng;

use crate::tensor::Tensor;

/// Elementwise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// `x` where `x > 0`, else +0 ([`relu`])
    Relu,
    /// tanh(x)
    Tanh,
    /// 1/(1+e^-x)
    Sigmoid,
    /// identity (linear output head)
    Identity,
}

impl Activation {
    /// Apply in place.
    #[inline]
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for x in xs {
                    *x = relu(*x);
                }
            }
            Activation::Tanh => {
                for x in xs {
                    *x = x.tanh();
                }
            }
            Activation::Sigmoid => {
                for x in xs {
                    *x = 1.0 / (1.0 + (-*x).exp());
                }
            }
        }
    }
}

/// ReLU of one value: `x` where `x > 0`, else +0 — so −0 and NaN give
/// +0 in every build. `f32::max(x, 0.0)` leaves the sign of a zero
/// result unspecified (an unoptimized build returns −0 for −0). The
/// select is what `maxps(x, 0)` computes, so a loop of it vectorizes and
/// it is the SIMD kernels' ReLU at the store, bit for bit.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Anything with trainable parameters.
pub trait Network {
    /// Parameter tensors, in a stable order (each layer's weight, then
    /// its bias).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    /// Weight matrix `[in, out]`.
    pub w: Tensor,
    /// Bias vector `[out]`.
    pub b: Tensor,
}

impl Dense {
    /// He-initialized layer (gain suited to ReLU nets; close enough to
    /// Xavier for the small tanh nets used here).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f64).sqrt();
        let w = Tensor::from_vec(
            (0..in_dim * out_dim)
                .map(|_| (sample_normal(rng) * std) as f32)
                .collect(),
            &[in_dim, out_dim],
        );
        Dense {
            w,
            b: Tensor::zeros(&[out_dim]),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }
}

/// Standard-normal sample via Box–Muller (keeps the dependency surface to
/// `rand` core).
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multi-layer perceptron: the 3-layer MLP of the paper's value network
/// (Fig 6) and the MLP policy baselines of Table IV.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    /// Stacked dense layers.
    pub layers: Vec<Dense>,
    /// Activation between layers.
    pub hidden: Activation,
    /// Activation after the last layer.
    pub output: Activation,
}

impl Mlp {
    /// Build from a dims chain `[in, h1, h2, ..., out]`.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden,
            output,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }
}

impl Network for Mlp {
    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| [&l.w, &l.b]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .collect()
    }
}

/// 2-D convolution layer (valid padding), for the LeNet policy baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Conv2dLayer {
    /// Kernel `[out_channels, in_channels, kh, kw]`.
    pub w: Tensor,
    /// Bias `[out_channels]`.
    pub b: Tensor,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl Conv2dLayer {
    /// He-initialized convolution.
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_c * kh * kw;
        let std = (2.0 / fan_in as f64).sqrt();
        let w = Tensor::from_vec(
            (0..out_c * in_c * kh * kw)
                .map(|_| (sample_normal(rng) * std) as f32)
                .collect(),
            &[out_c, in_c, kh, kw],
        );
        Conv2dLayer {
            w,
            b: Tensor::zeros(&[out_c]),
            stride,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn dense_shapes_and_bind_order() {
        let d = Dense::new(4, 3, &mut rng());
        assert_eq!(d.w.shape(), &[4, 3]);
        assert_eq!(d.b.shape(), &[3]);
        let mut out = Vec::new();
        let (w, b) = (d.w.data(), d.b.data());
        crate::infer::dense_forward(&[0.0; 8], 2, w, b, 4, 3, Activation::Identity, &mut out);
        assert_eq!(out.len(), 2 * 3);
        let m = Mlp {
            layers: vec![d],
            hidden: Activation::Relu,
            output: Activation::Identity,
        };
        let shapes: Vec<&[usize]> = m.params().iter().map(|t| t.shape()).collect();
        assert_eq!(shapes, [&[4, 3][..], &[3]], "weight, then bias");
    }

    #[test]
    fn mlp_matches_paper_kernel_dims() {
        // The RLScheduler kernel network is a 3-layer MLP 32/16/8 with a
        // scalar head; parameter count must stay under 1 000 (§IV-B1).
        let m = Mlp::new(
            &[7, 32, 16, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        assert!(m.param_count() < 1000, "param count {}", m.param_count());
        assert_eq!(m.in_dim(), 7);
        assert_eq!(m.out_dim(), 1);
    }

    #[test]
    fn mlp_forward_shapes() {
        let m = Mlp::new(
            &[5, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let mut out = Vec::new();
        crate::infer::mlp_forward(&m, &[0.0; 15], 3, &mut crate::Scratch::new(), &mut out);
        assert_eq!(out.len(), 3 * 2);
        assert_eq!(m.params().len(), 4, "2 layers x (w, b)");
    }

    #[test]
    fn params_and_binds_align() {
        let m = Mlp::new(
            &[3, 4, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let mut m = m;
        let shapes: Vec<Vec<usize>> = m.params().iter().map(|t| t.shape().to_vec()).collect();
        let shapes_mut: Vec<Vec<usize>> =
            m.params_mut().iter().map(|t| t.shape().to_vec()).collect();
        assert_eq!(shapes, shapes_mut);
        assert_eq!(shapes, [vec![3, 4], vec![4], vec![4, 2], vec![2]]);
    }

    #[test]
    fn mlp_trains_xor_with_manual_sgd() {
        // End-to-end sanity: a tiny MLP fits XOR through the fused
        // squared-error pass and Adam, proving forward+backward wiring
        // through layers is correct.
        let mut m = Mlp::new(
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let xs = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let ys = [0.0, 1.0, 1.0, 0.0];
        let mut opt = crate::optim::Adam::new(0.05);
        let mut s = crate::fused::FusedScratch::new();
        let mut final_loss = f32::MAX;
        let row = |i: usize| &xs[i * 2..(i + 1) * 2];
        for _ in 0..800 {
            final_loss = crate::fused::value_pass(&m, row, &[0, 1, 2, 3], &ys, &mut s).loss;
            opt.step_params(m.params_mut().into_iter(), s.grads());
        }
        assert!(final_loss < 0.05, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    fn conv_layer_shapes() {
        let c = Conv2dLayer::new(1, 2, 3, 3, 1, &mut rng());
        assert_eq!(c.w.shape(), &[2, 1, 3, 3]);
        let mut out = Vec::new();
        let (oh, ow) = crate::infer::conv2d_forward(
            &[0.0; 2 * 64],
            c.w.data(),
            c.b.data(),
            2,
            1,
            8,
            8,
            2,
            3,
            3,
            c.stride,
            &mut out,
        );
        assert_eq!((oh, ow), (6, 6));
        assert_eq!(out.len(), 2 * 2 * 6 * 6);
    }

    #[test]
    fn he_init_scale_is_sane() {
        let d = Dense::new(100, 50, &mut rng());
        let std = (d.w.data().iter().map(|x| x * x).sum::<f32>() / d.w.len() as f32).sqrt();
        let expect = (2.0f32 / 100.0).sqrt();
        assert!((std - expect).abs() / expect < 0.2, "std {std} vs {expect}");
        assert!(d.b.data().iter().all(|&b| b == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_dim() {
        let _ = Mlp::new(&[4], Activation::Relu, Activation::Identity, &mut rng());
    }
}
