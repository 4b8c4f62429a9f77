//! The tape: every op evaluates eagerly and records itself as a node;
//! [`Graph::backward`] sweeps the nodes in reverse. [`Var`] ids are
//! handed out in creation order, so the node list is already
//! topologically sorted.

use rlsched_nn::fused::{FusedHead, FusedPolicy, POOL};
use rlsched_nn::infer::{self, exp_or_zero};
use rlsched_nn::{simd, Act, Mlp, Tensor};

use crate::tensor::{matmul, matmul_nt, matmul_tn};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// What made a node, by its inputs' ids.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    /// `act(x @ w + b)`: x, w, b, act.
    Linear(usize, usize, usize, Act),
    Act(usize, Act),
    /// x, w, b, stride.
    Conv2d(usize, usize, usize, usize),
    /// x, window.
    MaxPool2d(usize, usize),
    Reshape(usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MinElem(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    Exp(usize),
    Clamp(usize, f32, f32),
    LogSoftmax(usize),
    SelectCols(usize, Vec<usize>),
    SumRows(usize),
    Mean(usize),
    Sum(usize),
}

/// The tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<(Tensor, Op)>,
    /// Per node, after [`Graph::backward`].
    grads: Vec<Option<Tensor>>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push((value, op));
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].0
    }

    /// Gradient of a node after [`Graph::backward`]; `None` when the loss
    /// does not depend on it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0)?.as_ref()
    }

    /// Gradient of a node, zeros when the loss does not depend on it.
    pub fn grad_or_zeros(&self, v: Var) -> Tensor {
        let zeros = || Tensor::zeros(self.value(v).shape());
        self.grad(v).cloned().unwrap_or_else(zeros)
    }

    /// The gradients of `vars` — a bound network's parameters, in bind
    /// order.
    pub fn grads(&self, vars: &[Var]) -> Vec<Tensor> {
        vars.iter().map(|&v| self.grad_or_zeros(v)).collect()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A leaf. Every node the loss depends on gets a gradient, so inputs
    /// and parameters differ only in what the caller reads back.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// A leaf copied from a slice.
    pub fn input_from(&mut self, data: &[f32], shape: &[usize]) -> Var {
        self.input(Tensor::from_vec(data.to_vec(), shape))
    }

    /// [`Graph::input`] under the name a parameter's caller means.
    pub fn param(&mut self, t: Tensor) -> Var {
        self.input(t)
    }

    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32, op: Op) -> Var {
        let t = self.value(a);
        let v = Tensor::from_vec(t.data().iter().map(|&x| f(x)).collect(), t.shape());
        self.push(v, op)
    }

    fn zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(x.shape(), y.shape(), "elementwise shape mismatch");
        let v = Tensor::from_vec(zip(x.data(), y.data(), f), x.shape());
        self.push(v, op)
    }

    /// Matrix product `a @ b` of 2-D tensors.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(self.value(a), self.value(b));
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Dense layer `act(x @ w + b)` (`x` `[m, k]`, `w` `[k, n]`, `b`
    /// `[n]`) on the dense kernel dispatch every forward runs.
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Act) -> Var {
        let (xv, wv, bv) = (self.value(x), self.value(w), self.value(b));
        let (m, k, n) = (xv.rows(), wv.rows(), wv.cols());
        assert_eq!(xv.cols(), k, "linear inner dimensions");
        let mut out = vec![0.0; m * n];
        simd::dense_any(xv.data(), m, wv.data(), bv.data(), k, n, &mut out);
        act.apply_slice(&mut out);
        self.push(
            Tensor::from_vec(out, &[m, n]),
            Op::Linear(x.0, w.0, b.0, act),
        )
    }

    /// Elementwise activation.
    pub fn act(&mut self, a: Var, act: Act) -> Var {
        let mut v = self.value(a).clone();
        act.apply_slice(v.data_mut());
        self.push(v, Op::Act(a.0, act))
    }

    /// Valid (unpadded) 2-D convolution: `x` `[B, C, H, W]`, `w`
    /// `[O, C, KH, KW]`, `b` `[O]`; output `[B, O, OH, OW]`, each element
    /// its bias plus its products in channel, row, column order.
    pub fn conv2d(&mut self, x: Var, w: Var, b: Var, stride: usize) -> Var {
        let g = Conv::new(self.value(x).shape(), self.value(w).shape(), stride);
        let [xv, wv, bv] = [x, w, b].map(|v| self.value(v).data());
        let out = (0..g.out.iter().product()).map(|i| {
            let (oi, taps) = g.taps(i);
            taps.fold(bv[oi], |acc, (xi, wi)| acc + xv[xi] * wv[wi])
        });
        let v = Tensor::from_vec(out.collect(), &g.out);
        self.push(v, Op::Conv2d(x.0, w.0, b.0, stride))
    }

    /// Non-overlapping max pooling with window = stride = `size`.
    pub fn max_pool2d(&mut self, x: Var, size: usize) -> Var {
        let xv = self.value(x);
        let &[bs, c, h, w] = xv.shape() else {
            panic!("max_pool2d needs a 4-D input");
        };
        let max =
            |i| window(xv.shape(), size, i).fold(f32::NEG_INFINITY, |m, j| m.max(xv.data()[j]));
        let out = (0..bs * c * (h / size) * (w / size)).map(max).collect();
        let v = Tensor::from_vec(out, &[bs, c, h / size, w / size]);
        self.push(v, Op::MaxPool2d(x.0, size))
    }

    /// The same values under another shape (volume preserved).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = Tensor::from_vec(self.value(a).data().to_vec(), shape);
        self.push(v, Op::Reshape(a.0))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, |x, y| x + y, Op::Add(a.0, b.0))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, |x, y| x - y, Op::Sub(a.0, b.0))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, |x, y| x * y, Op::Mul(a.0, b.0))
    }

    /// Elementwise minimum; the gradient goes to the winner, ties to `a`.
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, f32::min, Op::MinElem(a.0, b.0))
    }

    /// Multiply by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.map(a, |x| x * c, Op::Scale(a.0, c))
    }

    /// Add a constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.map(a, |x| x + c, Op::AddScalar(a.0))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.map(a, f32::exp, Op::Exp(a.0))
    }

    /// Clamp to `[lo, hi]`; the gradient passes strictly inside only.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        self.map(a, |x| x.clamp(lo, hi), Op::Clamp(a.0, lo, hi))
    }

    /// Row-wise log-softmax of a 2-D tensor.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        let n = v.cols();
        v.data_mut()
            .chunks_mut(n)
            .for_each(infer::log_softmax_inplace);
        self.push(v, Op::LogSoftmax(a.0))
    }

    /// One column per row: `out[i] = a[i, idx[i]]`.
    pub fn select_cols(&mut self, a: Var, idx: &[usize]) -> Var {
        let t = self.value(a);
        assert_eq!(idx.len(), t.rows(), "one index per row");
        assert!(
            idx.iter().all(|&j| j < t.cols()),
            "column index out of range"
        );
        let picked = idx.iter().enumerate().map(|(i, &j)| t.at(i, j)).collect();
        let v = Tensor::from_vec(picked, &[idx.len()]);
        self.push(v, Op::SelectCols(a.0, idx.to_vec()))
    }

    /// Row sums of a 2-D tensor: `[m, n] -> [m]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let sums = t.data().chunks(t.cols()).map(|r| r.iter().sum()).collect();
        let v = Tensor::from_vec(sums, &[t.rows()]);
        self.push(v, Op::SumRows(a.0))
    }

    /// Mean over all elements (a 1-element tensor).
    pub fn mean(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let v = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(v, Op::Mean(a.0))
    }

    /// Sum over all elements (a 1-element tensor).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(v, Op::Sum(a.0))
    }

    /// Backpropagate from a scalar `loss`, filling [`Graph::grad`] for
    /// every node the loss depends on. A node's contributions arrive in
    /// reverse creation order of its consumers — the first stored, later
    /// ones added — which fixes the f32 association the fused pass
    /// reproduces.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.value(loss).len(), 1, "backward needs a scalar loss");
        let nodes = &self.nodes;
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));
        for id in (0..nodes.len()).rev() {
            let Some(g) = grads[id].take() else {
                continue;
            };
            let mut add = |i: usize, d: &[f32]| match &mut grads[i] {
                Some(t) => t.data_mut().iter_mut().zip(d).for_each(|(x, y)| *x += y),
                slot => *slot = Some(Tensor::from_vec(d.to_vec(), nodes[i].0.shape())),
            };
            let val = |i: usize| &nodes[i].0;
            let (gd, (y, op)) = (g.data(), &nodes[id]);
            let each = |f: &dyn Fn(usize) -> f32| (0..gd.len()).map(f).collect::<Vec<_>>();
            match *op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    add(a, matmul_nt(&g, val(b)).data());
                    add(b, matmul_tn(val(a), &g).data());
                }
                Op::Linear(x, w, b, act) => {
                    // dX through the transposed weights and the broadcast
                    // gemm (scalar NT fallback), dW on the TN kernel, db
                    // as row-ascending column sums.
                    let (m, n, k) = (y.rows(), y.cols(), val(w).rows());
                    let dpre = Tensor::from_vec(act_backward(act, gd, y.data()), &[m, n]);
                    let (mut dx, mut wt) = (vec![0.0; m * k], vec![0.0; k * n]);
                    simd::transpose(val(w).data(), k, n, &mut wt);
                    if !simd::gemm(dpre.data(), m, n, &wt, k, None, &mut dx) {
                        simd::gemm_nt_scalar(dpre.data(), m, n, val(w).data(), k, &mut dx);
                    }
                    add(x, &dx);
                    add(w, matmul_tn(val(x), &dpre).data());
                    let mut db = vec![0.0; n];
                    for row in dpre.data().chunks_exact(n) {
                        db.iter_mut().zip(row).for_each(|(d, &v)| *d += v);
                    }
                    add(b, &db);
                }
                Op::Act(a, act) => add(a, &act_backward(act, gd, y.data())),
                Op::Conv2d(x, w, b, stride) => {
                    // Outputs and taps ascending; zero gradients skipped.
                    let conv = Conv::new(val(x).shape(), val(w).shape(), stride);
                    let (xv, wv) = (val(x).data(), val(w).data());
                    let mut dx = vec![0.0; xv.len()];
                    let (mut dw, mut db) = (vec![0.0; wv.len()], vec![0.0; conv.out[1]]);
                    for (i, &gv) in gd.iter().enumerate().filter(|&(_, &gv)| gv != 0.0) {
                        let (oi, taps) = conv.taps(i);
                        db[oi] += gv;
                        for (xi, wi) in taps {
                            dx[xi] += gv * wv[wi];
                            dw[wi] += gv * xv[xi];
                        }
                    }
                    add(x, &dx);
                    add(w, &dw);
                    add(b, &db);
                }
                Op::MaxPool2d(x, size) => {
                    // Each window's first maximum takes the gradient.
                    let xv = val(x);
                    let mut dx = vec![0.0; xv.len()];
                    for (i, &gv) in gd.iter().enumerate() {
                        let mut taps = window(xv.shape(), size, i);
                        let mut best_at = taps.next().expect("a non-empty window");
                        let mut best = xv.data()[best_at];
                        for j in taps {
                            if xv.data()[j] > best {
                                (best, best_at) = (xv.data()[j], j);
                            }
                        }
                        dx[best_at] += gv;
                    }
                    add(x, &dx);
                }
                Op::Reshape(a) | Op::AddScalar(a) => add(a, gd),
                Op::Add(a, b) => {
                    add(a, gd);
                    add(b, gd);
                }
                Op::Sub(a, b) => {
                    add(a, gd);
                    add(b, &each(&|i| -gd[i]));
                }
                Op::Mul(a, b) => {
                    add(a, &zip(gd, val(b).data(), |g, v| g * v));
                    add(b, &zip(gd, val(a).data(), |g, v| g * v));
                }
                Op::MinElem(a, b) => {
                    let a_won = |i: usize| val(a).data()[i] <= val(b).data()[i];
                    add(a, &each(&|i| if a_won(i) { gd[i] } else { 0.0 }));
                    add(b, &each(&|i| if a_won(i) { 0.0 } else { gd[i] }));
                }
                Op::Scale(a, c) => add(a, &each(&|i| gd[i] * c)),
                Op::Exp(a) => add(a, &zip(gd, y.data(), |g, y| g * y)),
                Op::Clamp(a, lo, hi) => {
                    let x = val(a).data();
                    add(
                        a,
                        &each(&|i| if x[i] > lo && x[i] < hi { gd[i] } else { 0.0 }),
                    );
                }
                Op::LogSoftmax(a) => {
                    // dx = dy - softmax(x)·rowsum(dy).
                    let n = y.cols();
                    let mut d = Vec::with_capacity(y.len());
                    for (g_row, y_row) in gd.chunks_exact(n).zip(y.data().chunks_exact(n)) {
                        let row_sum: f32 = g_row.iter().sum();
                        d.extend(zip(g_row, y_row, |g, y| g - exp_or_zero(y) * row_sum));
                    }
                    add(a, &d);
                }
                Op::SelectCols(a, ref idx) => {
                    let n = val(a).cols();
                    let mut d = vec![0.0; val(a).len()];
                    for (i, &j) in idx.iter().enumerate() {
                        d[i * n + j] += gd[i];
                    }
                    add(a, &d);
                }
                Op::SumRows(a) => {
                    let n = val(a).cols();
                    add(a, &(0..val(a).len()).map(|i| gd[i / n]).collect::<Vec<_>>());
                }
                Op::Mean(a) => add(a, &vec![g.item() / val(a).len() as f32; val(a).len()]),
                Op::Sum(a) => add(a, &vec![g.item(); val(a).len()]),
            }
            grads[id] = Some(g);
        }
        self.grads = grads;
    }
}

/// `dY ∘ act'(Y)` through the stored output `y`, one loop per activation.
fn act_backward(act: Act, g: &[f32], y: &[f32]) -> Vec<f32> {
    match act {
        Act::Identity => g.to_vec(),
        Act::Relu => zip(g, y, |g, y| if y > 0.0 { g } else { 0.0 }),
        Act::Tanh => zip(g, y, |g, y| g * (1.0 - y * y)),
        Act::Sigmoid => zip(g, y, |g, y| g * y * (1.0 - y)),
    }
}

fn zip(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// A convolution's shapes: input `[B, C, H, W]`, weight `[O, C, KH, KW]`,
/// stride, output `[B, O, OH, OW]`.
struct Conv {
    x: [usize; 4],
    w: [usize; 4],
    stride: usize,
    out: [usize; 4],
}

impl Conv {
    fn new(x: &[usize], w: &[usize], stride: usize) -> Self {
        let (&[bs, c, h, wd], &[o, c2, kh, kw]) = (x, w) else {
            panic!("conv2d needs a 4-D input and weight");
        };
        assert_eq!(c, c2, "conv2d channel mismatch");
        let out = [bs, o, (h - kh) / stride + 1, (wd - kw) / stride + 1];
        let (x, w) = ([bs, c, h, wd], [o, c, kh, kw]);
        Conv { x, w, stride, out }
    }

    /// Output element `i`'s channel and its `(input, weight)` index
    /// pairs, input channel, kernel row, kernel column ascending.
    fn taps(&self, i: usize) -> (usize, impl Iterator<Item = (usize, usize)>) {
        let ([_, c, h, w], [_, _, kh, kw], s) = (self.x, self.w, self.stride);
        let [_, o, oh, ow] = self.out;
        let (bi, oi) = (i / (o * oh * ow), i / (oh * ow) % o);
        let (y, x) = (i / ow % oh * s, i % ow * s);
        let taps = (0..c * kh * kw).map(move |k| {
            let (ci, ky, kx) = (k / (kh * kw), k / kw % kh, k % kw);
            (
                ((bi * c + ci) * h + y + ky) * w + x + kx,
                oi * c * kh * kw + k,
            )
        });
        (oi, taps)
    }
}

/// The input indices of max-pool output `i` over `[B, C, H, W]` maps,
/// row then column.
fn window(shape: &[usize], size: usize, i: usize) -> impl Iterator<Item = usize> {
    let &[_, _, h, w] = shape else {
        panic!("max_pool2d needs a 4-D input");
    };
    let (oh, ow) = (h / size, w / size);
    let (map, y, x) = (i / (oh * ow), i / ow % oh * size, i % ow * size);
    (0..size * size).map(move |k| (map * h + y + k / size) * w + x + k % size)
}

/// Bind every parameter of `p` onto the tape (bind order) and build its
/// output for the `[n, obs_dim]` observations `obs`: `[n, n_actions]`
/// logits for a policy, `[n, 1]` values for a critic's flat chain.
pub fn forward(g: &mut Graph, p: &FusedPolicy<'_>, obs: Var, n: usize) -> (Var, Vec<Var>) {
    let params: Vec<Var> = p.params().map(|t| g.param(t.clone())).collect();
    let mut bound = params.iter().copied();
    let mut next = || bound.next().expect("one var per parameter");
    let mut h = match p.head {
        FusedHead::Flat => obs,
        FusedHead::Kernel { window } => g.reshape(obs, &[n * window, p.mlp.in_dim()]),
        FusedHead::Conv { convs, h, w } => {
            let mut x = g.reshape(obs, &[n, 1, h, w]);
            for conv in convs {
                let (cw, cb) = (next(), next());
                let c = g.conv2d(x, cw, cb, conv.stride);
                let r = g.act(c, Act::Relu);
                x = g.max_pool2d(r, POOL);
            }
            let flat = g.value(x).len() / n;
            g.reshape(x, &[n, flat])
        }
    };
    let (mlp, last) = (p.mlp, p.mlp.layers.len() - 1);
    for l in 0..=last {
        let act = if l == last { mlp.output } else { mlp.hidden };
        let (w, b) = (next(), next());
        h = g.linear(h, w, b, act.to_act());
    }
    if let FusedHead::Kernel { window } = p.head {
        h = g.reshape(h, &[n, window]);
    }
    (h, params)
}

/// The PPO policy objective on the tape.
#[derive(Debug)]
pub struct PolicyLoss {
    /// The scalar loss.
    pub loss: Var,
    /// Masked log-probabilities, `[n, n_actions]`.
    pub logp_all: Var,
    /// The taken actions' log-probabilities, `[n]`.
    pub logp: Var,
    /// The policy's parameters, in bind order.
    pub params: Vec<Var>,
}

/// The loss `Ppo::update` minimizes over one minibatch of `p`: masked
/// log-softmax, the taken actions' log-probs, the clipped surrogate
/// `-mean(min(r·A, clip(r)·A))` with `r = exp(logp − logp_old)`, and —
/// when `ent_coef` ≠ 0 — the entropy term `ent_coef · mean(Σ p·logp)`.
#[allow(clippy::too_many_arguments)] // the PPO objective's term list
pub fn policy_loss(
    g: &mut Graph,
    p: &FusedPolicy<'_>,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip: f32,
    ent_coef: f32,
) -> PolicyLoss {
    let n = actions.len();
    let o = g.input_from(obs, &[n, obs.len() / n]);
    let m = g.input_from(masks, &[n, masks.len() / n]);
    let (logits, params) = forward(g, p, o, n);
    let masked = g.add(logits, m);
    let logp_all = g.log_softmax(masked);
    let logp = g.select_cols(logp_all, actions);
    let old = g.input_from(logp_old, &[n]);
    let diff = g.sub(logp, old);
    let ratio = g.exp(diff);
    let adv = g.input_from(advantages, &[n]);
    let surr1 = g.mul(ratio, adv);
    let clipped = g.clamp(ratio, 1.0 - clip, 1.0 + clip);
    let surr2 = g.mul(clipped, adv);
    let obj = g.min_elem(surr1, surr2);
    let mean_obj = g.mean(obj);
    let mut loss = g.scale(mean_obj, -1.0);
    if ent_coef != 0.0 {
        let probs = g.exp(logp_all);
        let plogp = g.mul(probs, logp_all);
        let row = g.sum_rows(plogp);
        let ent = g.mean(row);
        let weighted = g.scale(ent, ent_coef);
        loss = g.add(loss, weighted);
    }
    PolicyLoss {
        loss,
        logp_all,
        logp,
        params,
    }
}

/// The critic loss `mean((v − R)²)` over `mlp` on the tape: the loss and
/// the critic's parameters in bind order.
pub fn value_loss(g: &mut Graph, mlp: &Mlp, obs: &[f32], returns: &[f32]) -> (Var, Vec<Var>) {
    let n = returns.len();
    let o = g.input_from(obs, &[n, obs.len() / n]);
    let head = FusedHead::Flat;
    let (v, params) = forward(g, &FusedPolicy { mlp, head }, o, n);
    let r = g.input_from(returns, &[n, 1]);
    let d = g.sub(v, r);
    let sq = g.mul(d, d);
    (g.mean(sq), params)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d loss / d input` for every
    /// element of the chosen leaf.
    fn gradcheck<F>(input: Tensor, build: F, tol: f32)
    where
        F: Fn(&mut Graph, Var) -> Var,
    {
        let mut g = Graph::new();
        let x = g.param(input.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad_or_zeros(x);

        let eps = 1e-3f32;
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
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn demo_input() -> Tensor {
        Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.05, -1.4, 0.9], &[2, 3])
    }

    fn demo_weight() -> Tensor {
        Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2])
    }

    #[test]
    fn gradcheck_matmul_bias_relu_mean() {
        let b = Tensor::from_vec(vec![0.1, -0.1], &[2]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let wv = g.input(demo_weight());
                let bv = g.input(b.clone());
                let h = g.linear(x, wv, bv, Act::Relu);
                g.mean(h)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_matmul_weight_side() {
        gradcheck(
            demo_weight(),
            move |g, w| {
                let xv = g.input(demo_input());
                let h = g.matmul(xv, w);
                let h = g.act(h, Act::Tanh);
                g.mean(h)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_fused_linear_all_activations() {
        // The dense node must agree with finite differences through every
        // activation, on both the input and the weight side.
        let b = Tensor::from_vec(vec![0.15, -0.4], &[2]);
        for act in [Act::Identity, Act::Relu, Act::Tanh, Act::Sigmoid] {
            let b2 = b.clone();
            gradcheck(
                demo_input(),
                move |g, x| {
                    let wv = g.input(demo_weight());
                    let bv = g.input(b2.clone());
                    let h = g.linear(x, wv, bv, act);
                    g.mean(h)
                },
                2e-2,
            );
            let b2 = b.clone();
            gradcheck(
                demo_weight(),
                move |g, w| {
                    let xv = g.input(demo_input());
                    let bv = g.input(b2.clone());
                    let h = g.linear(xv, w, bv, act);
                    g.mean(h)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn fused_linear_matches_unfused_pipeline() {
        let b = Tensor::from_vec(vec![0.15, -0.4], &[2]);
        let mut g1 = Graph::new();
        let (x, w, bv) = (
            g1.input(demo_input()),
            g1.input(demo_weight()),
            g1.input(b.clone()),
        );
        let fused = g1.linear(x, w, bv, Act::Tanh);

        let mut g2 = Graph::new();
        let (x, w, bv) = (g2.input(demo_input()), g2.input(demo_weight()), g2.input(b));
        let pre = g2.linear(x, w, bv, Act::Identity);
        let t = g2.act(pre, Act::Tanh);

        assert_eq!(g1.value(fused), g2.value(t));
        assert_eq!(g1.len(), 4, "fused pipeline: 3 leaves + 1 node");
        assert_eq!(g2.len(), 5, "unfused pipeline: 3 leaves + 2 nodes");
    }

    #[test]
    fn gradcheck_tanh_sigmoid_exp() {
        gradcheck(
            demo_input(),
            |g, x| {
                let a = g.act(x, Act::Tanh);
                let b = g.act(a, Act::Sigmoid);
                let c = g.exp(b);
                g.mean(c)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_log_softmax_select() {
        gradcheck(
            demo_input(),
            |g, x| {
                let ls = g.log_softmax(x);
                let picked = g.select_cols(ls, &[2, 0]);
                g.mean(picked)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_clamp_min_mul() {
        let other = Tensor::from_vec(vec![0.2, -0.3, 0.8, -0.9, 0.4, 1.1], &[2, 3]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let o = g.input(other.clone());
                let c = g.clamp(x, -1.0, 1.0);
                let m = g.min_elem(c, o);
                let p = g.mul(m, o);
                g.mean(p)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_sum_rows_and_arith() {
        gradcheck(
            demo_input(),
            |g, x| {
                let s = g.scale(x, 1.7);
                let s = g.add_scalar(s, 0.3);
                let r = g.sum_rows(s);
                let sq = g.mul(r, r);
                g.sum(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn gradcheck_sub_add() {
        let other = Tensor::from_vec(vec![0.2, -0.3, 0.8, -0.9, 0.4, 1.1], &[2, 3]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let o = g.input(other.clone());
                let d = g.sub(x, o);
                let e = g.add(d, x);
                let f = g.mul(e, e);
                g.mean(f)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_reshape_pipeline() {
        gradcheck(
            demo_input(),
            |g, x| {
                let r = g.reshape(x, &[3, 2]);
                let t = g.act(r, Act::Tanh);
                g.mean(t)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_conv_and_pool() {
        // 1 batch, 1 channel, 4x4 input; 1 output channel, 2x2 kernel.
        let x = Tensor::from_vec(
            (0..16).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[1, 1, 4, 4],
        );
        gradcheck(
            x,
            |g, xin| {
                let w = g.param(Tensor::from_vec(vec![0.4, -0.2, 0.3, 0.1], &[1, 1, 2, 2]));
                let b = g.param(Tensor::from_vec(vec![0.05], &[1]));
                let c = g.conv2d(xin, w, b, 1); // [1,1,3,3]
                let t = g.act(c, Act::Tanh);
                g.mean(t)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_conv_weights() {
        let x = Tensor::from_vec(
            (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.2).collect(),
            &[1, 2, 4, 4],
        );
        gradcheck(
            Tensor::from_vec(
                (0..16).map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.1).collect(),
                &[2, 2, 2, 2],
            ),
            move |g, w| {
                let xin = g.input(x.clone());
                let b = g.input(Tensor::from_vec(vec![0.0, 0.1], &[2]));
                let c = g.conv2d(xin, w, b, 2); // [1,2,2,2]
                let p = g.max_pool2d(c, 2); // [1,2,1,1]
                let r = g.reshape(p, &[1, 2]);
                let s = g.sum_rows(r);
                g.sum(s)
            },
            2e-2,
        );
    }

    #[test]
    fn log_softmax_rows_are_normalized() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
            &[2, 3],
        ));
        let ls = g.log_softmax(x);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| g.value(ls).at(i, j).exp()).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn log_softmax_handles_extreme_logits() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1000.0, -1000.0, 0.0], &[1, 3]));
        let ls = g.log_softmax(x);
        assert!(g.value(ls).data().iter().all(|v| v.is_finite()));
        assert!(
            (g.value(ls).at(0, 0)).abs() < 1e-5,
            "dominant logit has logprob ~0"
        );
    }

    #[test]
    fn gradients_accumulate_over_reused_nodes() {
        // loss = mean(x * x): d/dx = 2x/len, uses x twice via Mul(a,a).
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![3.0, -2.0], &[2]));
        let sq = g.mul(x, x);
        let loss = g.mean(sq);
        g.backward(loss);
        let gr = g.grad(x).expect("touched");
        assert!((gr.data()[0] - 3.0).abs() < 1e-5);
        assert!((gr.data()[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn conv_output_shape_and_value() {
        // Uniform input, unit kernel: every output equals k*k*mean + bias.
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[1, 1, 4, 4], 2.0));
        let w = g.input(Tensor::full(&[1, 1, 2, 2], 1.0));
        let b = g.input(Tensor::from_vec(vec![0.5], &[1]));
        let c = g.conv2d(x, w, b, 2);
        assert_eq!(g.value(c).shape(), &[1, 1, 2, 2]);
        assert!(g.value(c).data().iter().all(|&v| (v - 8.5).abs() < 1e-6));
    }

    #[test]
    fn max_pool_takes_window_max() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            (1..=16).map(|v| v as f32).collect(),
            &[1, 1, 4, 4],
        ));
        let p = g.max_pool2d(x, 2);
        assert_eq!(g.value(p).data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[2, 2]));
        let y = g.act(x, Act::Relu);
        g.backward(y);
    }

    #[test]
    fn grad_of_untouched_node_is_none_and_zeros() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[3]));
        let y = g.param(Tensor::from_vec(vec![1.0], &[1]));
        let loss = g.mean(y);
        g.backward(loss);
        assert!(g.grad(x).is_none());
        assert_eq!(g.grad_or_zeros(x).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(g.grad(y).expect("touched").data(), &[1.0]);
    }

    #[test]
    fn input_from_matches_input() {
        let data = [0.5f32, -1.5, 2.5, 0.0];
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(data.to_vec(), &[2, 2]));
        let b = g.input_from(&data, &[2, 2]);
        assert_eq!(g.value(a), g.value(b));
        let t = g.value(a).clone();
        let p = g.param(t.clone());
        assert_eq!(g.value(p), &t);
    }
}
