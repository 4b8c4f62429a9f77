//! Allocation-free inference: plain forward passes over `&[f32]` scratch
//! buffers.
//!
//! Scheduling decisions (RLScheduler §IV-B1's test path, Table IX's
//! latency comparison vs SJF) and rollout sampling only need output
//! values, so this module touches no memory beyond a caller-owned
//! [`Scratch`]. Every policy decides through one forward, [`log_probs`],
//! which reads the network off the [`FusedPolicy`] the training side,
//! [`crate::fused`], trains: no architecture is defined twice. The fused
//! pass runs these same layer forwards and keeps what its analytic
//! backward needs.
//!
//! # Kernels and layout
//!
//! Dense layers run through the microkernels in [`crate::simd`] — the
//! *same* kernels the fused training pass uses — whose every output is one
//! fixed FMA chain, so a decision and a training forward compute
//! bit-identical values on every CPU (ReLU applied at the store).
//!
//! Weight layout is `[in, out]` row-major everywhere, for one decision
//! and for a stacked batch alike, and the kernels are row-count
//! invariant: row `i` of a stacked forward is bit-identical to a forward
//! of row `i` alone.
//!
//! [`log_probs`] has one arm per [`FusedHead`], and each scores a whole
//! batch of observations in one pass: the kernel head scores only the
//! windows' job rows, in blocks of views; the flat head is one
//! [`mlp_forward`] over the stacked rows; the conv head runs each conv
//! stage over every image, then the dense chain over all of them. The
//! critic's forward is [`window_mlp_forward`].

use crate::fused::{FusedHead, FusedPolicy, POOL};
use crate::layers::{Activation, Dense, Mlp};
use crate::simd;

/// Reusable scratch buffers for inference. One per worker/thread; cheap
/// to create, free to reuse. Buffers only ever grow to the high-water
/// mark of the architectures run through them.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// Ping buffer for layer outputs.
    a: Vec<f32>,
    /// Pong buffer for layer outputs.
    b: Vec<f32>,
    /// A third live tensor: the kernel head's scores or a conv stage's
    /// output.
    c: Vec<f32>,
    /// The dense chain's input when it is not the observation: the job
    /// rows a kernel pass copies out of their windows (see
    /// [`live_job_rows`]), or a conv pass's pooled maps.
    input: Vec<f32>,
    /// [`window_mlp_forward`]: each window's extent, and the windows in
    /// order of extent.
    ext: Vec<usize>,
    order: Vec<u32>,
}

impl Scratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Dense layer forward: `out = act(x @ w + b)` where `x` is `[rows, in]`
/// row-major, `w` `[in, out_dim]`, `b` `[out_dim]`.
///
/// Runs [`crate::simd::dense_any`], so every caller — decisions, the fused
/// training pass, the reference tape — agrees bit-for-bit. ReLU is
/// applied at the kernel's store. `out` is resized, not cleared: the part it keeps is
/// overwritten, so only growth zero-fills.
#[allow(clippy::too_many_arguments)] // mirrors the raw (x, w, b, dims) BLAS-style signature
pub fn dense_forward(
    x: &[f32],
    rows: usize,
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), rows * in_dim, "input volume");
    out.resize(rows * out_dim, 0.0);
    simd::dense_any(x, rows, w, b, in_dim, out_dim, act, out);
}

/// [`dense_forward`] over rows whose inputs are zero past `ext[row]`
/// ([`simd::dense_ragged`], which gives the same bits without the
/// padding's arithmetic): `ext.len()` rows, computed in blocks of
/// `order`. The activation is a pass of its own after the kernel:
/// `dense_ragged` restores a −0 output's sign by testing it before any
/// activation, so it cannot apply one at the store.
#[allow(clippy::too_many_arguments)] // dense_forward's operands + extents and order
pub fn dense_forward_ragged(
    x: &[f32],
    ext: &[usize],
    order: &[u32],
    w: &[f32],
    b: &[f32],
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    out: &mut Vec<f32>,
) {
    out.resize(ext.len() * out_dim, 0.0);
    simd::dense_ragged(x, ext, order, w, b, in_dim, out_dim, out);
    act.apply_slice(out);
}

/// Forward an [`Mlp`] over `rows` stacked input rows; the final layer's
/// activations land in `out` (`[rows, mlp.out_dim()]`).
pub fn mlp_forward(mlp: &Mlp, x: &[f32], rows: usize, scratch: &mut Scratch, out: &mut Vec<f32>) {
    let Scratch { a, b, .. } = scratch;
    chain_forward(mlp, x, rows, None, a, b, out);
}

/// [`mlp_forward`] over `rows` stacked observation windows of
/// `features`-wide job rows, whose first layer reads each window only up
/// to its last job ([`live_job_rows`], [`dense_forward_ragged`]) — with
/// the bits [`mlp_forward`] gives the whole windows. The critic runs this
/// at every rollout step.
pub fn window_mlp_forward(
    mlp: &Mlp,
    x: &[f32],
    rows: usize,
    features: usize,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    let in_dim = mlp.in_dim();
    assert!(
        x.len() == rows * in_dim && in_dim.is_multiple_of(features),
        "{rows} windows of {in_dim} inputs in {features}-wide job rows"
    );
    let Scratch {
        a, b, ext, order, ..
    } = scratch;
    ext.clear();
    ext.extend(
        x.chunks_exact(in_dim)
            .map(|w| live_job_rows(w, features) * features),
    );
    simd::ragged_order(ext, order);
    chain_forward(mlp, x, rows, Some((ext, order)), a, b, out);
}

/// The layer loop of [`mlp_forward`], the first layer ragged when
/// `ragged` gives its extents and order.
fn chain_forward(
    mlp: &Mlp,
    x: &[f32],
    rows: usize,
    ragged: Option<(&[usize], &[u32])>,
    a: &mut Vec<f32>,
    pong: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    // Invariant: after layer i < last, its activations live in `a`.
    let last = mlp.layers.len() - 1;
    for (i, layer) in mlp.layers.iter().enumerate() {
        let act = if i == last { mlp.output } else { mlp.hidden };
        let (w, b) = (layer.w.data(), layer.b.data());
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        if i == 0 {
            let dst = if last == 0 { &mut *out } else { &mut *a };
            match ragged {
                Some((ext, order)) => {
                    dense_forward_ragged(x, ext, order, w, b, din, dout, act, dst)
                }
                None => dense_forward(x, rows, w, b, din, dout, act, dst),
            }
        } else if i == last {
            dense_forward(a, rows, w, b, din, dout, act, out);
        } else {
            dense_forward(a, rows, w, b, din, dout, act, pong);
            std::mem::swap(a, pong);
        }
    }
}

/// Give `scratch` and `out` room for an [`mlp_forward`] of `rows` rows, so
/// that no forward of at most `rows` rows grows them: a caller whose row
/// count varies call to call (the kernel network scores only the rows
/// that hold jobs) stays allocation-free after its first call.
fn reserve_rows(mlp: &Mlp, rows: usize, scratch: &mut Scratch, out: &mut Vec<f32>) {
    let fit = |v: &mut Vec<f32>, len: usize| v.reserve(len.saturating_sub(v.len()));
    let (hidden, last) = mlp.layers.split_at(mlp.layers.len() - 1);
    let widest = hidden.iter().map(Dense::out_dim).max().unwrap_or(0);
    fit(&mut scratch.a, rows * widest);
    fit(&mut scratch.b, rows * widest);
    fit(out, rows * last[0].out_dim());
}

/// Valid (unpadded) conv2d into an output slice, every value of which it
/// writes. Shared by the
/// fast path and the fused training forward so both compute identical
/// values.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    x: &[f32],
    w: &[f32],
    b: &[f32],
    bs: usize,
    c: usize,
    h: usize,
    wd: usize,
    o: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    out: &mut [f32],
) {
    let oh = (h - kh) / stride + 1;
    let ow = (wd - kw) / stride + 1;
    debug_assert_eq!(out.len(), bs * o * oh * ow);
    for bi in 0..bs {
        for oi in 0..o {
            for y in 0..oh {
                for xj in 0..ow {
                    let mut acc = b[oi];
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let xi =
                                    x[idx4(bi, ci, y * stride + ky, xj * stride + kx, c, h, wd)];
                                let wi = w[idx4(oi, ci, ky, kx, c, kh, kw)];
                                acc += xi * wi;
                            }
                        }
                    }
                    out[idx4(bi, oi, y, xj, o, oh, ow)] = acc;
                }
            }
        }
    }
}

/// Non-overlapping max-pool into an output slice, every value of which
/// it writes (window = stride = `size`). Shared by the fast path and the fused training forward.
pub fn max_pool2d_into(
    x: &[f32],
    bs: usize,
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (h / size, w / size);
    debug_assert_eq!(out.len(), bs * c * oh * ow);
    for bi in 0..bs {
        for ci in 0..c {
            for y in 0..oh {
                for xj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..size {
                        for kx in 0..size {
                            let v = x[idx4(bi, ci, y * size + ky, xj * size + kx, c, h, w)];
                            best = best.max(v);
                        }
                    }
                    out[idx4(bi, ci, y, xj, c, oh, ow)] = best;
                }
            }
        }
    }
}

/// Scratch-buffered conv2d: resizes `out` and runs [`conv2d_into`].
/// Returns the output spatial dims `(oh, ow)`. `out` is resized, not
/// cleared: [`conv2d_into`] writes every output value, so only growth
/// zero-fills.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    x: &[f32],
    w: &[f32],
    b: &[f32],
    bs: usize,
    c: usize,
    h: usize,
    wd: usize,
    o: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    out: &mut Vec<f32>,
) -> (usize, usize) {
    let oh = (h - kh) / stride + 1;
    let ow = (wd - kw) / stride + 1;
    out.resize(bs * o * oh * ow, 0.0);
    conv2d_into(x, w, b, bs, c, h, wd, o, kh, kw, stride, out);
    (oh, ow)
}

/// Scratch-buffered max-pool, resized like [`conv2d_forward`]'s output
/// ([`max_pool2d_into`] writes every value). Returns the output spatial
/// dims.
pub fn max_pool2d_forward(
    x: &[f32],
    bs: usize,
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut Vec<f32>,
) -> (usize, usize) {
    let (oh, ow) = (h / size, w / size);
    out.resize(bs * c * oh * ow, 0.0);
    max_pool2d_into(x, bs, c, h, w, size, out);
    (oh, ow)
}

/// `exp(x)` underflows to exactly `0.0f32` below this, so skipping the
/// libm call for such inputs is bit-exact — and masked action slots sit
/// at ~-1e9, so a PPO batch is full of them.
pub(crate) const EXP_UNDERFLOW: f32 = -104.0;

/// `exp(x)` with the underflow short-circuit (bit-identical to
/// `x.exp()` for every input).
#[inline]
pub fn exp_or_zero(x: f32) -> f32 {
    if x <= EXP_UNDERFLOW {
        0.0
    } else {
        x.exp()
    }
}

/// Numerically-stabilized log-softmax of one row, in place: the one
/// log-softmax every policy head, the fused pass and the reference tape
/// run.
pub fn log_softmax_inplace(row: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse = mx + row.iter().map(|&x| exp_or_zero(x - mx)).sum::<f32>().ln();
    for x in row {
        *x -= lse;
    }
}

/// Batched kernel scoring processes this many views per dispatch: each
/// view contributes its live job rows (at most its window, so a block is
/// at most ~a thousand rows at the paper's K = 128), plus the dispatch's
/// one zero row. The kernel net's weights are L1-resident (batching buys
/// dispatch amortization, not weight traffic), so what limits large
/// stacks is the *intermediate activation* working set (up to
/// `views * K` rows through every hidden width); blocking keeps it
/// cache-resident while still scoring up to ~a thousand job rows per
/// dispatch. Row-count invariance of the dense kernels makes the
/// blocking invisible: every row computes the same bits at any block
/// size.
const KERNEL_VIEW_BLOCK: usize = 8;

/// The one decision forward of every policy: the masked log-probabilities
/// of `rows` stacked observations under the policy `p`, the network
/// [`crate::fused::policy_pass`] trains. `obs` is `[rows,
/// obs_dim]` and `masks` `[rows, n_actions]` (additive: 0 on a valid slot,
/// [`crate::MASK_OFF`] on the rest), both row-major, with the widths of
/// [`FusedPolicy::widths`]; `out` receives `[rows, n_actions]`. Nothing
/// is allocated once a call with as many rows has run.
///
/// One arm per head writes the logits:
///
/// * [`FusedHead::Kernel`]: each window's job rows through the shared
///   kernel, the padding slots filled with one zero row's score;
/// * [`FusedHead::Flat`]: [`mlp_forward`] over the stacked rows;
/// * [`FusedHead::Conv`]: each conv stage's conv → ReLU → max-pool over
///   all `rows` images, then the dense chain.
///
/// Then every row gets its mask added and a [`log_softmax_inplace`], the
/// fused pass's arithmetic. The dense kernels are row-count invariant, so
/// row `i` is bit-identical to a call on row `i` alone.
pub fn log_probs(
    p: &FusedPolicy,
    obs: &[f32],
    masks: &[f32],
    rows: usize,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    let (od, n) = p.widths();
    // Hard asserts: a short mask must never silently leave padding
    // logits unmasked.
    assert_eq!(obs.len(), rows * od, "{rows} observations of {od} values");
    assert_eq!(masks.len(), rows * n, "{rows} masks of {n} slots");
    match p.head {
        FusedHead::Kernel { window } => window_scores(&p.mlp, window, obs, scratch, out),
        FusedHead::Flat => mlp_forward(&p.mlp, obs, rows, scratch, out),
        FusedHead::Conv { .. } => conv_logits(p, obs, rows, scratch, out),
    }
    for (row, mask) in out.chunks_mut(n).zip(masks.chunks(n)) {
        for (o, &m) in row.iter_mut().zip(mask) {
            *o += m;
        }
        log_softmax_inplace(row);
    }
}

/// Kernel head: the raw scores of stacked windows of `k` job rows,
/// `[views, k]` into `out`.
///
/// Only the job rows run through the kernel: per view the rows up to its
/// last job ([`live_job_rows`]), then one all-zero row per dispatch,
/// whose score fills every padding slot. The same weights score every
/// row and the dense kernels are row-count invariant, so each slot gets
/// exactly the bits a forward of the whole window would give it. The rows
/// are copied into the scratch first.
fn window_scores(kernel: &Mlp, k: usize, obs: &[f32], scratch: &mut Scratch, out: &mut Vec<f32>) {
    let f = kernel.in_dim();
    let mut jobs = std::mem::take(&mut scratch.input);
    let mut scores = std::mem::take(&mut scratch.c);
    out.clear();
    for block in obs.chunks(KERNEL_VIEW_BLOCK * k * f) {
        // Room for every row of every window, so the buffers' size
        // depends on the view count alone, never on how full the
        // windows are: a decision or rollout tick allocates nothing
        // once one with as many views has run.
        let most = block.len() / f + 1;
        jobs.clear();
        jobs.reserve(most * f);
        reserve_rows(kernel, most, scratch, &mut scores);
        let mut live = [0; KERNEL_VIEW_BLOCK];
        let windows = block.chunks(k * f);
        let live = &mut live[..windows.len()];
        for (window, live) in windows.zip(&mut *live) {
            *live = live_job_rows(window, f);
            jobs.extend_from_slice(&window[..*live * f]);
        }
        jobs.resize(jobs.len() + f, 0.0);
        mlp_forward(kernel, &jobs, jobs.len() / f, scratch, &mut scores);
        spread_window_scores(&scores, live, k, out);
    }
    scratch.input = jobs;
    scratch.c = scores;
}

/// Conv head: each stage's conv → ReLU → max-pool over all `rows` images
/// (the loops the fused forward runs), then the dense chain over the last
/// stage's flattened maps.
fn conv_logits(
    p: &FusedPolicy,
    obs: &[f32],
    rows: usize,
    scratch: &mut Scratch,
    out: &mut Vec<f32>,
) {
    let Scratch { a, b, c, input, .. } = scratch;
    for (i, st) in p.net().stages().enumerate() {
        let x = if i == 0 { obs } else { &input[..] };
        let conv = st.conv;
        let (w, bias) = (conv.w.data(), conv.b.data());
        let (ci, h, wd, o, kh, kw) = (st.c, st.h, st.w, st.o, st.kh, st.kw);
        conv2d_forward(x, w, bias, rows, ci, h, wd, o, kh, kw, conv.stride, c);
        Activation::Relu.apply_slice(c);
        max_pool2d_forward(c, rows, o, st.ch, st.cw, POOL, input);
    }
    let x = if p.convs.is_empty() { obs } else { &input[..] };
    chain_forward(&p.mlp, x, rows, None, a, b, out);
}

/// How many of a window's `features`-wide job rows hold a job: the rows
/// up to the last one with a nonzero bit. The rows after it are the
/// window's zero padding, and a shared-weight kernel gives each of them
/// the score of one all-zero row. A trailing part shorter than a row is
/// not a row.
///
/// The scan drops all-zero chunks of eight values from the end (an OR of
/// their bits), then finds the last nonzero value in what is left: the
/// count is that value's row plus one.
pub fn live_job_rows(window: &[f32], features: usize) -> usize {
    let values = &window[..window.len() - window.len() % features];
    let all_zero = |chunk: &[f32]| chunk.iter().fold(0, |any, v| any | v.to_bits()) == 0;
    let mut end = values.len();
    while end >= 8 && all_zero(&values[end - 8..end]) {
        end -= 8;
    }
    values[..end]
        .iter()
        .rposition(|v| v.to_bits() != 0)
        .map_or(0, |last| last / features + 1)
}

/// Spread a kernel pass's scores back over whole windows of `window`
/// slots, appending `[live.len(), window]` to `out`: `scores` holds, in
/// order, the scores of each window's first `live[v]` job rows and, last,
/// the score of an all-zero row, which fills every other slot.
pub(crate) fn spread_window_scores(
    scores: &[f32],
    live: &[usize],
    window: usize,
    out: &mut Vec<f32>,
) {
    let padding = *scores.last().expect("the zero row is scored last");
    let mut at = 0;
    for &live in live {
        out.extend_from_slice(&scores[at..at + live]);
        out.resize(out.len() + window - live, padding);
        at += live;
    }
}

/// Row-major 4-D index, shared by the conv/pool forward kernels here and
/// their backward passes in [`crate::fused`] so layouts cannot diverge.
#[inline]
pub(crate) fn idx4(
    a: usize,
    b: usize,
    c: usize,
    d: usize,
    nb: usize,
    nc: usize,
    nd: usize,
) -> usize {
    ((a * nb + b) * nc + c) * nd + d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_batch_forward_matches_rows() {
        // Widths that reach the one-row remainder's 64- and 32-column
        // tiles in a single-row forward and the 4-row blocks in a batch.
        let mut rng = StdRng::seed_from_u64(23);
        let mlp = Mlp::new(
            &[11, 72, 40, 6],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let rows = 5;
        let x: Vec<f32> = (0..rows * 11)
            .map(|i| ((i * 19 % 31) as f32 - 15.0) * 0.04)
            .collect();
        let mut scratch = Scratch::new();
        let mut batched = Vec::new();
        mlp_forward(&mlp, &x, rows, &mut scratch, &mut batched);
        assert_eq!(batched.len(), rows * 6);
        let mut single = Vec::new();
        for r in 0..rows {
            mlp_forward(&mlp, &x[r * 11..(r + 1) * 11], 1, &mut scratch, &mut single);
            assert_eq!(
                &batched[r * 6..(r + 1) * 6],
                single.as_slice(),
                "row {r} must not depend on batch size"
            );
        }
    }

    #[test]
    fn dense_forward_applies_activation() {
        // x=[1,2], w=I, b=[-5, 0] → pre = [-4, 2] → relu → [0, 2]
        let mut out = Vec::new();
        dense_forward(
            &[1.0, 2.0],
            1,
            &[1.0, 0.0, 0.0, 1.0],
            &[-5.0, 0.0],
            2,
            2,
            Activation::Relu,
            &mut out,
        );
        assert_eq!(out, vec![0.0, 2.0]);
    }

    #[test]
    fn scratch_buffers_are_reused_not_regrown() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(
            &[4, 16, 16, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let x = vec![0.25f32; 4];
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        mlp_forward(&mlp, &x, 1, &mut scratch, &mut out);
        let cap_a = scratch.a.capacity();
        let cap_b = scratch.b.capacity();
        for _ in 0..100 {
            mlp_forward(&mlp, &x, 1, &mut scratch, &mut out);
        }
        assert_eq!(scratch.a.capacity(), cap_a, "ping buffer must not regrow");
        assert_eq!(scratch.b.capacity(), cap_b, "pong buffer must not regrow");
    }
}
