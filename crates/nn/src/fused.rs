//! Tape-free fused forward+backward for the PPO update.
//!
//! The autodiff tape ([`crate::Graph`]) exists so *any* op pipeline can be
//! differentiated; the PPO update differentiates the **same** pipeline
//! thousands of times per epoch: an MLP chain, a masked log-softmax, a
//! categorical gather, and the clipped-surrogate / entropy / value-loss
//! scalar tail. This module hand-writes that forward+backward once —
//! `infer.rs` already does it for the forward-only scoring path; this is
//! its training-side sibling.
//!
//! The forward runs the batched layer chain on the shared
//! [`crate::simd`] kernels while stashing only the per-layer activations
//! the analytic backward needs (in a caller-owned [`FusedScratch`]); the
//! backward fuses masked-log-softmax + gather + PPO clip/entropy (or the
//! value squared-error) gradients into a single dlogits pass, then walks
//! the layers with the same TN (`dW = Xᵀ·dpre`) and transposed-W
//! (`dX = dpre·Wᵀ`) kernel dispatches the tape's `Linear` backward uses —
//! no graph nodes, no buffer-pool bookkeeping, no per-op dispatch, and no
//! heap allocation at steady state.
//!
//! # Chunking and the bit-identity contract
//!
//! Every pass splits the minibatch into fixed [`SHARD_ROWS`]-row chunks
//! (a function of the batch size alone) and runs each chunk's forward,
//! loss tail and backward **back to back** on one of the rayon shim's
//! workers, while the chunk's rows are still in cache. State is split by
//! who needs it:
//!
//! * a per-**worker** scratch (every layer's activations plus the
//!   gradient ping/pong buffers — megabytes for the kernel network)
//!   serves a worker's whole contiguous run of chunks, one after the
//!   other, so at most `rayon::current_num_threads()` of them exist
//!   however large the minibatch is;
//! * a per-**chunk** partial (parameter gradients, loss partial sums
//!   and the chunk's log-prob rows — kilobytes) is all that outlives the
//!   chunk.
//!
//! The gradient partials then reduce through a chunk-index-ordered tree
//! merge and the loss partials fold in chunk order — so every output is
//! a pure function of the *minibatch*, **bit-identical at any worker
//! count** (which worker's scratch a chunk ran in never shows: every
//! buffer is overwritten before it is read) on whichever kernel dispatch
//! arm is active (AVX2/FMA or `RLSCHED_FORCE_SCALAR`).
//!
//! Within a chunk the pass is **bit-identical to the tape**: every
//! matmul goes through the same [`crate::simd`] entry points with the
//! same shapes, every elementwise pass replicates the tape's accumulation
//! order (including the needs-grad pruning that skips `dX` into the
//! observation matrix, the bias row-accumulation order, and the
//! `exp`-underflow short-circuit of the log-softmax backward). So on
//! batches of at most [`SHARD_ROWS`] rows (one chunk) loss, selected
//! log-probs and every gradient equal the tape's with exact `==`, and N
//! such updates reproduce the tape's training trajectory bit for bit
//! (`tests/fused_parity_prop.rs` and `rlscheduler`'s update-level suite).
//! Forward outputs are row-local and the kernels row-count invariant, so
//! the per-row diagnostics ([`FusedScratch::logp_all`] /
//! [`FusedScratch::selected_logp`]) match the tape at *every* batch size;
//! across chunk boundaries only the f32 association of the dW/db row
//! reductions and the loss fold changes, which stays within f32
//! tolerance of the tape.
//!
//! # Supported architectures
//!
//! Exactly the paper's trainable policies: a dense [`Mlp`] chain under
//! either logits head —
//!
//! * [`FusedHead::Flat`]: `logits = mlp(obs)`, one row per transition
//!   (the MLP v1–v3 baselines of Table IV, and every critic).
//! * [`FusedHead::Kernel`]: the kernel network of Fig 5 — the `[n, K·F]`
//!   observation stacks to `[n·K, F]` job rows, the shared-weight kernel
//!   scores each row, and the `[n·K, 1]` scores read back as `[n, K]`
//!   logits. (The reshapes are views; no data moves.)
//!
//! Anything else (the LeNet CNN baseline) keeps using the tape — the
//! dispatch lives in `rlsched-rl`'s `Ppo::update`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::graph::Act;
use crate::infer;
use crate::layers::Mlp;
use crate::simd;
use crate::tensor::Tensor;

/// How the policy turns MLP outputs into `[n, n_actions]` logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedHead {
    /// `logits = mlp(obs)`: one MLP row per transition; the MLP's output
    /// width is the action count.
    Flat,
    /// The paper's kernel network: the observation is `window` job rows
    /// of `mlp.in_dim()` features each, the scalar-head MLP scores every
    /// job with shared weights, and the scores are the logits.
    Kernel {
        /// Jobs per observation window (== action count).
        window: usize,
    },
}

/// A borrowed description of a policy the fused update supports: the
/// trainable MLP chain plus its logits head.
#[derive(Debug, Clone, Copy)]
pub struct FusedPolicy<'a> {
    /// The trainable layer chain.
    pub mlp: &'a Mlp,
    /// The logits head on top of it.
    pub head: FusedHead,
}

impl FusedPolicy<'_> {
    /// `(layer-stack rows, logits width)` for an `n`-transition batch.
    fn dims(&self, n: usize) -> (usize, usize) {
        match self.head {
            FusedHead::Flat => (n, self.mlp.out_dim()),
            FusedHead::Kernel { window } => {
                assert_eq!(
                    self.mlp.out_dim(),
                    1,
                    "kernel head needs a scalar-score MLP"
                );
                (n * window, window)
            }
        }
    }
}

/// Rows (transitions) per chunk. Chunk boundaries are a pure function of
/// the batch size and this constant — never of the machine or the worker
/// count — so the chunk-index-ordered gradient merge makes the pass
/// bit-identical at every thread count.
pub const SHARD_ROWS: usize = 64;

/// Empty `v` and give it room for `cap` elements (a no-op once the
/// high-water mark is reached).
fn fit(v: &mut Vec<f32>, cap: usize) {
    v.clear();
    v.reserve(cap);
}

/// The buffers one chunk needs *while it runs*: every layer's
/// activations and the backward's gradient ping/pong. A worker reuses
/// one set for every chunk of its run, so there are never more of these
/// than workers.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Post-activation output of every layer (`acts[i]` = layer `i`).
    acts: Vec<Vec<f32>>,
    /// Gradient ping buffer (holds `dY` of the layer being processed).
    dy: Vec<f32>,
    /// Gradient pong buffer (receives `dX`).
    dy2: Vec<f32>,
    /// Pre-activation gradient of the current layer.
    dpre: Vec<f32>,
    /// Transposed weights for the `dX` gemm (mirrors the tape's pooled
    /// transpose).
    wt: Vec<f32>,
}

impl WorkerScratch {
    /// Size every buffer for a chunk of `rows` layer rows. Runs on the
    /// calling thread before the fan-out, so workers only write into
    /// buffers that already have their final size instead of growing
    /// them step by step out of a short-lived thread's allocator arena,
    /// and a no-op once the high-water mark is reached. A set belongs to
    /// a worker, not to a chunk, so the resident footprint is
    /// `workers × one chunk` (~4.9 MB each for the 32/16/8 kernel net at
    /// 64 × 128 job rows) whatever the minibatch size — one per chunk
    /// would be 157 MB for a 2 048-row minibatch.
    fn presize(&mut self, mlp: &Mlp, rows: usize) {
        self.acts.resize_with(mlp.layers.len(), Vec::new);
        // Every gradient buffer holds `rows × some layer's output width`
        // (a dX is as wide as the previous layer's output).
        let mut widest = 0;
        let mut wt = 0;
        for (l, (layer, act)) in mlp.layers.iter().zip(&mut self.acts).enumerate() {
            fit(act, rows * layer.out_dim());
            widest = widest.max(layer.out_dim());
            if l > 0 {
                wt = wt.max(layer.in_dim() * layer.out_dim());
            }
        }
        fit(&mut self.dy, rows * widest);
        fit(&mut self.dy2, rows * widest);
        fit(&mut self.dpre, rows * widest);
        fit(&mut self.wt, wt);
    }

    fn bytes(&self) -> usize {
        let floats = self.acts.iter().map(Vec::capacity).sum::<usize>()
            + self.dy.capacity()
            + self.dy2.capacity()
            + self.dpre.capacity()
            + self.wt.capacity();
        floats * size_of::<f32>()
    }
}

/// What one chunk leaves behind for the merge and the diagnostics:
/// `O(params + SHARD_ROWS × width)`, one per chunk of the minibatch.
#[derive(Debug, Default)]
struct Partial {
    /// Masked log-probabilities of the chunk's rows, `[n, width]`
    /// (policy side).
    logp: Vec<f32>,
    /// Selected (per-action) log-probs, `[n]` (policy side).
    sel: Vec<f32>,
    /// Parameter-gradient partials in bind order (`w0, b0, w1, b1, …`).
    grads: Vec<Tensor>,
    /// `Σ min(s1,s2)` over the chunk's rows (policy side).
    obj: f32,
    /// `Σ p·logp` over the chunk's rows (policy side).
    ent: f32,
    /// `Σ (v−R)²` over the chunk's rows (value side).
    sq: f32,
    /// Time the chunk spent in its forward.
    forward: Duration,
    /// Time the chunk spent in its loss tail + backward.
    backward: Duration,
}

impl Partial {
    /// Size the buffers for `n` transitions of `width` logits each
    /// (`width` 0 on the value side), on the calling thread like
    /// [`WorkerScratch::presize`].
    fn presize(&mut self, mlp: &Mlp, n: usize, width: usize) {
        fit(&mut self.logp, n * width);
        fit(&mut self.sel, n);
        if self.grads.is_empty() {
            self.grads = mlp
                .layers
                .iter()
                .flat_map(|l| [Tensor::zeros(l.w.shape()), Tensor::zeros(l.b.shape())])
                .collect();
        }
        assert_eq!(
            self.grads.len(),
            mlp.layers.len() * 2,
            "scratch bound to a different architecture"
        );
    }

    fn bytes(&self) -> usize {
        let floats = self.logp.capacity()
            + self.sel.capacity()
            + self.grads.iter().map(Tensor::len).sum::<usize>();
        floats * size_of::<f32>()
    }
}

/// What one fused pass over a minibatch reports: the loss, and the
/// pass's wall time split into its forward and backward shares.
///
/// Forward and backward interleave chunk by chunk, so neither has a wall
/// time of its own: each chunk times its two halves, and the pass's wall
/// time (sizing and merge included) is apportioned in the ratio of the
/// summed halves — `forward + backward` is the wall time of the call at
/// any worker count.
#[derive(Debug, Clone, Copy)]
pub struct FusedPass {
    /// The loss value.
    pub loss: f32,
    /// The forward share of the pass's wall time.
    pub forward: Duration,
    /// The loss-tail + backward share of the pass's wall time.
    pub backward: Duration,
}

/// Reusable buffers for the fused pass: one activation-and-gradient
/// scratch per worker in flight and one partial (gradients, loss sums,
/// log-prob rows) per [`SHARD_ROWS`]-row slice of the minibatch. One per network (the PPO trainer holds one for the actor
/// and one for the critic); every buffer only grows to its high-water
/// mark, so steady-state updates allocate nothing on the inline
/// (one-worker) path.
#[derive(Debug, Default)]
pub struct FusedScratch {
    /// One scratch set per worker of the widest pass so far; a worker
    /// holds its lock for the length of its run of chunks.
    workers: Vec<Mutex<WorkerScratch>>,
    partials: Vec<Partial>,
    /// Chunks of the last pass (`partials[..live]`).
    live: usize,
}

impl FusedScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full masked log-prob matrix of the last [`policy_pass`]
    /// (`[n, width]` row-major) as one block of whole rows per chunk, in
    /// transition order.
    pub fn logp_all(&self) -> impl Iterator<Item = &[f32]> {
        self.partials[..self.live].iter().map(|p| &p.logp[..])
    }

    /// The selected per-transition log-probs of the last [`policy_pass`],
    /// in transition order.
    pub fn selected_logp(&self) -> impl Iterator<Item = f32> + '_ {
        self.partials[..self.live]
            .iter()
            .flat_map(|p| p.sel.iter().copied())
    }

    /// Merged parameter gradients of the last pass, in the network's
    /// bind order (`w0, b0, w1, b1, …`) — index-aligned with
    /// `Mlp::params()`.
    pub fn grads(&self) -> &[Tensor] {
        &self.partials.first().expect("run a pass first").grads
    }

    /// Mutable gradient access (for global-norm clipping).
    pub fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.partials.first_mut().expect("run a pass first").grads
    }

    /// Bytes of per-worker scratch held (buffer capacities): at most
    /// `workers × one chunk's need`, whatever the minibatch size.
    pub fn worker_bytes(&self) -> usize {
        let bytes = |w: &Mutex<WorkerScratch>| unpoisoned(w.lock()).bytes();
        self.workers.iter().map(bytes).sum()
    }

    /// Bytes of per-chunk state held (buffer capacities): grows with the
    /// minibatch, `O(params + SHARD_ROWS × width)` per chunk.
    pub fn partial_bytes(&self) -> usize {
        self.partials.iter().map(Partial::bytes).sum()
    }

    /// Run every chunk of an `n`-transition minibatch (`rows_per` layer
    /// rows and `width` logits per transition) on the rayon shim's
    /// workers: `forward(scratch, partial, lo, hi)` then
    /// `backward(scratch, partial, lo, hi)` back to back in the worker's
    /// scratch, `[lo, hi)` being the chunk's transition bounds. Then
    /// tree-merge the gradient partials into chunk 0. Returns the live
    /// partials and the call's wall time apportioned to
    /// (forward, backward).
    fn sweep(
        &mut self,
        mlp: &Mlp,
        n: usize,
        rows_per: usize,
        width: usize,
        forward: impl Fn(&mut WorkerScratch, &mut Partial, usize, usize) + Sync,
        backward: impl Fn(&mut WorkerScratch, &mut Partial, usize, usize) + Sync,
    ) -> (&[Partial], Duration, Duration) {
        let start = Instant::now();
        let n_chunks = n.div_ceil(SHARD_ROWS);
        self.live = n_chunks;
        if self.partials.len() < n_chunks {
            self.partials.resize_with(n_chunks, Partial::default);
        }
        let partials = &mut self.partials[..n_chunks];
        for (c, part) in partials.iter_mut().enumerate() {
            part.presize(mlp, SHARD_ROWS.min(n - c * SHARD_ROWS), width);
        }
        // One scratch per worker, each big enough for a full chunk of
        // this batch. A worker takes a contiguous run of chunks and keeps
        // its scratch for all of them, so the buffers stay in that core's
        // cache from one chunk to the next. (How chunks group onto workers
        // depends on the budget; nothing a chunk computes does.)
        let in_flight = rayon::current_num_threads().min(n_chunks);
        if self.workers.len() < in_flight {
            self.workers.resize_with(in_flight, Mutex::default);
        }
        for w in &mut self.workers {
            unpoisoned(w.get_mut()).presize(mlp, SHARD_ROWS.min(n) * rows_per);
        }

        let run = n_chunks.div_ceil(in_flight);
        let workers = &self.workers;
        partials
            .par_chunks_mut(run)
            .enumerate()
            .for_each(|(g, parts)| {
                let w = &mut *unpoisoned(workers[g].lock());
                for (c, part) in (g * run..).zip(parts) {
                    let lo = c * SHARD_ROWS;
                    let hi = (lo + SHARD_ROWS).min(n);
                    let t0 = Instant::now();
                    forward(w, part, lo, hi);
                    let t1 = Instant::now();
                    backward(w, part, lo, hi);
                    part.forward = t1 - t0;
                    part.backward = t1.elapsed();
                }
            });
        merge_grads(partials);

        let fwd: Duration = partials.iter().map(|p| p.forward).sum();
        let bwd: Duration = partials.iter().map(|p| p.backward).sum();
        let wall = start.elapsed();
        let share = fwd.as_secs_f64() / (fwd + bwd).as_secs_f64().max(f64::MIN_POSITIVE);
        let forward = wall.mul_f64(share);
        (partials, forward, wall.saturating_sub(forward))
    }
}

/// A scratch whose last chunk panicked is as good as any other: every
/// buffer is overwritten before it is read.
fn unpoisoned<G>(lock: std::sync::LockResult<G>) -> G {
    lock.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Reduce the chunks' gradient partials into chunk 0 with a
/// chunk-index-ordered binary tree (level 0 merges (0,1),(2,3),…; level
/// 1 merges (0,2),(4,6),…). The association is fixed by chunk index
/// alone, so the merged bits are independent of how many workers ran the
/// chunks.
fn merge_grads(chunks: &mut [Partial]) {
    let n = chunks.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (head, tail) = chunks.split_at_mut(i + stride);
            for (d, src) in head[i].grads.iter_mut().zip(&tail[0].grads) {
                for (dv, &sv) in d.data_mut().iter_mut().zip(src.data()) {
                    *dv += sv;
                }
            }
            i += stride * 2;
        }
        stride *= 2;
    }
}

/// Forward the layer chain over `rows` stacked inputs, stashing every
/// layer's post-activation output in `acts` (the analytic backward needs
/// them all — this is the only state the fused pass keeps, where the tape
/// keeps a node per op). Uses the same [`simd::dense_any`] dispatch as
/// the tape's `Graph::linear`, so the values are bit-identical to it.
fn forward_layers(mlp: &Mlp, x0: &[f32], rows: usize, acts: &mut [Vec<f32>]) {
    debug_assert_eq!(x0.len(), rows * mlp.in_dim(), "input volume");
    let last = mlp.layers.len() - 1;
    for i in 0..mlp.layers.len() {
        let layer = &mlp.layers[i];
        let act = if i == last { mlp.output } else { mlp.hidden };
        let (prev, rest) = acts.split_at_mut(i);
        let x = if i == 0 { x0 } else { &prev[i - 1] };
        infer::dense_forward(
            x,
            rows,
            layer.w.data(),
            layer.b.data(),
            layer.in_dim(),
            layer.out_dim(),
            act,
            &mut rest[0],
        );
    }
}

/// Walk the layers last-to-first given `dY` of the final layer in
/// `s.dy`, writing parameter gradients into `grads`.
///
/// Replicates the tape's `Linear` backward exactly: the per-activation
/// `dpre` loops, `dW` through the TN kernel dispatch
/// (`Tensor::matmul_tn_into`'s exact calls), `db` as ascending-row
/// column sums, and `dX` through the transpose-W + broadcast-gemm path
/// (scalar NT fallback) — including the needs-grad pruning that never
/// computes `dX` of the first layer (its input is the constant
/// observation matrix).
fn backward_layers(
    mlp: &Mlp,
    x0: &[f32],
    rows: usize,
    s: &mut WorkerScratch,
    grads: &mut [Tensor],
) {
    let last = mlp.layers.len() - 1;
    for l in (0..=last).rev() {
        let layer = &mlp.layers[l];
        let act = if l == last { mlp.output } else { mlp.hidden };
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        debug_assert_eq!(s.dy.len(), rows * dout, "dY volume at layer {l}");

        // dpre = dY ∘ act'(Y): one loop per activation, expressed through
        // the stashed output — the same derivative-from-output forms the
        // tape uses.
        let y = &s.acts[l];
        s.dpre.clear();
        let pairs = s.dy.iter().zip(y.iter());
        match act.to_act() {
            Act::Identity => s.dpre.extend_from_slice(&s.dy),
            Act::Relu => s
                .dpre
                .extend(pairs.map(|(&g, &yv)| if yv > 0.0 { g } else { 0.0 })),
            Act::Tanh => s.dpre.extend(pairs.map(|(&g, &yv)| g * (1.0 - yv * yv))),
            Act::Sigmoid => s.dpre.extend(pairs.map(|(&g, &yv)| g * yv * (1.0 - yv))),
        }

        // dX = dpre · Wᵀ — skipped for layer 0 (the observation input
        // needs no gradient: the tape's needs-grad pruning). The NT dot
        // kernel is hsum-bound at these widths, so transpose W (tiny)
        // and run the broadcast gemm, exactly like the tape.
        if l > 0 {
            let dx = &mut s.dy2;
            dx.clear();
            dx.resize(rows * din, 0.0);
            let mut dispatched = false;
            if simd::simd_enabled() && din >= 8 {
                s.wt.clear();
                s.wt.resize(din * dout, 0.0);
                simd::transpose(layer.w.data(), din, dout, &mut s.wt);
                dispatched = simd::gemm(&s.dpre, rows, dout, &s.wt, din, None, dx);
            }
            if !dispatched {
                simd::gemm_nt_scalar(&s.dpre, rows, dout, layer.w.data(), din, dx);
            }
        }

        // dW = Xᵀ · dpre (the TN kernel fills its output, no pre-zero
        // needed — same call chain as `Tensor::matmul_tn_into`).
        let x = if l == 0 { x0 } else { &s.acts[l - 1] };
        let dw = grads[2 * l].data_mut();
        if !simd::gemm_tn(x, rows, din, &s.dpre, dout, dw) {
            simd::gemm_tn_scalar(x, rows, din, &s.dpre, dout, dw);
        }

        // db = column sums of dpre, rows ascending (the tape's order).
        let db = grads[2 * l + 1].data_mut();
        db.fill(0.0);
        for row in s.dpre.chunks_exact(dout) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }

        if l > 0 {
            std::mem::swap(&mut s.dy, &mut s.dy2);
        }
    }
}

/// One PPO policy pass over a minibatch: per chunk, the layer chain +
/// masked log-softmax + per-action gather, then the clipped-surrogate
/// loss tail and its analytic backward while the chunk's activations are
/// hot.
///
/// `obs` is the stacked `[n, obs_dim]` minibatch, `masks` the additive
/// `[n, n_actions]` masks, `actions` the chosen action per transition.
/// Returns the loss
/// (`-mean(min(ratio·A, clip(ratio)·A)) + ent_coef·mean(Σ p·logp)`);
/// parameter gradients land in [`FusedScratch::grads`],
/// [`FusedScratch::logp_all`] holds the `[n, n_actions]` masked
/// log-probabilities (bit-identical to the tape's `add` + `log_softmax`)
/// and [`FusedScratch::selected_logp`] the gathered per-action row — the
/// approximate-KL input.
///
/// Each chunk's gradient partial is seeded by the *batch* mean, so
/// partials sum to the batch gradient; they reduce through the
/// chunk-index-ordered tree merge and loss partials fold in chunk order.
#[allow(clippy::too_many_arguments)] // mirrors the PPO objective's term list
pub fn policy_pass(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    n: usize,
    s: &mut FusedScratch,
) -> FusedPass {
    assert!(n > 0, "fused pass needs at least one transition");
    let (rows, width) = p.dims(n);
    assert_eq!(obs.len(), rows * p.mlp.in_dim(), "observation volume");
    assert_eq!(masks.len(), n * width, "mask volume");
    assert_eq!(actions.len(), n, "one action per transition");
    assert_eq!(advantages.len(), n, "one advantage per transition");
    assert_eq!(logp_old.len(), n, "one old log-prob per transition");
    let rpt = rows / n; // layer-stack rows per transition (1 or window)
    let od = rpt * p.mlp.in_dim();
    let (partials, forward, backward) = s.sweep(
        p.mlp,
        n,
        rpt,
        width,
        |w, part, lo, hi| {
            forward_layers(p.mlp, &obs[lo * od..hi * od], (hi - lo) * rpt, &mut w.acts);
            let Partial { logp, sel, .. } = part;
            logp.clear();
            logp.extend_from_slice(w.acts.last().expect("non-empty MLP"));
            let mrows = masks[lo * width..hi * width].chunks(width);
            for (row, mrow) in logp.chunks_mut(width).zip(mrows) {
                for (o, &m) in row.iter_mut().zip(mrow) {
                    *o += m;
                }
                infer::log_softmax_inplace(row);
            }
            sel.clear();
            sel.extend(actions[lo..hi].iter().enumerate().map(|(i, &a)| {
                assert!(a < width, "action {a} out of range");
                logp[i * width + a]
            }));
        },
        |w, part, lo, hi| {
            policy_backward_chunk(
                p,
                &obs[lo * od..hi * od],
                &actions[lo..hi],
                &advantages[lo..hi],
                &logp_old[lo..hi],
                clip_ratio,
                ent_coef,
                n,
                w,
                part,
            );
        },
    );
    let (mut obj_sum, mut ent_sum) = (0.0f32, 0.0f32);
    for c in partials {
        obj_sum += c.obj;
        ent_sum += c.ent;
    }
    let mean_obj = obj_sum / n as f32;
    let mut loss = -mean_obj; // == the tape's scale(mean_obj, −1) bit for bit
    if ent_coef != 0.0 {
        let ent_mean = ent_sum / n as f32;
        loss += ent_mean * ent_coef;
    }
    FusedPass {
        loss,
        forward,
        backward,
    }
}

/// The backward half of one [`policy_pass`] chunk: the dlogits fuse +
/// layer backward over the chunk's rows, with the mean-gradient seeds
/// scaled by the *batch* size `total_n` so the chunk's gradients are
/// exact partials of the whole batch's. Leaves the raw
/// `(Σ min(s1,s2), Σ p·logp)` partial sums (row-ascending f32 folds) in
/// `part.obj` / `part.ent`.
///
/// The dlogits kernel fuses, per transition row: ratio / clip / min
/// gradient routing (ties to the unclipped side, exactly like the tape's
/// `min_elem`), the optional entropy-bonus term (in the tape's
/// accumulation order), the gather scatter, and the log-softmax backward
/// `dx = dy − softmax(x)·rowsum(dy)` with the exp-underflow
/// short-circuit. One pass over `[n, n_actions]` replaces the tape's
/// five separate gradient buffers.
#[allow(clippy::too_many_arguments)] // the PPO term list + the batch size
fn policy_backward_chunk(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    total_n: usize,
    s: &mut WorkerScratch,
    part: &mut Partial,
) {
    let n = actions.len();
    let (rows, width) = p.dims(n);

    // Loss-tail gradient seeds, exactly as the tape's backward computes
    // them: d(mean surrogate) = −1/n per element, d(plogp) = ent_coef/n.
    let gm = -1.0f32 / total_n as f32;
    let dplogp = ent_coef / total_n as f32;
    let (lo, hi) = (1.0 - clip_ratio, 1.0 + clip_ratio);

    let logp = &part.logp;
    let dy = &mut s.dy;
    dy.clear();
    dy.resize(n * width, 0.0);
    let mut obj_sum = 0.0f32;
    let mut ent_sum = 0.0f32;
    for i in 0..n {
        let row = &logp[i * width..(i + 1) * width];
        let out = &mut dy[i * width..(i + 1) * width];
        let a = actions[i];
        let adv = advantages[i];
        let ratio = (row[a] - logp_old[i]).exp();
        let s1 = ratio * adv;
        let clipped = ratio.clamp(lo, hi);
        let s2 = clipped * adv;
        obj_sum += s1.min(s2);
        // min routes to whichever side won, ties to the unclipped side
        // (f32::min's forward semantics); clamp passes gradient only
        // strictly inside the clip range.
        let d_s1 = if s1 <= s2 { gm } else { 0.0 };
        let d_s2 = if s1 <= s2 { 0.0 } else { gm };
        let d_clipped = d_s2 * adv;
        let mut d_ratio = if ratio > lo && ratio < hi {
            d_clipped
        } else {
            0.0
        };
        d_ratio += d_s1 * adv;
        let d_sel = d_ratio * ratio;
        if ent_coef != 0.0 {
            // Entropy bonus: dlogp gets dplogp·p (from p·logp's logp
            // side) then (dplogp·logp)·p (through exp's backward), in
            // the tape's accumulation order, before the gather scatter.
            let mut row_plogp = 0.0f32;
            for (o, &lpj) in out.iter_mut().zip(row) {
                let pj = infer::exp_or_zero(lpj);
                row_plogp += pj * lpj;
                *o = dplogp * pj + (dplogp * lpj) * pj;
            }
            ent_sum += row_plogp;
            out[a] += d_sel;
            let rowsum: f32 = out.iter().sum();
            for (o, &lpj) in out.iter_mut().zip(row) {
                *o -= infer::exp_or_zero(lpj) * rowsum;
            }
        } else {
            // Without entropy the incoming gradient row is the gather
            // scatter alone; the ascending rowsum fold over it matches
            // the tape bit for bit.
            let rowsum = 0.0f32 + d_sel;
            for (j, (o, &lpj)) in out.iter_mut().zip(row).enumerate() {
                let rj = if j == a { d_sel } else { 0.0 };
                *o = rj - infer::exp_or_zero(lpj) * rowsum;
            }
        }
    }

    // `dy` now holds dlogits: `[n, width]` for the flat head, which the
    // kernel head reads as `[n·window, 1]` — the reshape is a view.
    backward_layers(p.mlp, obs, rows, s, &mut part.grads);
    (part.obj, part.ent) = (obj_sum, ent_sum);
}

/// One critic pass over `[rows, obs_dim]` stacked observations: per
/// chunk, the layer chain, then the squared-error loss
/// `mean((v − R)²)` and its analytic backward. Returns the loss;
/// gradients land in [`FusedScratch::grads`]. Chunked and merged exactly
/// like [`policy_pass`].
pub fn value_pass(
    mlp: &Mlp,
    obs: &[f32],
    returns: &[f32],
    rows: usize,
    s: &mut FusedScratch,
) -> FusedPass {
    assert!(rows > 0, "fused value pass needs at least one row");
    assert_eq!(mlp.out_dim(), 1, "critic must emit one value per row");
    assert_eq!(obs.len(), rows * mlp.in_dim(), "observation volume");
    assert_eq!(returns.len(), rows, "one return target per row");
    let od = mlp.in_dim();
    // d(mean) = 1/n over the *batch*; the squared term contributes g·d
    // twice (the tape's `mul(d, d)` accumulates both factor sides).
    let g = 1.0f32 / rows as f32;
    let (partials, forward, backward) = s.sweep(
        mlp,
        rows,
        1,
        0,
        |w, _, lo, hi| forward_layers(mlp, &obs[lo * od..hi * od], hi - lo, &mut w.acts),
        |w, part, lo, hi| {
            let WorkerScratch { acts, dy, .. } = w;
            part.sq = 0.0;
            dy.clear();
            for (&vi, &ri) in acts
                .last()
                .expect("non-empty MLP")
                .iter()
                .zip(&returns[lo..hi])
            {
                let d = vi - ri;
                part.sq += d * d;
                let t = g * d;
                dy.push(t + t);
            }
            backward_layers(mlp, &obs[lo * od..hi * od], hi - lo, w, &mut part.grads);
        },
    );
    let mut sq_sum = 0.0f32;
    for c in partials {
        sq_sum += c.sq;
    }
    FusedPass {
        loss: sq_sum / rows as f32,
        forward,
        backward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::layers::{Activation, Network, ParamBinds};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(dims: &[usize], seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(dims, Activation::Relu, Activation::Identity, &mut rng)
    }

    /// Deterministic pseudo-random inputs (no RNG dependency in shapes).
    fn filled(n: usize, scale: f32, phase: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.7 + phase).sin()) * scale)
            .collect()
    }

    #[test]
    fn value_grads_match_tape_bitwise() {
        let net = mlp(&[6, 16, 8, 1], 3);
        let n = 12;
        let obs = filled(n * 6, 0.8, 0.3);
        let returns = filled(n, 2.0, 1.1);

        // Tape arm: exactly the value-loss graph `Ppo::update` builds.
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(&obs, &[n, 6]);
        let v = net.forward(&mut g, o, &mut binds);
        let r = g.input_from(&returns, &[n, 1]);
        let d = g.sub(v, r);
        let sq = g.mul(d, d);
        let loss = g.mean(sq);
        g.backward(loss);
        let tape_loss = g.value(loss).item();
        let tape_grads = binds.take_grads(&mut g);

        let mut s = FusedScratch::new();
        let fused_loss = value_pass(&net, &obs, &returns, n, &mut s).loss;

        assert_eq!(fused_loss, tape_loss, "loss value");
        assert_eq!(tape_grads.len(), s.grads().len());
        for (i, (t, f)) in tape_grads.iter().zip(s.grads()).enumerate() {
            assert_eq!(t.data(), f.data(), "grad {i} diverged from the tape");
        }
    }

    #[test]
    fn fused_scratch_reuse_is_bit_identical() {
        let net = mlp(&[5, 16, 3], 7);
        let n = 9;
        let obs = filled(n * 5, 0.6, 0.2);
        let masks = vec![0.0f32; n * 3];
        let actions: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let adv = filled(n, 1.5, 0.9);
        let old = filled(n, 0.5, 2.2)
            .iter()
            .map(|x| x - 1.5)
            .collect::<Vec<_>>();
        let p = FusedPolicy {
            mlp: &net,
            head: FusedHead::Flat,
        };
        let mut s = FusedScratch::new();
        let l0 = policy_pass(&p, &obs, &masks, &actions, &adv, &old, 0.2, 0.0, n, &mut s).loss;
        let g0: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
        for _ in 0..3 {
            let l = policy_pass(&p, &obs, &masks, &actions, &adv, &old, 0.2, 0.0, n, &mut s).loss;
            assert_eq!(l, l0, "loss must not drift across scratch reuse");
            for (a, b) in s.grads().iter().zip(&g0) {
                assert_eq!(a.data(), b.as_slice(), "grads must not drift");
            }
        }
    }

    /// Inputs for an `n`-transition kernel-head policy problem.
    struct PolicyCase {
        obs: Vec<f32>,
        masks: Vec<f32>,
        actions: Vec<usize>,
        adv: Vec<f32>,
        old: Vec<f32>,
    }

    /// `rpt` = layer-stack rows per transition: 1 for [`FusedHead::Flat`],
    /// the window for [`FusedHead::Kernel`].
    fn policy_case(n: usize, in_dim: usize, width: usize, rpt: usize) -> PolicyCase {
        let actions: Vec<usize> = (0..n).map(|i| (i * 5 + 1) % width).collect();
        // Mask one non-selected slot per row so masking is exercised
        // without ever zeroing out the chosen action.
        let masks = (0..n * width)
            .map(|i| {
                let (r, j) = (i / width, i % width);
                let dead = (r + 2) % width;
                if j == dead && dead != actions[r] {
                    -1.0e9 // rl's MASK_OFF convention: finite, exp → 0
                } else {
                    0.0
                }
            })
            .collect();
        PolicyCase {
            obs: filled(n * rpt * in_dim, 0.8, 0.4),
            masks,
            actions,
            adv: filled(n, 1.5, 0.9),
            old: filled(n, 0.5, 2.2).iter().map(|x| x - 1.5).collect(),
        }
    }

    #[test]
    fn chunked_pass_is_thread_count_invariant() {
        // The determinism contract: identical bits (loss, every gradient,
        // diagnostics) at every worker count, pinned against 1 worker.
        let pnet = mlp(&[4, 16, 8, 1], 23);
        let vnet = mlp(&[7, 16, 1], 29);
        let n = 3 * SHARD_ROWS + 7; // four chunks, last ragged
        let window = 5;
        let c = policy_case(n, 4, window, window);
        let p = FusedPolicy {
            mlp: &pnet,
            head: FusedHead::Kernel { window },
        };
        let vobs = filled(n * 7, 0.6, 0.8);
        let rets = filled(n, 1.8, 0.5);

        let run = |threads: usize| {
            rayon::with_threads(threads, || {
                let mut s = FusedScratch::new();
                let pl = policy_pass(
                    &p, &c.obs, &c.masks, &c.actions, &c.adv, &c.old, 0.2, 0.01, n, &mut s,
                )
                .loss;
                let pg: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
                let diag: (Vec<f32>, Vec<f32>) = (
                    s.logp_all().flatten().copied().collect(),
                    s.selected_logp().collect(),
                );
                let mut vs = FusedScratch::new();
                let vl = value_pass(&vnet, &vobs, &rets, n, &mut vs).loss;
                let vg: Vec<Vec<f32>> = vs.grads().iter().map(|t| t.data().to_vec()).collect();
                (pl, pg, diag, vl, vg)
            })
        };

        let base = run(1);
        for k in [2usize, 3, 7] {
            let got = run(k);
            assert_eq!(
                got.0.to_bits(),
                base.0.to_bits(),
                "policy loss at {k} workers"
            );
            assert_eq!(got.1, base.1, "policy grads at {k} workers");
            assert_eq!(got.2, base.2, "forward diagnostics at {k} workers");
            assert_eq!(
                got.3.to_bits(),
                base.3.to_bits(),
                "value loss at {k} workers"
            );
            assert_eq!(got.4, base.4, "value grads at {k} workers");
        }
    }
}
