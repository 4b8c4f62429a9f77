//! The PPO update's forward and analytic backward, fused into one pass.
//!
//! The PPO update differentiates the **same** pipeline thousands of times
//! per epoch: a policy network, a masked log-softmax, a categorical
//! gather, and the clipped-surrogate / entropy / value-loss scalar tail.
//! This module hand-writes that forward+backward once, and it is the only
//! gradient code the system runs. A policy network is one owned value, a
//! [`FusedPolicy`]: this pass trains it, the optimizer steps its
//! [`FusedPolicy::params_mut`] in place, and [`infer::log_probs`] runs it
//! forward-only for every decision, on the same layer kernels. A critic is
//! a plain [`Mlp`], which [`value_pass`] trains under the flat head.
//!
//! The forward runs the layer stack on the shared [`crate::simd`] kernels
//! and `infer`'s conv/pool loops while stashing only the activations the
//! analytic backward needs (in a caller-owned [`FusedScratch`]); the
//! backward fuses masked-log-softmax + gather + PPO clip/entropy (or the
//! value squared-error) gradients into a single dlogits pass, then walks
//! the stack back: per dense layer the TN (`dW = Xᵀ·dpre`) and
//! transposed-W (`dX = dpre·Wᵀ`) kernel dispatches, per conv stage the
//! pool scatter, the ReLU mask and the convolution's own loops — no graph
//! nodes, no per-op dispatch, and no heap allocation at steady state.
//!
//! # Chunking and the bit-identity contract
//!
//! A pass reads its minibatch through a row source — a function from a
//! row number to that transition's live job rows (next section) — and an
//! index of the row numbers to train on, so the rows stay wherever the
//! rollout stored them. It splits the index into fixed
//! [`SHARD_ROWS`]-row chunks (a function of the minibatch size alone)
//! and runs each chunk **back to back** on one of the [`crate::pool`]
//! workers: copy the chunk's rows, in index order, into the worker's
//! scratch, then forward, loss tail and backward while those rows are
//! still in cache. The copy is timed as part of the forward. State is
//! split by who needs it:
//!
//! * a per-**worker** scratch (the chunk's rows, every layer's
//!   activations plus the gradient ping/pong buffers — megabytes for the
//!   kernel network) serves a worker's whole contiguous run of chunks,
//!   one after the other, so at most [`pool::current_num_threads`] of
//!   them exist however large the minibatch is;
//! * a per-**chunk** partial (parameter gradients, loss partial sums
//!   and the chunk's log-prob rows — kilobytes) is all that outlives the
//!   chunk.
//!
//! The gradient partials then reduce through a chunk-index-ordered tree
//! merge and the loss partials fold in chunk order — so every output is
//! a pure function of the *minibatch*, **bit-identical at any worker
//! count** (which worker's scratch a chunk ran in never shows: every
//! buffer is overwritten before it is read), and on every CPU (the
//! kernels' chains are fixed, [`crate::simd`]).
//!
//! Within a chunk the pass is **bit-identical to the reference tape** (the
//! test-only `rlsched-nn-ref` crate): every matmul goes through the same
//! [`crate::simd`] entry points with the same shapes, and every
//! elementwise pass replicates the reference's accumulation order
//! (including the `dX` it never needs into the observation matrix, the
//! bias row-accumulation order, the conv loop nest with its skip of zero
//! gradients, the pool's first-maximum argmax, and the `exp`-underflow
//! short-circuit of the log-softmax backward). So on batches of at most
//! [`SHARD_ROWS`] rows (one chunk) loss, selected log-probs and every
//! gradient equal the reference's with exact `==`, and N such updates
//! reproduce its training trajectory bit for bit
//! (`tests/fused_parity_prop.rs` and `rlscheduler`'s update-level suite).
//! Forward outputs are row-local and the kernels row-count invariant, so
//! the per-row diagnostics ([`FusedScratch::logp_all`] /
//! [`FusedScratch::selected_logp`]) match the reference at *every* batch
//! size; across chunk boundaries only the f32 association of the
//! parameter-gradient reductions and the loss fold changes, which stays
//! within f32 tolerance of it.
//!
//! # Supported architectures
//!
//! Every policy of the paper's Table IV, as a dense [`Mlp`] chain (after
//! a LeNet's conv stages) under one of three logits heads
//! ([`FusedPolicy`]):
//!
//! * [`FusedHead::Flat`]: `logits = mlp(obs)`, one row per transition
//!   (the MLP v1–v3 baselines, and every critic).
//! * [`FusedHead::Kernel`]: the kernel network of Fig 5 — the `[n, K·F]`
//!   observation is `n` windows of `K` job rows, the shared-weight kernel
//!   scores each job row, and the scores are the `[n, K]` logits. Only
//!   the job rows run through the kernel (next section).
//! * [`FusedHead::Conv`]: the LeNet baseline — each observation is a
//!   one-channel image, every conv stage runs conv → ReLU → 2 × 2
//!   max-pool, and the flattened maps of the last stage feed the MLP.
//!
//! Each pass first holds its network to the observation and action widths
//! it will be fed (every weight rank, bias length, conv fit and layer
//! input), so a network that does not fit panics before any forward
//! trusts its shapes.
//!
//! # Ragged rows and the kernel head
//!
//! A row source yields a transition as its window's `n` valid job rows,
//! `n × F` values (`F = obs_dim / K` for a `K`-slot window), and nothing
//! else. The window contract of `rlsched_rl::Env` implies the rest: the
//! valid slots are the first `n`, and the other `K − n` are all-zero rows
//! masked at [`MASK_OFF`]. So `n` is the row's length over `F`, and each
//! chunk rebuilds what its head needs in the worker's scratch. The conv
//! gather zero-fills every image to the whole window, so its inputs have
//! the bits a stored window would have; the flat head (the MLP policies
//! and every critic) reads each row only up to its length (next
//! section but one). The mask is `n` zeros then `MASK_OFF`, added to the
//! logits as a stored mask row would be.
//!
//! The kernel head keeps the rows ragged. One weight set scores every
//! job row, so every padding row gets one score, `c0`. The
//! gather copies each window's `n` rows and appends one all-zero row
//! after the chunk's windows; the forward runs on those rows, and `c0`
//! (the zero row's score) fills every padding slot of the `[n, K]`
//! logits. The dense kernels are row-count invariant, so every logit, and
//! so the masked log-softmax and the loss tail that run on the whole
//! `[n, K]` matrix, has the bits a forward of every row would give it.
//!
//! The backward walks the job rows only, and gives the same bits as a
//! walk over every row because
//!
//! * *a padding slot's dlogit is exactly zero* — while its logit
//!   `c0 + MASK_OFF` leaves it no probability. Its log-prob is then
//!   ≈ −1e9, so `exp_or_zero` gives it probability 0, and the dlogit —
//!   with or without the entropy term — is ±0. A ±0 `dY` row gives a ±0
//!   `dpre` and `dX` row at every layer, and adding ±0 into a `dW`, `db`
//!   or `dX` sum that started at +0 never changes a bit. The chunk checks
//!   this after its loss tail. One case fails it: a network whose
//!   zero-row score exceeds every live score by about 1e9 leaves a masked
//!   slot real probability. That window is widened to all `K` slots — the
//!   gather appends its implied zero rows — and the chunk gathers and
//!   forwards again before its backward. Skipping the re-run would
//!   silently drop those slots' gradients.
//! * *the `dW` sums keep their row blocks.* The TN kernels sum rows in
//!   blocks of [`simd::TN_BLOCK_ROWS`] before adding each block into
//!   `dW`, so dropping rows would move the block boundaries and
//!   re-associate the sums. The gather maps every boundary of the whole
//!   windows' rows to the compact row that holds it, and
//!   [`simd::gemm_tn_blocks`] closes its blocks there.
//!
//! Like the kernels' own contract, this holds for finite values.
//!
//! # Ragged rows and the flat head
//!
//! A flat chain's first layer — the critic's is 896 × 32, about 98 % of
//! its multiply-adds — reads a row only up to its extent (the row
//! source's length; every input past it is +0). The gather sorts the
//! chunk's rows by extent (a permutation in the worker's scratch) and
//! writes each row's values and zeros up to the reach of its block of
//! four, nothing more. The forward ([`simd::dense_ragged`]) runs each
//! block to its widest extent and writes every output back to its own
//! row; the `dW` ([`simd::gemm_tn_ragged`]) sums each group of four
//! inputs over only the rows that reach it, keeping a row-ascending
//! active list that it compacts as the group index rises. Every value is
//! the one the zero-filled rows give, by one lemma:
//!
//! *Leaving a `+0` input out of a chain changes no bit unless the chain's
//! accumulator is −0.* The term left out is `+0 · w`, which is ±0 for a
//! finite `w`. Adding ±0 to a nonzero value changes nothing, `+0 + ±0`
//! is +0, and only `−0 + (+0) = +0` moves a bit.
//!
//! * A TN (`dW`) sum starts at +0, and round-to-nearest addition gives −0
//!   only when both operands are −0 (an exact cancellation gives +0), so
//!   its accumulator is never −0 and leaving rows out is exact.
//! * A forward chain starts at its bias, and by the same rule it is −0
//!   only while its bias is −0 and every term so far was −0. Biases are
//!   initialised to +0, and an Adam step `b − Δ` is −0 only when `b` is
//!   −0 — so in training only a checkpoint can bring a −0 bias. ReLU
//!   does not reliably erase the sign (`max(−0, 0)` may return either
//!   zero, and a tanh hidden layer keeps it), so the kernel keeps it
//!   explicitly: when a bias is −0, every output that ended −0 replays
//!   the terms it left out.
//!
//! This holds for finite weights. A non-finite weight that only padding
//! would multiply no longer turns the output into NaN.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::infer::{self, idx4};
use crate::layers::{Activation, Conv2dLayer, Mlp};
use crate::tensor::Tensor;
use crate::{pool, simd, MASK_OFF};

/// Window and stride of every conv stage's max-pool.
pub const POOL: usize = 2;

/// How a policy turns its layer stack's outputs into `[n, n_actions]`
/// logits.
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
    /// The LeNet baseline: the observation is a one-channel `h × w`
    /// image, each conv stage runs conv → ReLU → [`POOL`] × [`POOL`]
    /// max-pool, and the last stage's flattened maps are the MLP's input;
    /// its output width is the action count.
    Conv {
        /// Image height.
        h: usize,
        /// Image width.
        w: usize,
    },
}

/// A policy network of any Table IV architecture: conv stages, a dense
/// chain and the logits head around them. It is the one value that
/// trains and decides: [`policy_pass`] differentiates it, the optimizer
/// steps [`FusedPolicy::params_mut`] in place, and [`infer::log_probs`]
/// runs it forward for every decision.
#[derive(Debug, Clone)]
pub struct FusedPolicy {
    /// The conv stages of a [`FusedHead::Conv`] policy, first to last;
    /// empty under the other heads.
    pub convs: Vec<Conv2dLayer>,
    /// The dense chain (the whole network, or what follows the conv
    /// stages).
    pub mlp: Mlp,
    /// The logits head.
    pub head: FusedHead,
}

impl FusedPolicy {
    /// Every parameter in bind order — each conv stage's weight and bias,
    /// then each dense layer's — which is the order of
    /// [`FusedScratch::grads`].
    pub fn params(&self) -> impl Iterator<Item = &Tensor> {
        self.net().params()
    }

    /// [`FusedPolicy::params`], mutably: what the optimizer steps.
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        let convs = self.convs.iter_mut().flat_map(|c| [&mut c.w, &mut c.b]);
        let dense = self.mlp.layers.iter_mut();
        convs.chain(dense.flat_map(|l| [&mut l.w, &mut l.b]))
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().map(Tensor::len).sum()
    }

    /// The `(obs_dim, n_actions)` the network reads and emits: the
    /// widths a pass holds it to.
    pub fn widths(&self) -> (usize, usize) {
        self.net().widths()
    }

    pub(crate) fn net(&self) -> Net<'_> {
        Net {
            convs: &self.convs,
            mlp: &self.mlp,
            head: self.head,
        }
    }
}

/// A borrowed network, what the passes and the decision forward walk: a
/// [`FusedPolicy`]'s layers, or a critic's chain under the flat head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Net<'a> {
    pub(crate) convs: &'a [Conv2dLayer],
    pub(crate) mlp: &'a Mlp,
    pub(crate) head: FusedHead,
}

/// The shapes of one conv → ReLU → max-pool stage, per observation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stage<'a> {
    pub(crate) conv: &'a Conv2dLayer,
    /// Input maps: channels, height, width.
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    /// Output channels and kernel size.
    pub(crate) o: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    /// Convolution output height and width (before the pool).
    pub(crate) ch: usize,
    pub(crate) cw: usize,
}

impl Stage<'_> {
    fn conv_len(&self) -> usize {
        self.o * self.ch * self.cw
    }

    fn pool_len(&self) -> usize {
        self.o * (self.ch / POOL) * (self.cw / POOL)
    }
}

impl<'a> Net<'a> {
    /// A critic's chain: the flat head, no conv stages.
    fn flat(mlp: &'a Mlp) -> Self {
        Net {
            convs: &[],
            mlp,
            head: FusedHead::Flat,
        }
    }

    fn params(&self) -> impl Iterator<Item = &'a Tensor> {
        let convs = self.convs.iter().flat_map(|c| [&c.w, &c.b]);
        convs.chain(self.mlp.layers.iter().flat_map(|l| [&l.w, &l.b]))
    }

    /// Hold the network to the widths it will be fed: `obs_dim`
    /// observation values in, `n_actions` logits out per transition. Every
    /// shape a forward trusts — weight ranks, bias lengths, each conv
    /// stage's fit into its input maps, each dense layer's input against
    /// the previous output — is compared here, so a network that passes
    /// runs without a shape panic.
    fn check(&self, obs_dim: usize, n_actions: usize) -> Result<(), String> {
        if n_actions == 0 {
            return Err("a policy needs at least one action slot".into());
        }
        if !self.convs.is_empty() && !matches!(self.head, FusedHead::Conv { .. }) {
            return Err("only a conv head has conv stages".into());
        }
        let (mut width, out) = match self.head {
            FusedHead::Flat => (obs_dim, n_actions),
            FusedHead::Kernel { window } => {
                if window != n_actions || !obs_dim.is_multiple_of(window) {
                    return Err(format!(
                        "a {window}-job kernel window cannot read {obs_dim} inputs into {n_actions} slots"
                    ));
                }
                (obs_dim / window, 1)
            }
            FusedHead::Conv { h, w } => {
                if h * w != obs_dim {
                    return Err(format!("a {h} x {w} image is not {obs_dim} inputs"));
                }
                let (mut c, mut h, mut w) = (1, h, w);
                for (i, conv) in self.convs.iter().enumerate() {
                    let (ws, bs) = (conv.w.shape(), conv.b.shape());
                    let &[o, ci, kh, kw] = ws else {
                        return Err(format!("conv {i}: weight {ws:?} is not [out, in, kh, kw]"));
                    };
                    if ci != c || bs != [o] || conv.stride == 0 || kh > h || kw > w {
                        return Err(format!(
                            "conv {i}: weight {ws:?}, bias {bs:?} and stride {} do not fit {c} maps of {h} x {w}",
                            conv.stride
                        ));
                    }
                    let stride = conv.stride;
                    (c, h, w) = (
                        o,
                        ((h - kh) / stride + 1) / POOL,
                        ((w - kw) / stride + 1) / POOL,
                    );
                    if h == 0 || w == 0 {
                        return Err(format!("conv {i}: its max-pool leaves no maps"));
                    }
                }
                (c * h * w, n_actions)
            }
        };
        if self.mlp.layers.is_empty() {
            return Err("the dense chain has no layers".into());
        }
        for (i, layer) in self.mlp.layers.iter().enumerate() {
            let (ws, bs) = (layer.w.shape(), layer.b.shape());
            let &[din, dout] = ws else {
                return Err(format!("dense {i}: weight {ws:?} is not [in, out]"));
            };
            if din != width || bs != [dout] {
                return Err(format!(
                    "dense {i}: weight {ws:?} and bias {bs:?} do not take {width} inputs"
                ));
            }
            width = dout;
        }
        if width != out {
            return Err(format!(
                "the network emits {width} values per row, not {out}"
            ));
        }
        Ok(())
    }

    fn widths(&self) -> (usize, usize) {
        let layers = &self.mlp.layers;
        let in_dim = layers.first().map_or(0, |l| l.in_dim());
        let out_dim = layers.last().map_or(0, |l| l.out_dim());
        match self.head {
            FusedHead::Flat => (in_dim, out_dim),
            FusedHead::Kernel { window } => (window * in_dim, window),
            FusedHead::Conv { h, w } => (h * w, out_dim),
        }
    }

    /// Dense-chain rows of `n` whole transitions: one per transition, or
    /// for the kernel head every job row of every window.
    fn window_rows(&self, n: usize) -> usize {
        match self.head {
            FusedHead::Kernel { window } => n * window,
            _ => n,
        }
    }

    /// The most dense-chain rows an `n`-transition chunk forwards: its
    /// [`Net::window_rows`], plus for the kernel head the one
    /// all-zero job row that scores the padding.
    fn dense_rows(&self, n: usize) -> usize {
        let zero_row = matches!(self.head, FusedHead::Kernel { .. });
        self.window_rows(n) + usize::from(zero_row)
    }

    /// The conv stages' shapes, first to last (none for the dense heads).
    pub(crate) fn stages(&self) -> impl Iterator<Item = Stage<'a>> {
        let (h, w) = match self.head {
            FusedHead::Conv { h, w } => (h, w),
            _ => (0, 0),
        };
        self.convs.iter().scan((1, h, w), |(c, h, w), conv| {
            let (o, kh, kw) = (conv.w.shape()[0], conv.w.shape()[2], conv.w.shape()[3]);
            let ch = (*h - kh) / conv.stride + 1;
            let cw = (*w - kw) / conv.stride + 1;
            let stage = Stage {
                conv,
                c: *c,
                h: *h,
                w: *w,
                o,
                kh,
                kw,
                ch,
                cw,
            };
            (*c, *h, *w) = (o, ch / POOL, cw / POOL);
            Some(stage)
        })
    }

    /// The most values every activation a pass stashes holds for an
    /// `n`-transition chunk, in stack order: each conv stage's ReLU output
    /// and pooled maps, then each dense layer's output.
    fn act_lens(&self, n: usize) -> impl Iterator<Item = usize> + 'a {
        let (mlp, rows) = (self.mlp, self.dense_rows(n));
        let convs = self
            .stages()
            .flat_map(move |s| [n * s.conv_len(), n * s.pool_len()]);
        convs.chain(mlp.layers.iter().map(move |l| rows * l.out_dim()))
    }
}

/// Rows (transitions) per chunk. Chunk boundaries are a pure function of
/// the batch size and this constant — never of the machine or the worker
/// count — so the chunk-index-ordered gradient merge makes the pass
/// bit-identical at every thread count.
pub const SHARD_ROWS: usize = 64;

/// Empty `v` and give it room for `cap` elements (a no-op once the
/// high-water mark is reached).
fn fit<T>(v: &mut Vec<T>, cap: usize) {
    v.clear();
    v.reserve(cap);
}

/// The buffers one chunk needs *while it runs*: its rows, every stashed
/// activation and the backward's gradient buffers. A worker reuses one
/// set for every chunk of its run, so there are never more of these than
/// workers.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// The chunk's observation rows: `[n, obs_dim]` — for the flat head
    /// each row only up to its reach ([`WorkerScratch::gather_flat`]), for
    /// the conv head zero-filled to the whole window, for the kernel head
    /// only the first `live[t]` job rows of each window `t`, then one
    /// all-zero job row.
    obs: Vec<f32>,
    /// Policy side: each transition's valid slot count, which implies its
    /// mask (0 on the first `valid[t]` slots, [`MASK_OFF`] after them).
    valid: Vec<usize>,
    /// Kernel head: how many job rows of each transition's window `obs`
    /// holds — its valid slots, or the whole window once widened; empty
    /// for the other heads.
    live: Vec<usize>,
    /// Where the dense chain's `dW` sums close a row block, in the rows
    /// the backward walks ([`simd::gemm_tn_blocks`]); the last entry is
    /// the row count.
    ends: Vec<usize>,
    /// Flat head: how many values each row holds before its zeros (its
    /// length in the row source); empty for the other heads.
    ext: Vec<usize>,
    /// Flat head: the chunk's rows in order of extent, the blocks the
    /// first layer's forward runs in ([`simd::dense_ragged`]).
    order: Vec<u32>,
    /// Flat head: the first layer's `dW` active-row list
    /// ([`simd::gemm_tn_ragged`]).
    active: Vec<u32>,
    /// Every stashed activation, in stack order (`acts[i]` holds up to
    /// `FusedPolicy::act_lens`'s `i`-th length).
    acts: Vec<Vec<f32>>,
    g: GradBufs,
}

/// The backward's working buffers.
#[derive(Debug, Default)]
struct GradBufs {
    /// Gradient ping buffer (holds `dY` of the layer being processed).
    dy: Vec<f32>,
    /// Gradient pong buffer (receives `dX`).
    dy2: Vec<f32>,
    /// Pre-activation gradient of the current layer.
    dpre: Vec<f32>,
    /// Transposed weights for the `dX` gemm.
    wt: Vec<f32>,
}

impl WorkerScratch {
    /// Size every buffer for a chunk of `n` transitions of `od`
    /// observation values. Runs on the calling thread before the
    /// fan-out, so workers only write into buffers that already have
    /// their final size instead of growing them step by step out of a
    /// short-lived thread's allocator arena, and a no-op once the
    /// high-water mark is reached. A set belongs to a worker, not to a
    /// chunk, so the resident footprint is `workers × one chunk` (~5 MB
    /// each for the 32/16/8 kernel net at 64 × 128 job rows, plus the
    /// zero row) whatever the minibatch size — one per chunk would be
    /// 157 MB for a 2 048-row minibatch.
    fn presize(&mut self, p: &Net<'_>, n: usize, od: usize) {
        let rows = p.dense_rows(n);
        let zero_row = match p.head {
            FusedHead::Kernel { .. } => p.mlp.in_dim(),
            _ => 0,
        };
        // Not emptied: the flat gather writes only what the forward and
        // backward read, over whatever an earlier chunk left.
        self.obs
            .reserve((n * od + zero_row).saturating_sub(self.obs.len()));
        fit(&mut self.valid, n);
        fit(&mut self.live, n);
        fit(&mut self.ext, n);
        fit(&mut self.order, n);
        fit(&mut self.active, n);
        fit(&mut self.ends, rows.div_ceil(simd::TN_BLOCK_ROWS) + 1);
        self.acts.resize_with(p.act_lens(n).count(), Vec::new);
        // Every gradient buffer holds some activation's values for the
        // chunk (a dX is as wide as the activation that fed the layer,
        // and the dlogits are no wider than the last layer's output).
        let mut widest = 0;
        for (act, len) in self.acts.iter_mut().zip(p.act_lens(n)) {
            fit(act, len);
            widest = widest.max(len);
        }
        let dx0 = !p.convs.is_empty();
        let wt = p.mlp.layers.iter().enumerate();
        let wt = wt.filter(|&(l, _)| l > 0 || dx0);
        let wt = wt.map(|(_, l)| l.in_dim() * l.out_dim()).max();
        let g = &mut self.g;
        fit(&mut g.dy, widest);
        fit(&mut g.dy2, widest);
        fit(&mut g.dpre, widest);
        fit(&mut g.wt, wt.unwrap_or(0));
    }

    /// Policy side: read each indexed row's valid slot count off its
    /// length — rows of `f`-value job rows, at least one and at most
    /// `width` of them — and hold each transition's action to its valid
    /// slots.
    fn read_valid<'d>(
        &mut self,
        index: &[u32],
        actions: &[usize],
        (f, width): (usize, usize),
        rows: impl Fn(usize) -> &'d [f32],
    ) {
        self.valid.clear();
        for (&i, &a) in index.iter().zip(actions) {
            let jobs = rows(i as usize);
            let n = jobs.len() / f;
            assert!(
                n * f == jobs.len() && (1..=width).contains(&n),
                "row {i} has {} values, not 1 to {width} job rows of {f}",
                jobs.len()
            );
            assert!(a < n, "action {a} of row {i} is past its {n} valid slots");
            self.valid.push(n);
        }
    }

    /// The conv head's gather: copy the rows `index` names out of `rows`
    /// into the row buffer, in index order, each zero-filled to `od`
    /// values — one whole image per transition.
    fn gather<'d>(&mut self, index: &[u32], od: usize, rows: impl Fn(usize) -> &'d [f32]) {
        self.obs.clear();
        for &i in index {
            let row = check_row(i, rows(i as usize), od);
            self.obs.extend_from_slice(row);
            self.obs.resize(self.obs.len() + od - row.len(), 0.0);
        }
        self.ends.clear();
        self.ends.extend(simd::tn_block_ends(index.len()));
    }

    /// The flat head's gather: row `t` of the chunk goes to
    /// `obs[t * od..]` as its values, then zeros up to its reach
    /// ([`simd::ragged_reaches`] over `order`, the rows sorted by
    /// extent). Nothing past a row's reach is written, and the ragged
    /// first layer reads nothing past it.
    fn gather_flat<'d>(&mut self, index: &[u32], od: usize, rows: impl Fn(usize) -> &'d [f32]) {
        let n = index.len();
        self.ext.clear();
        for &i in index {
            self.ext.push(check_row(i, rows(i as usize), od).len());
        }
        simd::ragged_order(&self.ext, &mut self.order);
        if self.obs.len() < n * od {
            self.obs.resize(n * od, 0.0);
        }
        for (t, reach) in simd::ragged_reaches(&self.ext, &self.order, od) {
            let row = rows(index[t] as usize);
            let dst = &mut self.obs[t * od..t * od + reach];
            dst[..row.len()].copy_from_slice(row);
            dst[row.len()..].fill(0.0);
        }
        self.ends.clear();
        self.ends.extend(simd::tn_block_ends(n));
    }

    /// The kernel head's gather: per transition `t` its valid job rows,
    /// then all-zero rows up to `live[t]`, and one all-zero job row
    /// after the chunk's windows. `read_valid` has checked the rows.
    ///
    /// Also maps every [`simd::TN_BLOCK_ROWS`] boundary of the whole
    /// windows' job rows to the compact row that holds it, so the `dW`
    /// sums close their blocks where a pass over whole windows would.
    fn gather_jobs<'d>(
        &mut self,
        index: &[u32],
        (f, width): (usize, usize),
        rows: impl Fn(usize) -> &'d [f32],
    ) {
        self.obs.clear();
        for ((&i, &live), &valid) in index.iter().zip(&self.live).zip(&self.valid) {
            self.obs.extend_from_slice(rows(i as usize));
            self.obs.resize(self.obs.len() + (live - valid) * f, 0.0);
        }
        self.obs.resize(self.obs.len() + f, 0.0);

        self.ends.clear();
        let (mut before, mut boundary) = (0, simd::TN_BLOCK_ROWS);
        for (t, &live) in self.live.iter().enumerate() {
            while boundary < (t + 1) * width {
                self.ends.push(before + live.min(boundary - t * width));
                boundary += simd::TN_BLOCK_ROWS;
            }
            before += live;
        }
        self.ends.push(before);
    }

    /// Kernel head, after the loss tail: widen to its whole window every
    /// transition whose dlogits (`g.dy`, `[n, width]`) are not exactly
    /// zero on a slot the forward left out — a masked slot that kept some
    /// probability. Returns whether any was widened; the chunk must then
    /// gather and forward again before its backward.
    fn widen_kept_padding(&mut self, width: usize) -> bool {
        let mut widened = false;
        for (live, dlogits) in self.live.iter_mut().zip(self.g.dy.chunks(width)) {
            if dlogits[*live..].iter().any(|&d| d != 0.0) {
                *live = width;
                widened = true;
            }
        }
        widened
    }

    /// Kernel head: keep only the dlogits of the job rows the forward
    /// scored, in their compact order — every other one is zero and adds
    /// nothing to any gradient.
    fn compact_dlogits(&mut self, width: usize) {
        if self.live.is_empty() {
            return;
        }
        let dy = &mut self.g.dy;
        let mut at = 0;
        for (t, &live) in self.live.iter().enumerate() {
            dy.copy_within(t * width..t * width + live, at);
            at += live;
        }
        dy.truncate(at);
    }

    /// Bytes of the float buffers (the `valid`, `live`, `ends`, `ext`,
    /// `order` and `active` bookkeeping, a few hundred bytes, is not
    /// counted).
    fn bytes(&self) -> usize {
        let g = &self.g;
        let floats = self.obs.capacity()
            + self.acts.iter().map(Vec::capacity).sum::<usize>()
            + g.dy.capacity()
            + g.dy2.capacity()
            + g.dpre.capacity()
            + g.wt.capacity();
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
    /// Parameter-gradient partials in bind order.
    grads: Vec<Tensor>,
    /// `Σ min(s1,s2)` over the chunk's rows (policy side).
    obj: f32,
    /// `Σ p·logp` over the chunk's rows (policy side).
    ent: f32,
    /// `Σ (v−R)²` over the chunk's rows (value side).
    sq: f32,
    /// Dense-chain rows the chunk forwarded (re-runs included).
    rows: usize,
    /// Time the chunk spent in its forward, a widened re-run's gather and
    /// forward included (the backward closure adds those).
    forward: Duration,
    /// Time the chunk spent in its loss tail + backward, without a re-run.
    backward: Duration,
}

impl Partial {
    /// Size the buffers for `n` transitions of `width` logits each
    /// (`width` 0 on the value side), on the calling thread like
    /// [`WorkerScratch::presize`].
    fn presize(&mut self, p: &Net<'_>, n: usize, width: usize) {
        fit(&mut self.logp, n * width);
        fit(&mut self.sel, n);
        self.rows = 0;
        if self.grads.is_empty() {
            self.grads = p.params().map(|t| Tensor::zeros(t.shape())).collect();
        }
        assert_eq!(
            self.grads.len(),
            p.params().count(),
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
/// time of its own: each chunk times its two halves (a kernel-head
/// re-run's gather and forward count as forward), and the pass's wall
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
    /// Rows the dense chain scored: for the kernel head the windows' job
    /// rows it kept plus one all-zero row per chunk, otherwise one per
    /// transition.
    pub rows: usize,
    /// Rows a pass over whole windows would score: `n × window` for the
    /// kernel head, otherwise `n`.
    pub window_rows: usize,
}

/// Reusable buffers for the fused pass: one activation-and-gradient
/// scratch per worker in flight and one partial (gradients, loss sums,
/// log-prob rows) per [`SHARD_ROWS`]-row slice of the minibatch. One per
/// network (the PPO trainer holds one for the actor and one for the
/// critic); every buffer only grows to its high-water mark, so
/// steady-state updates allocate nothing on the inline (one-worker) path.
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

    /// Merged parameter gradients of the last pass, in the network's bind
    /// order — index-aligned with [`FusedPolicy::params`].
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

    /// Run every chunk of an `n`-transition minibatch (`od` observation
    /// values and `width` logits per transition) on the
    /// [`pool`] workers: `forward(scratch, partial, lo, hi)` — which
    /// copies the chunk's rows into the worker's scratch first — and
    /// `backward(scratch, partial, lo, hi)` back to back, `[lo, hi)` being
    /// the chunk's bounds in the minibatch. Then tree-merge the gradient
    /// partials into chunk 0. Returns the live partials and the call's
    /// wall time apportioned to (forward, backward).
    fn sweep(
        &mut self,
        p: &Net<'_>,
        n: usize,
        (od, width): (usize, usize),
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
            part.presize(p, SHARD_ROWS.min(n - c * SHARD_ROWS), width);
        }
        // One scratch per worker, each big enough for a full chunk of
        // this batch. A worker takes a contiguous run of chunks and keeps
        // its scratch for all of them, so the buffers stay in that core's
        // cache from one chunk to the next. (How chunks group onto workers
        // depends on the budget; nothing a chunk computes does.)
        let in_flight = pool::current_num_threads().min(n_chunks);
        if self.workers.len() < in_flight {
            self.workers.resize_with(in_flight, Mutex::default);
        }
        for w in &mut self.workers {
            unpoisoned(w.get_mut()).presize(p, SHARD_ROWS.min(n), od);
        }

        let run = n_chunks.div_ceil(in_flight);
        let workers = &self.workers;
        pool::for_each_chunk_mut(partials, run, |g, parts| {
            let w = &mut *unpoisoned(workers[g].lock());
            for (c, part) in (g * run..).zip(parts) {
                let lo = c * SHARD_ROWS;
                let hi = (lo + SHARD_ROWS).min(n);
                part.forward = Duration::ZERO;
                let t0 = Instant::now();
                forward(w, part, lo, hi);
                let t1 = Instant::now();
                backward(w, part, lo, hi);
                let rerun = part.forward;
                part.forward = t1 - t0 + rerun;
                part.backward = t1.elapsed().saturating_sub(rerun);
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

/// Hold a gathered row to the network's `od` inputs.
fn check_row(i: u32, row: &[f32], od: usize) -> &[f32] {
    assert!(
        row.len() <= od,
        "row {i} has {} values, more than the network's {od} inputs",
        row.len()
    );
    row
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

/// Forward the whole stack over `n` transitions' observations, stashing
/// every activation in `acts` (the analytic backward needs them all —
/// this is the only state the fused pass keeps, where a tape keeps a node
/// per op). Conv stages run `infer`'s conv, ReLU and pool loops and dense
/// layers [`infer::dense_forward`], the scoring path's own arithmetic.
/// The dense chain runs on every row of its input (for the kernel head,
/// the job rows `obs` holds; for the flat head the `n` rows, its first
/// layer ragged); returns how many that was.
fn forward_stack(p: &Net<'_>, w: &mut WorkerScratch, n: usize) -> usize {
    let WorkerScratch {
        obs,
        ext,
        order,
        acts,
        ..
    } = w;
    let obs = &obs[..];
    for (i, st) in p.stages().enumerate() {
        let (done, rest) = acts.split_at_mut(2 * i);
        let x = done.last().map_or(obs, |v| &v[..]);
        let (conv, rest) = rest.split_first_mut().expect("a conv activation per stage");
        let c = st.conv;
        let (o, kh, kw) = (st.o, st.kh, st.kw);
        infer::conv2d_forward(
            x,
            c.w.data(),
            c.b.data(),
            n,
            st.c,
            st.h,
            st.w,
            o,
            kh,
            kw,
            c.stride,
            conv,
        );
        Activation::Relu.apply_slice(conv);
        infer::max_pool2d_forward(conv, n, o, st.ch, st.cw, POOL, &mut rest[0]);
    }
    let (convs, dense) = acts.split_at_mut(2 * p.convs.len());
    let in_dim = p.mlp.in_dim();
    if let FusedHead::Flat = p.head {
        let x = &obs[..n * in_dim];
        forward_layers(p.mlp, x, n, Some((ext, order)), dense);
        return n;
    }
    let x = convs.last().map_or(obs, |v| &v[..]);
    let rows = x.len() / in_dim;
    forward_layers(p.mlp, x, rows, None, dense);
    rows
}

/// Forward the dense chain over `rows` stacked inputs, stashing every
/// layer's post-activation output in `acts`; with `ragged` (each row's
/// extent and the rows' block order) the first layer reads each row only
/// up to its extent ([`infer::dense_forward_ragged`]).
///
/// The dense layers apply ReLU in the kernel's registers before the store
/// ([`simd::dense_any`]). The ragged first layer keeps a separate
/// activation pass: an output that ends −0 under a −0 bias replays its
/// skipped padding terms, and that test reads the sign before any
/// activation (a fused `max` would already have made it +0).
fn forward_layers(
    mlp: &Mlp,
    x0: &[f32],
    rows: usize,
    ragged: Option<(&[usize], &[u32])>,
    acts: &mut [Vec<f32>],
) {
    debug_assert_eq!(x0.len(), rows * mlp.in_dim(), "input volume");
    let last = mlp.layers.len() - 1;
    for i in 0..mlp.layers.len() {
        let layer = &mlp.layers[i];
        let act = if i == last { mlp.output } else { mlp.hidden };
        let (prev, rest) = acts.split_at_mut(i);
        let (w, b) = (layer.w.data(), layer.b.data());
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        match ragged {
            Some((ext, order)) if i == 0 => {
                infer::dense_forward_ragged(x0, ext, order, w, b, din, dout, act, &mut rest[0]);
            }
            _ => {
                let x = if i == 0 { x0 } else { &prev[i - 1] };
                infer::dense_forward(x, rows, w, b, din, dout, act, &mut rest[0]);
            }
        }
    }
}

/// Walk the stack last-to-first from the logits' gradient in `s.g.dy`
/// over the `n` transitions in `s.obs`, writing every parameter gradient
/// into `grads` (bind order). The dense chain walks the first
/// `s.ends.last()` of its forwarded rows. The observation itself needs no
/// gradient, so the first layer's `dX` is never computed.
fn backward_stack(p: &Net<'_>, n: usize, s: &mut WorkerScratch, grads: &mut [Tensor]) {
    // A conv stage stashes two activations and owns two parameters.
    let k = 2 * p.convs.len();
    let WorkerScratch {
        obs,
        acts,
        g,
        ends,
        ext,
        active,
        ..
    } = s;
    let obs = &obs[..];
    let (conv_acts, dense_acts) = acts.split_at(k);
    let (conv_grads, dense_grads) = grads.split_at_mut(k);
    let x = conv_acts.last().map_or(obs, |v| &v[..]);
    let ragged = matches!(p.head, FusedHead::Flat).then_some((&ext[..], active));
    backward_layers(p.mlp, x, ends, ragged, dense_acts, g, dense_grads, k > 0);

    // `g.dy` now holds the gradient of the last stage's pooled maps.
    for i in (0..k / 2).rev() {
        let st = p.stages().nth(i).expect("one stage per conv");
        let y = &conv_acts[2 * i];
        let dconv = &mut g.dpre;
        dconv.clear();
        dconv.resize(n * st.conv_len(), 0.0);
        pool_backward(y, &g.dy, n, &st, dconv);
        // ReLU: the stashed output is positive exactly where its input
        // was.
        for (d, &yv) in dconv.iter_mut().zip(y) {
            if yv <= 0.0 {
                *d = 0.0;
            }
        }
        let x = if i == 0 { obs } else { &conv_acts[2 * i - 1] };
        let dx = (i > 0).then(|| {
            g.dy2.clear();
            g.dy2.resize(n * st.c * st.h * st.w, 0.0);
            &mut g.dy2[..]
        });
        let (dw, db) = conv_grads[2 * i..].split_at_mut(1);
        conv_backward(x, &g.dpre, n, &st, dw[0].data_mut(), db[0].data_mut(), dx);
        if i > 0 {
            std::mem::swap(&mut g.dy, &mut g.dy2);
        }
    }
}

/// Walk the dense layers last-to-first given `dY` of the final layer in
/// `g.dy`, writing parameter gradients into `grads`; with `dx0`, `g.dy`
/// ends holding `dX` of the first layer. The walk covers the first
/// `ends.last()` rows of `x0` and `acts`, and the `dW` sums close a row
/// block at each of `ends`. With `ragged` (each row's extent and an
/// active-row scratch) the first layer's `dW` reads each row only up to
/// its extent ([`simd::gemm_tn_ragged`]).
///
/// Replicates the reference tape's dense backward exactly: the
/// per-activation `dpre` loops, `dW` through the TN kernel, `db` as
/// ascending-row column sums, and `dX` through the transpose-W +
/// broadcast-gemm path.
#[allow(clippy::too_many_arguments)] // the chain, its rows, stash and buffers
fn backward_layers(
    mlp: &Mlp,
    x0: &[f32],
    ends: &[usize],
    mut ragged: Option<(&[usize], &mut Vec<u32>)>,
    acts: &[Vec<f32>],
    g: &mut GradBufs,
    grads: &mut [Tensor],
    dx0: bool,
) {
    let rows = *ends.last().expect("a pass walks at least one row");
    let last = mlp.layers.len() - 1;
    for l in (0..=last).rev() {
        let layer = &mlp.layers[l];
        let act = if l == last { mlp.output } else { mlp.hidden };
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        debug_assert_eq!(g.dy.len(), rows * dout, "dY volume at layer {l}");

        // dpre = dY ∘ act'(Y): one loop per activation, expressed through
        // the stashed output, in place over dY (ReLU as a select, which
        // vectorizes as wide as the detected arm: each element is its own
        // select or product), then swapped into `dpre`.
        let pairs = g.dy.iter_mut().zip(&acts[l]);
        simd::with_arm_features(
            #[inline(always)]
            || match act {
                Activation::Identity => {}
                Activation::Relu => pairs.for_each(|(d, &yv)| *d = if yv > 0.0 { *d } else { 0.0 }),
                Activation::Tanh => pairs.for_each(|(d, &yv)| *d *= 1.0 - yv * yv),
                Activation::Sigmoid => pairs.for_each(|(d, &yv)| *d = *d * yv * (1.0 - yv)),
            },
        );
        std::mem::swap(&mut g.dy, &mut g.dpre);

        // dX = dpre · Wᵀ: transpose W (tiny) and run the broadcast gemm.
        let dx_needed = l > 0 || dx0;
        if dx_needed {
            // The gemm writes every element: resize zero-fills only
            // growth.
            let dx = &mut g.dy2;
            dx.resize(rows * din, 0.0);
            g.wt.resize(din * dout, 0.0);
            simd::transpose(layer.w.data(), din, dout, &mut g.wt);
            simd::gemm(&g.dpre, rows, dout, &g.wt, din, None, dx);
        }

        // dW = Xᵀ · dpre (the TN kernel fills its output, no pre-zero
        // needed).
        let x = if l == 0 { x0 } else { &acts[l - 1] };
        let dw = grads[2 * l].data_mut();
        let ends_iter = ends.iter().copied();
        match &mut ragged {
            Some((ext, active)) if l == 0 => {
                simd::gemm_tn_ragged(x, din, ext, &g.dpre, dout, ends_iter, active, dw);
            }
            _ => simd::gemm_tn_blocks(x, din, &g.dpre, dout, ends_iter, dw),
        }

        let db = grads[2 * l + 1].data_mut();
        simd::with_arm_features(
            #[inline(always)]
            || column_sums(&g.dpre, dout, db),
        );

        if dx_needed {
            std::mem::swap(&mut g.dy, &mut g.dy2);
        }
    }
}

/// `db`: the column sums of the `[rows, n]` matrix `x` into `out[..n]`,
/// each one row-ascending chain from +0. Up to 32 columns at a time are
/// held in registers across all the rows, so no partial sum goes through
/// memory; inlined into [`simd::with_arm_features`], the vectors are as
/// wide as the detected arm's, and each column's sum keeps its order.
#[inline(always)]
fn column_sums(x: &[f32], n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j + 32 <= n {
        column_sums_at::<32>(x, n, j, out);
        j += 32;
    }
    if j + 16 <= n {
        column_sums_at::<16>(x, n, j, out);
        j += 16;
    }
    if j + 8 <= n {
        column_sums_at::<8>(x, n, j, out);
        j += 8;
    }
    for (jj, o) in out.iter_mut().enumerate().take(n).skip(j) {
        *o = x.chunks_exact(n).fold(0.0, |s, row| s + row[jj]);
    }
}

/// [`column_sums`] of the `W` columns from `j`.
#[inline(always)]
fn column_sums_at<const W: usize>(x: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for row in x.chunks_exact(n) {
        let row: &[f32; W] = row[j..j + W].try_into().expect("W columns from j");
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    out[j..j + W].copy_from_slice(&acc);
}

/// Max-pool backward: each pooled gradient in `dp` goes to the first
/// maximum of its window in the pooled activations `y` (ties to the
/// earlier element, like the reference), accumulated into the zeroed
/// `dy`.
fn pool_backward(y: &[f32], dp: &[f32], n: usize, st: &Stage<'_>, dy: &mut [f32]) {
    let (o, ch, cw) = (st.o, st.ch, st.cw);
    let (ph, pw) = (ch / POOL, cw / POOL);
    for bi in 0..n {
        for ci in 0..o {
            for py in 0..ph {
                for px in 0..pw {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = idx4(bi, ci, py * POOL, px * POOL, o, ch, cw);
                    for ky in 0..POOL {
                        for kx in 0..POOL {
                            let i = idx4(bi, ci, py * POOL + ky, px * POOL + kx, o, ch, cw);
                            if y[i] > best {
                                best = y[i];
                                best_i = i;
                            }
                        }
                    }
                    dy[best_i] += dp[idx4(bi, ci, py, px, o, ph, pw)];
                }
            }
        }
    }
}

/// One conv stage's backward from `dy`, the gradient of its pre-ReLU
/// output: overwrites `dw` and `db`, and accumulates into the zeroed `dx`
/// when the input needs a gradient. The loop nest and its accumulation
/// order are the reference tape's, including its skip of zero gradients
/// (ReLU and the pool leave most of them zero).
fn conv_backward(
    x: &[f32],
    dy: &[f32],
    n: usize,
    st: &Stage<'_>,
    dw: &mut [f32],
    db: &mut [f32],
    mut dx: Option<&mut [f32]>,
) {
    let Stage {
        conv,
        c,
        h,
        w,
        o,
        kh,
        kw,
        ch,
        cw,
    } = *st;
    let (wv, stride) = (conv.w.data(), conv.stride);
    dw.fill(0.0);
    db.fill(0.0);
    for bi in 0..n {
        for oi in 0..o {
            for y in 0..ch {
                for xj in 0..cw {
                    let g = dy[idx4(bi, oi, y, xj, o, ch, cw)];
                    if g == 0.0 {
                        continue;
                    }
                    db[oi] += g;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let xi = idx4(bi, ci, y * stride + ky, xj * stride + kx, c, h, w);
                                let wi = idx4(oi, ci, ky, kx, c, kh, kw);
                                if let Some(dx) = dx.as_deref_mut() {
                                    dx[xi] += g * wv[wi];
                                }
                                dw[wi] += g * x[xi];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One PPO policy pass over a minibatch: per chunk, the layer stack +
/// masked log-softmax + per-action gather, then the clipped-surrogate
/// loss tail and its analytic backward while the chunk's activations are
/// hot.
///
/// The minibatch is the `n = index.len()` rows `index` names, in index
/// order (repeats allowed): `rows(i)` is row `i`'s live job rows — the
/// first `n_i` slots of its window, `n_i × F` values with
/// `F = obs_dim / n_actions` of the network's [`FusedPolicy::widths`]
/// (module docs) — and `actions` (each below its row's `n_i`),
/// `advantages` and `logp_old` hold one entry per index entry. Returns
/// the loss (`-mean(min(ratio·A, clip(ratio)·A)) + ent_coef·mean(Σ
/// p·logp)`); parameter gradients land in [`FusedScratch::grads`],
/// [`FusedScratch::logp_all`] holds the `[n, n_actions]` masked
/// log-probabilities and [`FusedScratch::selected_logp`] the gathered
/// per-action row — the approximate-KL input. Every output is the same
/// bits as a pass over whole zero-padded windows and their masks copied
/// out contiguously first.
///
/// Each chunk's gradient partial is seeded by the *batch* mean, so
/// partials sum to the batch gradient; they reduce through the
/// chunk-index-ordered tree merge and loss partials fold in chunk order.
/// Panics when a shape of `p` does not fit its widths, its observation is
/// not `n_actions` job rows wide, or a row or action breaks the window
/// contract.
#[allow(clippy::too_many_arguments)] // mirrors the PPO objective's term list
pub fn policy_pass<'d>(
    p: &FusedPolicy,
    rows: impl Fn(usize) -> &'d [f32] + Sync,
    index: &[u32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    s: &mut FusedScratch,
) -> FusedPass {
    let n = index.len();
    assert!(n > 0, "fused pass needs at least one transition");
    let p = &p.net();
    let (od, width) = p.widths();
    p.check(od, width)
        .unwrap_or_else(|e| panic!("fused policy pass: {e}"));
    assert!(
        od.is_multiple_of(width),
        "fused policy pass: {od} inputs are not {width} job rows"
    );
    let f = od / width;
    assert_eq!(actions.len(), n, "one action per transition");
    assert_eq!(advantages.len(), n, "one advantage per transition");
    assert_eq!(logp_old.len(), n, "one old log-prob per transition");
    let rows = &rows;
    // Forward the gathered rows into the chunk's `[n, width]` masked
    // log-probs and their selected entries.
    let score = |w: &mut WorkerScratch, part: &mut Partial, lo: usize, hi: usize| {
        part.rows += forward_stack(p, w, hi - lo);
        let Partial { logp, sel, .. } = part;
        let scores = w.acts.last().expect("non-empty MLP");
        logp.clear();
        if w.live.is_empty() {
            logp.extend_from_slice(scores);
        } else {
            infer::spread_window_scores(scores, &w.live, width, logp);
        }
        // The implied mask, added as a stored mask row would be.
        for (row, &valid) in logp.chunks_mut(width).zip(&w.valid) {
            for (j, o) in row.iter_mut().enumerate() {
                *o += if j < valid { 0.0 } else { MASK_OFF };
            }
            infer::log_softmax_inplace(row);
        }
        sel.clear();
        let chosen = actions[lo..hi].iter().enumerate();
        sel.extend(chosen.map(|(i, &a)| logp[i * width + a]));
    };
    let (partials, forward, backward) = s.sweep(
        p,
        n,
        (od, width),
        |w, part, lo, hi| {
            w.read_valid(&index[lo..hi], &actions[lo..hi], (f, width), rows);
            w.live.clear();
            match p.head {
                FusedHead::Kernel { .. } => {
                    w.live.clone_from(&w.valid);
                    w.gather_jobs(&index[lo..hi], (f, width), rows);
                }
                FusedHead::Flat => w.gather_flat(&index[lo..hi], od, rows),
                FusedHead::Conv { .. } => w.gather(&index[lo..hi], od, rows),
            }
            score(w, part, lo, hi);
        },
        |w, part, lo, hi| {
            (part.obj, part.ent) = policy_dlogits(
                &actions[lo..hi],
                &advantages[lo..hi],
                &logp_old[lo..hi],
                clip_ratio,
                ent_coef,
                n,
                &part.logp,
                &mut w.g.dy,
            );
            // A slot the forward left out must have a zero dlogit;
            // where one does not, that window runs again whole.
            if w.widen_kept_padding(width) {
                let t = Instant::now();
                w.gather_jobs(&index[lo..hi], (f, width), rows);
                score(w, part, lo, hi);
                part.forward += t.elapsed();
            }
            w.compact_dlogits(width);
            backward_stack(p, hi - lo, w, &mut part.grads);
        },
    );
    let (mut obj_sum, mut ent_sum, mut scored) = (0.0f32, 0.0f32, 0);
    for c in partials {
        obj_sum += c.obj;
        ent_sum += c.ent;
        scored += c.rows;
    }
    let mean_obj = obj_sum / n as f32;
    let mut loss = -mean_obj; // == the reference's scale(mean_obj, −1) bit for bit
    if ent_coef != 0.0 {
        let ent_mean = ent_sum / n as f32;
        loss += ent_mean * ent_coef;
    }
    FusedPass {
        loss,
        forward,
        backward,
        rows: scored,
        window_rows: p.window_rows(n),
    }
}

/// One [`policy_pass`] chunk's loss tail: write its dlogits (`[n,
/// width]`) into `dy` from its masked log-probs `logp`, with the
/// mean-gradient seeds scaled by the *batch* size `total_n` so the
/// chunk's gradients are exact partials of the whole batch's. Returns the
/// raw `(Σ min(s1,s2), Σ p·logp)` partial sums (row-ascending f32 folds).
///
/// The dlogits kernel fuses, per transition row: ratio / clip / min
/// gradient routing (ties to the unclipped side, exactly like the
/// reference's `min_elem`), the optional entropy-bonus term (in the
/// reference's accumulation order), the gather scatter, and the
/// log-softmax backward `dx = dy − softmax(x)·rowsum(dy)` with the
/// exp-underflow short-circuit. One pass over `[n, n_actions]` replaces
/// five separate gradient buffers.
#[allow(clippy::too_many_arguments)] // the PPO term list + the batch size
fn policy_dlogits(
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    total_n: usize,
    logp: &[f32],
    dy: &mut Vec<f32>,
) -> (f32, f32) {
    let n = actions.len();
    let width = logp.len() / n;

    // Loss-tail gradient seeds: d(mean surrogate) = −1/n per element,
    // d(plogp) = ent_coef/n.
    let gm = -1.0f32 / total_n as f32;
    let dplogp = ent_coef / total_n as f32;
    let (lo, hi) = (1.0 - clip_ratio, 1.0 + clip_ratio);

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
            // the reference's accumulation order, before the gather
            // scatter.
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
            // the reference bit for bit.
            let rowsum = 0.0f32 + d_sel;
            for (j, (o, &lpj)) in out.iter_mut().zip(row).enumerate() {
                let rj = if j == a { d_sel } else { 0.0 };
                *o = rj - infer::exp_or_zero(lpj) * rowsum;
            }
        }
    }
    (obj_sum, ent_sum)
}

/// One critic pass over the `n = index.len()` observations `index` names
/// in `rows` (in index order, repeats allowed): per chunk, the layer
/// chain, then the squared-error loss `mean((v − R)²)` against
/// `returns` (one per index entry) and its analytic backward. A row may
/// be shorter than the critic's input — a window's live job rows, as
/// [`policy_pass`] reads them — and the first layer's forward and `dW`
/// read it only up to its length, with the bits of the row zero-filled
/// to the input width (module docs). Returns the loss; gradients land in
/// [`FusedScratch::grads`]. Chunked and merged exactly like
/// [`policy_pass`].
pub fn value_pass<'d>(
    mlp: &Mlp,
    rows: impl Fn(usize) -> &'d [f32] + Sync,
    index: &[u32],
    returns: &[f32],
    s: &mut FusedScratch,
) -> FusedPass {
    let n = index.len();
    assert!(n > 0, "fused value pass needs at least one row");
    let p = Net::flat(mlp);
    let od = p.widths().0;
    p.check(od, 1)
        .unwrap_or_else(|e| panic!("fused value pass: {e}"));
    assert_eq!(returns.len(), n, "one return target per row");
    // d(mean) = 1/n over the *batch*; the squared term contributes g·d
    // twice (the reference's `mul(d, d)` accumulates both factor sides).
    let g = 1.0f32 / n as f32;
    let (partials, forward, backward) = s.sweep(
        &p,
        n,
        (od, 0),
        |w, _, lo, hi| {
            w.gather_flat(&index[lo..hi], od, &rows);
            forward_stack(&p, w, hi - lo);
        },
        |w, part, lo, hi| {
            part.sq = 0.0;
            w.g.dy.clear();
            let values = w.acts.last().expect("non-empty MLP");
            for (&vi, &ri) in values.iter().zip(&returns[lo..hi]) {
                let d = vi - ri;
                part.sq += d * d;
                let t = g * d;
                w.g.dy.push(t + t);
            }
            backward_stack(&p, hi - lo, w, &mut part.grads);
        },
    );
    let mut sq_sum = 0.0f32;
    for c in partials {
        sq_sum += c.sq;
    }
    FusedPass {
        loss: sq_sum / n as f32,
        forward,
        backward,
        rows: n,
        window_rows: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
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

    /// Transitions stored as their live job rows, as a row source: row
    /// `t` is the `counts[t]` job rows of `f` values after row `t − 1`'s.
    fn ragged<'d>(
        jobs: &'d [f32],
        counts: &[usize],
        f: usize,
    ) -> impl Fn(usize) -> &'d [f32] + Sync {
        let starts: Vec<usize> = counts
            .iter()
            .scan(0, |at, &c| {
                *at += c;
                Some(*at - c)
            })
            .collect();
        let counts = counts.to_vec();
        move |t| &jobs[starts[t] * f..(starts[t] + counts[t]) * f]
    }

    /// Every one of `n` rows once, in order.
    fn all(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn value_grads_match_tape_bitwise() {
        // The reference tape links the non-test copy of this crate, so its
        // network is built from that copy's types, from the same seed.
        use rlsched_nn_ref::nn as ext;
        let dims = [6, 16, 8, 1];
        let net = mlp(&dims, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let ref_net = ext::Mlp::new(
            &dims,
            ext::Activation::Relu,
            ext::Activation::Identity,
            &mut rng,
        );
        let n = 12;
        let obs = filled(n * 6, 0.8, 0.3);
        let returns = filled(n, 2.0, 1.1);

        // Tape arm: exactly the value-loss graph `Ppo::update` minimizes.
        let mut g = rlsched_nn_ref::Graph::new();
        let (loss, params) = rlsched_nn_ref::value_loss(&mut g, &ref_net, &obs, &returns);
        g.backward(loss);
        let tape_loss = g.value(loss).item();
        let tape_grads = g.grads(&params);

        let mut s = FusedScratch::new();
        let row = |i: usize| &obs[i * 6..(i + 1) * 6];
        let fused_loss = value_pass(&net, row, &all(n), &returns, &mut s).loss;

        let weights = net.layers.iter().flat_map(|l| [&l.w, &l.b]);
        let ref_weights = ref_net.layers.iter().flat_map(|l| [&l.w, &l.b]);
        for (a, b) in weights.zip(ref_weights) {
            assert_eq!(a.data(), b.data(), "both copies must start from one net");
        }
        assert_eq!(fused_loss, tape_loss, "loss value");
        assert_eq!(tape_grads.len(), s.grads().len());
        for (i, (t, f)) in tape_grads.iter().zip(s.grads()).enumerate() {
            assert_eq!(t.data(), f.data(), "grad {i} diverged from the tape");
        }
    }

    #[test]
    fn fused_scratch_reuse_is_bit_identical() {
        // Three 2-feature slots per window.
        let n = 9;
        let c = policy_case(n, 2, 3);
        let p = FusedPolicy {
            convs: vec![],
            mlp: mlp(&[6, 16, 3], 7),
            head: FusedHead::Flat,
        };
        let (rows, index) = (ragged(&c.jobs, &c.counts, 2), all(n));
        let (actions, adv, old) = (&c.actions, &c.adv, &c.old);
        let mut s = FusedScratch::new();
        let l0 = policy_pass(&p, &rows, &index, actions, adv, old, 0.2, 0.0, &mut s).loss;
        let g0: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
        for _ in 0..3 {
            let l = policy_pass(&p, &rows, &index, actions, adv, old, 0.2, 0.0, &mut s).loss;
            assert_eq!(l, l0, "loss must not drift across scratch reuse");
            for (a, b) in s.grads().iter().zip(&g0) {
                assert_eq!(a.data(), b.as_slice(), "grads must not drift");
            }
        }
    }

    /// Inputs for an `n`-transition policy problem over `width`-slot
    /// windows of `f`-value job rows.
    struct PolicyCase {
        /// Every transition's live job rows, back to back.
        jobs: Vec<f32>,
        /// Live job rows per transition: 1 to `width`, so the windows
        /// have padding of every length.
        counts: Vec<usize>,
        actions: Vec<usize>,
        adv: Vec<f32>,
        old: Vec<f32>,
    }

    fn policy_case(n: usize, f: usize, width: usize) -> PolicyCase {
        let counts: Vec<usize> = (0..n).map(|t| 1 + t * 3 % width).collect();
        let actions = counts.iter().enumerate().map(|(t, &c)| (t * 5 + 1) % c);
        PolicyCase {
            jobs: filled(counts.iter().sum::<usize>() * f, 0.8, 0.4),
            actions: actions.collect(),
            counts,
            adv: filled(n, 1.5, 0.9),
            old: filled(n, 0.5, 2.2).iter().map(|x| x - 1.5).collect(),
        }
    }

    #[test]
    fn chunked_pass_is_thread_count_invariant() {
        // The determinism contract: identical bits (loss, every gradient,
        // diagnostics) at every worker count, pinned against 1 worker.
        let vnet = mlp(&[7, 16, 1], 29);
        let n = 3 * SHARD_ROWS + 7; // four chunks, last ragged
        let window = 5;
        let c = policy_case(n, 4, window);
        let p = FusedPolicy {
            convs: vec![],
            mlp: mlp(&[4, 16, 8, 1], 23),
            head: FusedHead::Kernel { window },
        };
        let vobs = filled(n * 7, 0.6, 0.8);
        let rets = filled(n, 1.8, 0.5);
        let (rows, index) = (ragged(&c.jobs, &c.counts, 4), all(n));
        let vrow = |i: usize| &vobs[i * 7..(i + 1) * 7];

        let run = |threads: usize| {
            pool::with_threads(threads, || {
                let mut s = FusedScratch::new();
                let pl = policy_pass(
                    &p, &rows, &index, &c.actions, &c.adv, &c.old, 0.2, 0.01, &mut s,
                )
                .loss;
                let pg: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
                let diag: (Vec<f32>, Vec<f32>) = (
                    s.logp_all().flatten().copied().collect(),
                    s.selected_logp().collect(),
                );
                let mut vs = FusedScratch::new();
                let vl = value_pass(&vnet, vrow, &index, &rets, &mut vs).loss;
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
