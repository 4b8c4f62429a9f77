//! Proximal Policy Optimization with the clipped surrogate objective —
//! the algorithm of Schulman et al. \[30\] as packaged by OpenAI Spinning Up,
//! which the paper builds RLScheduler on (§V-A).
//!
//! One [`Ppo`] owns an actor (any [`PolicyModel`]) and a critic (any
//! [`ValueModel`]) with separate Adam optimizers. Per §V-A, each epoch runs
//! up to 80 policy-gradient iterations (early-stopped on approximate KL)
//! and 80 value iterations at learning rate 1e-3.

use std::time::{Duration, Instant};

use rand::Rng;

use rlsched_nn::{clip_global_norm, fused, Adam, Graph, Mlp, ParamBinds, Scratch, Tensor, Var};

use crate::buffer::Batch;
use crate::categorical::MaskedCategorical;

/// The actor: maps observations + additive masks to per-action
/// log-probabilities.
pub trait PolicyModel {
    /// Build the forward pass on the tape. `obs` is `[batch, obs_dim]`,
    /// `mask` is `[batch, n_actions]` additive (0 valid / ~-1e9 invalid);
    /// the result must be `[batch, n_actions]` log-probabilities.
    fn log_probs(&self, g: &mut Graph, obs: Var, mask: Var, binds: &mut ParamBinds) -> Var;

    /// Inference fast path: write the masked log-prob row for one
    /// observation into `out`, with no tape bookkeeping.
    ///
    /// The default falls back to building a throwaway tape, so existing
    /// policies keep working; models that matter override it with an
    /// allocation-free forward over `scratch` (see `rlscheduler`'s
    /// `PolicyNet`). Implementations must produce the same numbers as
    /// [`PolicyModel::log_probs`] on a 1-row batch.
    fn log_probs_fast(&self, obs: &[f32], mask: &[f32], scratch: &mut Scratch, out: &mut Vec<f32>) {
        let _ = scratch;
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(obs, &[1, obs.len()]);
        let m = g.input_from(mask, &[1, mask.len()]);
        let lp = self.log_probs(&mut g, o, m, &mut binds);
        out.clear();
        out.extend_from_slice(g.value(lp).data());
    }

    /// Batched inference fast path: write `rows` masked log-prob rows
    /// (`[rows, n_actions]` row-major) into `out`, with no tape
    /// bookkeeping. `obs` is `[rows, obs_dim]` row-major and `masks`
    /// `[rows, n_actions]`.
    ///
    /// The default loops over rows through [`PolicyModel::log_probs_fast`]
    /// (correct for any policy, but pays the weight stream per row);
    /// models that serve concurrent requests override it with one batched
    /// forward — the dense kernels already take a `rows` parameter — so
    /// weight traffic is amortized across the batch. Row `i` of the
    /// result must match `log_probs_fast` on row `i` alone up to float
    /// reassociation (SIMD row-blocking can differ between batched and
    /// single rows), so argmax decisions agree except on floating-point
    /// near-ties.
    fn log_probs_fast_batch(
        &self,
        obs: &[f32],
        masks: &[f32],
        rows: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        assert!(rows > 0, "batched forward needs at least one row");
        assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
        assert_eq!(masks.len() % rows, 0, "mask volume must divide into rows");
        let obs_dim = obs.len() / rows;
        let n_actions = masks.len() / rows;
        out.clear();
        let mut row = Vec::new();
        for i in 0..rows {
            self.log_probs_fast(
                &obs[i * obs_dim..(i + 1) * obs_dim],
                &masks[i * n_actions..(i + 1) * n_actions],
                scratch,
                &mut row,
            );
            out.extend_from_slice(&row);
        }
    }

    /// Parameter tensors in bind order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable parameter access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// Describe this policy for the tape-free fused update
    /// ([`Ppo::update`]'s fast path) when its architecture is an MLP
    /// chain the analytic backward supports. The default (`None`) keeps
    /// the policy on the autodiff tape; implementations returning
    /// `Some` must also override [`PolicyModel::fused_mut`], and the
    /// described network must compute exactly what
    /// [`PolicyModel::log_probs`] builds on the tape.
    fn fused(&self) -> Option<fused::FusedPolicy<'_>> {
        None
    }

    /// Mutable access to the trainable MLP behind
    /// [`PolicyModel::fused`] (the optimizer walks its layers in place,
    /// keeping the fused update allocation-free). Must be `Some` exactly
    /// when `fused` is.
    fn fused_mut(&mut self) -> Option<&mut Mlp> {
        None
    }
}

/// The critic: maps observations to scalar state values.
pub trait ValueModel {
    /// Build the forward pass; result must be `[batch, 1]`.
    fn values(&self, g: &mut Graph, obs: Var, binds: &mut ParamBinds) -> Var;

    /// Inference fast path: the state value of one observation with no
    /// tape bookkeeping. Default falls back to a throwaway tape; override
    /// with an allocation-free forward (must match [`ValueModel::values`]
    /// on a 1-row batch).
    fn value_fast(&self, obs: &[f32], scratch: &mut Scratch) -> f64 {
        let _ = scratch;
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(obs, &[1, obs.len()]);
        let v = self.values(&mut g, o, &mut binds);
        g.value(v).data()[0] as f64
    }

    /// Batched inference fast path: write `rows` state values into `out`
    /// for stacked observations (`[rows, obs_dim]` row-major), with no
    /// tape bookkeeping. The default loops over rows through
    /// [`ValueModel::value_fast`]; critics on the vectorized rollout path
    /// override it with one stacked forward. Element `i` must be
    /// bit-identical to `value_fast` on row `i` alone — the lockstep
    /// sampler's batched≡sequential parity depends on it.
    fn value_fast_batch(
        &self,
        obs: &[f32],
        rows: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        assert!(rows > 0, "batched value forward needs at least one row");
        assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
        let obs_dim = obs.len() / rows;
        out.clear();
        for i in 0..rows {
            out.push(self.value_fast(&obs[i * obs_dim..(i + 1) * obs_dim], scratch));
        }
    }

    /// Parameter tensors in bind order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable parameter access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// The critic's plain-MLP chain, when it has one, for the tape-free
    /// fused update (default `None` = tape). Must compute exactly what
    /// [`ValueModel::values`] builds on the tape, and pair with
    /// [`ValueModel::fused_mut`].
    fn fused(&self) -> Option<&Mlp> {
        None
    }

    /// Mutable counterpart of [`ValueModel::fused`] for the in-place
    /// optimizer walk.
    fn fused_mut(&mut self) -> Option<&mut Mlp> {
        None
    }
}

/// Per-worker reusable buffers for the inference fast path: network
/// scratch plus the log-prob row. One per rollout worker; reused across
/// every step of every episode.
#[derive(Debug, Default)]
pub struct ActorScratch {
    /// Layer scratch for the underlying networks.
    pub nn: Scratch,
    pub(crate) logp: Vec<f32>,
}

impl ActorScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently computed log-prob row.
    pub fn logp(&self) -> &[f32] {
        &self.logp
    }
}

/// PPO hyperparameters. Defaults follow §V-A of the paper (lr 1e-3, 80
/// update iterations per epoch) and Spinning Up conventions elsewhere.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct PpoConfig {
    /// Clipping radius ε of the surrogate objective.
    pub clip_ratio: f32,
    /// Policy learning rate.
    pub pi_lr: f32,
    /// Value-function learning rate.
    pub vf_lr: f32,
    /// Max policy iterations per update.
    pub train_pi_iters: usize,
    /// Value iterations per update.
    pub train_v_iters: usize,
    /// Discount γ (1.0: episodic scheduling with terminal reward).
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Early-stop threshold: stop policy iterations when approximate KL
    /// exceeds 1.5× this.
    pub target_kl: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Optional global-norm gradient clip.
    pub max_grad_norm: Option<f32>,
    /// When set, each update iteration works on a random minibatch of this
    /// size instead of the full batch (PPO-style minibatching; keeps the
    /// 80-iteration schedule affordable on large rollouts).
    pub minibatch: Option<usize>,
    /// Seed for minibatch shuffling (updates stay reproducible).
    pub update_seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            clip_ratio: 0.2,
            pi_lr: 1e-3,
            vf_lr: 1e-3,
            train_pi_iters: 80,
            train_v_iters: 80,
            gamma: 1.0,
            lam: 0.97,
            target_kl: 0.01,
            ent_coef: 0.0,
            max_grad_norm: None,
            minibatch: None,
            update_seed: 0,
        }
    }
}

/// Diagnostics of one [`Ppo::update`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UpdateStats {
    /// Surrogate loss before the first policy step.
    pub pi_loss_before: f32,
    /// Surrogate loss after the last policy step.
    pub pi_loss_after: f32,
    /// Value loss before the first value step.
    pub v_loss_before: f32,
    /// Value loss after the last value step.
    pub v_loss_after: f32,
    /// Final approximate KL(old ‖ new).
    pub approx_kl: f64,
    /// Mean policy entropy over the batch (at the first iteration).
    pub entropy: f32,
    /// Policy iterations actually executed before KL early stop.
    pub pi_iters: usize,
}

/// Wall-clock attribution of one [`Ppo::update`], accumulated across its
/// policy and value iterations: minibatch gather, network forwards,
/// backward/gradient work, and the optimizer step. Filled by
/// [`Ppo::update_profiled`] on either dispatch arm (the phases map 1:1
/// between the fused and tape paths, so regressions are attributable).
///
/// The tape runs forward and backward one after the other and times each.
/// The fused path interleaves them chunk by chunk, so it times the two
/// halves inside every chunk and splits each pass's wall time in the
/// ratio of the summed halves ([`fused::FusedPass`]): the phases still
/// sum to the update's wall time at any worker count.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateProfile {
    /// Minibatch row gather into the reusable staging buffers.
    pub gather: Duration,
    /// Actor/critic forward passes (tape: graph build + eager eval;
    /// fused: the forward share of every chunked pass).
    pub forward: Duration,
    /// Loss tail + backward gradient computation (tape: `backward` +
    /// gradient extraction; fused: the backward share of every chunked
    /// pass, sizing and gradient merge included).
    pub backward: Duration,
    /// Gradient clipping + Adam step.
    pub optimizer: Duration,
}

impl UpdateProfile {
    /// Total attributed time.
    pub fn total(&self) -> Duration {
        self.gather + self.forward + self.backward + self.optimizer
    }
}

/// The PPO agent: actor, critic, optimizers, config.
pub struct Ppo<P: PolicyModel, V: ValueModel> {
    /// The actor network.
    pub policy: P,
    /// The critic network.
    pub value: V,
    /// Hyperparameters.
    pub cfg: PpoConfig,
    pi_opt: Adam,
    vf_opt: Adam,
    update_rng: rand::rngs::StdRng,
    /// Fused-update scratch for the actor (persists across updates so
    /// the fast path allocates nothing at steady state).
    pi_fused: fused::FusedScratch,
    /// Fused-update scratch for the critic.
    vf_fused: fused::FusedScratch,
    /// Reusable minibatch gather buffers, shared by both update arms.
    mb: MiniBuf,
}

impl<P: PolicyModel, V: ValueModel> Ppo<P, V> {
    /// Assemble an agent.
    pub fn new(policy: P, value: V, cfg: PpoConfig) -> Self {
        use rand::SeedableRng;
        let pi_opt = Adam::new(cfg.pi_lr);
        let vf_opt = Adam::new(cfg.vf_lr);
        let update_rng = rand::rngs::StdRng::seed_from_u64(cfg.update_seed);
        Ppo {
            policy,
            value,
            cfg,
            pi_opt,
            vf_opt,
            update_rng,
            pi_fused: fused::FusedScratch::new(),
            vf_fused: fused::FusedScratch::new(),
            mb: MiniBuf::default(),
        }
    }

    /// Forward the policy on a single observation via the inference fast
    /// path; returns the log-prob row (allocates — prefer
    /// [`Ppo::select_with`]/[`Ppo::greedy_with`] in loops).
    pub fn logp_row(&self, obs: &[f32], mask: &[f32]) -> Vec<f32> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        self.policy
            .log_probs_fast(obs, mask, &mut scratch, &mut out);
        out
    }

    /// Forward the policy through the full autodiff tape (the training
    /// graph). Kept for gradient work and as the benchmark baseline the
    /// fast path is measured against.
    pub fn logp_row_tape(&self, obs: &[f32], mask: &[f32]) -> Vec<f32> {
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input(Tensor::from_vec(obs.to_vec(), &[1, obs.len()]));
        let m = g.input(Tensor::from_vec(mask.to_vec(), &[1, mask.len()]));
        let lp = self.policy.log_probs(&mut g, o, m, &mut binds);
        g.value(lp).data().to_vec()
    }

    /// Forward the critic on a single observation (fast path).
    pub fn value_of(&self, obs: &[f32]) -> f64 {
        self.value.value_fast(obs, &mut Scratch::new())
    }

    /// Sample an action (training path). Returns `(action, logp, value)`.
    /// Allocates per call; rollout loops should hold an [`ActorScratch`]
    /// and use [`Ppo::select_with`].
    pub fn select<R: Rng + ?Sized>(
        &self,
        obs: &[f32],
        mask: &[f32],
        rng: &mut R,
    ) -> (usize, f32, f64) {
        self.select_with(obs, mask, &mut ActorScratch::new(), rng)
    }

    /// Sample an action through caller-owned scratch: zero allocation at
    /// steady state. Returns `(action, logp, value)`.
    pub fn select_with<R: Rng + ?Sized>(
        &self,
        obs: &[f32],
        mask: &[f32],
        scratch: &mut ActorScratch,
        rng: &mut R,
    ) -> (usize, f32, f64) {
        self.policy
            .log_probs_fast(obs, mask, &mut scratch.nn, &mut scratch.logp);
        let dist = MaskedCategorical::new(&scratch.logp);
        let a = dist.sample(rng);
        let logp = dist.log_prob(a);
        let v = self.value.value_fast(obs, &mut scratch.nn);
        (a, logp, v)
    }

    /// Deterministic argmax action (testing path, §IV-B1).
    pub fn greedy(&self, obs: &[f32], mask: &[f32]) -> usize {
        self.greedy_with(obs, mask, &mut ActorScratch::new())
    }

    /// Argmax action through caller-owned scratch (zero allocation at
    /// steady state) — the scheduling-decision hot path of Table IX.
    pub fn greedy_with(&self, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        self.policy
            .log_probs_fast(obs, mask, &mut scratch.nn, &mut scratch.logp);
        MaskedCategorical::new(&scratch.logp).argmax()
    }

    /// Argmax actions for a whole batch of observations through one
    /// batched forward: `obs` is `[rows, obs_dim]` row-major, `masks`
    /// `[rows, n_actions]`. Delegates to [`crate::vecenv::greedy_batch`]
    /// over the policy's [`crate::vecenv::BatchPolicy`] impl — the same
    /// scoring path the vectorized rollout sampler uses. Amortizes the
    /// policy's weight stream across concurrent decisions;
    /// allocation-free at steady state when the policy overrides
    /// [`PolicyModel::log_probs_fast_batch`] (the default falls back to a
    /// per-row loop with a temporary buffer).
    pub fn greedy_batch_with(
        &self,
        obs: &[f32],
        masks: &[f32],
        rows: usize,
        scratch: &mut ActorScratch,
        actions: &mut Vec<usize>,
    ) {
        crate::vecenv::greedy_batch(&self.policy, obs, masks, rows, scratch, actions);
    }

    /// Argmax action through the full tape (benchmark baseline).
    pub fn greedy_tape(&self, obs: &[f32], mask: &[f32]) -> usize {
        let logp = self.logp_row_tape(obs, mask);
        MaskedCategorical::new(&logp).argmax()
    }

    /// The `(actor, critic)` optimizers, read-only: their step counts and
    /// Adam moments are training state no checkpoint carries, so parity
    /// suites compare them here.
    pub fn optimizers(&self) -> (&Adam, &Adam) {
        (&self.pi_opt, &self.vf_opt)
    }

    /// The `(actor, critic)` fused-update scratch, read-only — the phase
    /// profiler reports its footprint.
    pub fn fused_scratch(&self) -> (&fused::FusedScratch, &fused::FusedScratch) {
        (&self.pi_fused, &self.vf_fused)
    }

    /// True when both networks expose fused-eligible architectures, so
    /// [`Ppo::update`] takes the tape-free fast path.
    pub fn fused_supported(&self) -> bool {
        self.policy.fused().is_some() && self.value.fused().is_some()
    }

    /// One PPO update over a collected batch.
    ///
    /// Runs the tape-free chunked forward+backward ([`rlsched_nn::fused`])
    /// when both networks support it — no graph nodes, no buffer-pool
    /// bookkeeping, zero heap allocation at steady state, and the same
    /// bits at any rayon worker budget — and otherwise (the LeNet CNN
    /// baseline) the reusable-[`Graph`] tape path. On minibatches of at
    /// most [`fused::SHARD_ROWS`] rows the two are bit-identical
    /// (gradients, Adam state, diagnostics, the minibatch RNG stream);
    /// on larger ones they agree to f32 tolerance (see
    /// [`rlsched_nn::fused`]'s contract; pinned by the fused-parity
    /// suites against [`Ppo::update_tape`]).
    pub fn update(&mut self, batch: &Batch) -> UpdateStats {
        self.update_profiled(batch, &mut UpdateProfile::default())
    }

    /// [`Ppo::update`] with wall-clock phase attribution (gather /
    /// forward / backward / optimizer) accumulated into `prof`.
    pub fn update_profiled(&mut self, batch: &Batch, prof: &mut UpdateProfile) -> UpdateStats {
        rlsched_obs::span!("ppo.update");
        if self.fused_supported() {
            self.fused_update(batch, prof)
        } else {
            self.update_tape_profiled(batch, prof)
        }
    }

    /// The tape path of [`Ppo::update`], pinned regardless of
    /// architecture support — the oracle the fused path is tested and
    /// benchmarked against.
    pub fn update_tape(&mut self, batch: &Batch) -> UpdateStats {
        self.update_tape_profiled(batch, &mut UpdateProfile::default())
    }

    /// [`Ppo::update_tape`] with phase attribution.
    ///
    /// One [`Graph`] arena serves every iteration: [`Graph::reset`]
    /// recycles all tape buffers between iterations, minibatch rows are
    /// gathered into reusable buffers, and gradients are moved (not
    /// cloned) out of the tape — at steady state the loop performs no
    /// per-iteration heap allocation beyond the op metadata.
    pub fn update_tape_profiled(&mut self, batch: &Batch, prof: &mut UpdateProfile) -> UpdateStats {
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let obs_dim = batch.obs.cols();
        let n_actions = batch.masks.cols();

        let mut pi_loss_before = 0.0;
        let mut pi_loss_after = 0.0;
        let mut entropy = 0.0;
        let mut approx_kl = 0.0;
        let mut pi_iters = 0;

        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let Ppo {
            policy,
            value,
            cfg,
            pi_opt,
            vf_opt,
            update_rng,
            mb,
            ..
        } = self;

        let eps = cfg.clip_ratio;
        for it in 0..cfg.train_pi_iters {
            let t0 = Instant::now();
            let view = iteration_view(cfg, update_rng, batch, mb);
            let n = view.actions.len();
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            g.reset();
            binds.clear();
            let o = g.input_from(view.obs, &[n, obs_dim]);
            let m = g.input_from(view.masks, &[n, n_actions]);
            let logp_all = policy.log_probs(&mut g, o, m, &mut binds);
            let logp = g.select_cols(logp_all, view.actions);

            // ratio = exp(logp − logp_old)
            let old = g.input_from(view.logp_old, &[n]);
            let diff = g.sub(logp, old);
            let ratio = g.exp(diff);
            let advv = g.input_from(view.advantages, &[n]);
            let surr1 = g.mul(ratio, advv);
            let clipped = g.clamp(ratio, 1.0 - eps, 1.0 + eps);
            let surr2 = g.mul(clipped, advv);
            let obj = g.min_elem(surr1, surr2);
            let mean_obj = g.mean(obj);
            let mut loss = g.scale(mean_obj, -1.0);

            if cfg.ent_coef != 0.0 {
                // entropy = −Σ p·logp per row; masked slots contribute 0.
                let p = g.exp(logp_all);
                let plogp = g.mul(p, logp_all);
                let row = g.sum_rows(plogp);
                let ent = g.mean(row); // = −entropy
                let weighted = g.scale(ent, cfg.ent_coef);
                loss = g.add(loss, weighted);
            }
            let t2 = Instant::now();
            prof.forward += t2 - t1;

            // Diagnostics before stepping.
            let kl: f64 = view
                .logp_old
                .iter()
                .zip(g.value(logp).data())
                .map(|(&o, &nw)| (o - nw) as f64)
                .sum::<f64>()
                / n as f64;
            approx_kl = kl;
            if it == 0 {
                pi_loss_before = g.value(loss).item();
                let lp = g.value(logp_all);
                entropy = mean_entropy(lp.data().chunks_exact(lp.cols()));
            }
            if kl > 1.5 * cfg.target_kl && it > 0 {
                break;
            }
            g.backward(loss);
            pi_loss_after = g.value(loss).item();
            let mut grads = binds.take_grads(&mut g);
            let t3 = Instant::now();
            prof.backward += t3 - t2;
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(&mut grads, mx);
            }
            pi_opt.step(&mut policy.params_mut(), &grads);
            prof.optimizer += t3.elapsed();
            pi_iters = it + 1;
        }

        let mut v_loss_before = 0.0;
        let mut v_loss_after = 0.0;
        for it in 0..cfg.train_v_iters {
            let t0 = Instant::now();
            let view = iteration_view(cfg, update_rng, batch, mb);
            let n = view.actions.len();
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            g.reset();
            binds.clear();
            let o = g.input_from(view.obs, &[n, obs_dim]);
            let v = value.values(&mut g, o, &mut binds);
            let r = g.input_from(view.returns, &[n, 1]);
            let d = g.sub(v, r);
            let sq = g.mul(d, d);
            let loss = g.mean(sq);
            let t2 = Instant::now();
            prof.forward += t2 - t1;
            if it == 0 {
                v_loss_before = g.value(loss).item();
            }
            g.backward(loss);
            v_loss_after = g.value(loss).item();
            let mut grads = binds.take_grads(&mut g);
            let t3 = Instant::now();
            prof.backward += t3 - t2;
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(&mut grads, mx);
            }
            vf_opt.step(&mut value.params_mut(), &grads);
            prof.optimizer += t3.elapsed();
        }

        UpdateStats {
            pi_loss_before,
            pi_loss_after,
            v_loss_before,
            v_loss_after,
            approx_kl,
            entropy,
            pi_iters,
        }
    }

    /// The fused path of [`Ppo::update_profiled`]. Every iteration is one
    /// sweep over fixed [`fused::SHARD_ROWS`]-row chunks on the rayon
    /// shim's workers: a chunk's forward runs the same SIMD kernels as the
    /// tape, stashing only the per-layer activations the analytic backward
    /// needs in a per-worker scratch, and its fused dlogits pass and layer
    /// walk follow at once; the optimizer then steps the network's layers
    /// in place. Zero heap allocation at steady state on the one-worker
    /// budget (pinned by `alloc_regression`). Gather, clipping, Adam steps
    /// and the minibatch RNG stream are shared with the tape path
    /// unchanged.
    ///
    /// The approximate-KL early stop reads the sweep's selected log-probs,
    /// so the iteration that trips it has already computed its gradients:
    /// they are discarded, nothing is stepped and `pi_loss_after` keeps
    /// the last *applied* iteration's loss, exactly as on the tape — an
    /// early stop costs one wasted chunked backward per update.
    fn fused_update(&mut self, batch: &Batch, prof: &mut UpdateProfile) -> UpdateStats {
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let n_actions = batch.masks.cols();

        let mut pi_loss_before = 0.0;
        let mut pi_loss_after = 0.0;
        let mut entropy = 0.0;
        let mut approx_kl = 0.0;
        let mut pi_iters = 0;

        let Ppo {
            policy,
            value,
            cfg,
            pi_opt,
            vf_opt,
            update_rng,
            pi_fused,
            vf_fused,
            mb,
            ..
        } = self;

        for it in 0..cfg.train_pi_iters {
            let t0 = Instant::now();
            let view = iteration_view(cfg, update_rng, batch, mb);
            let n = view.actions.len();
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let fp = policy.fused().expect("fused_supported checked");
            let pass = fused::policy_pass(
                &fp,
                view.obs,
                view.masks,
                view.actions,
                view.advantages,
                view.logp_old,
                cfg.clip_ratio,
                cfg.ent_coef,
                n,
                pi_fused,
            );
            prof.forward += pass.forward;
            prof.backward += pass.backward;

            let kl: f64 = view
                .logp_old
                .iter()
                .zip(pi_fused.selected_logp())
                .map(|(&o, nw)| (o - nw) as f64)
                .sum::<f64>()
                / n as f64;
            approx_kl = kl;
            if it == 0 {
                pi_loss_before = pass.loss;
                let rows = pi_fused.logp_all();
                entropy = mean_entropy(rows.flat_map(|b| b.chunks_exact(n_actions)));
            }
            if kl > 1.5 * cfg.target_kl && it > 0 {
                break; // this iteration's gradients are dropped unapplied
            }
            pi_loss_after = pass.loss;
            let t3 = Instant::now();
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(pi_fused.grads_mut(), mx);
            }
            let mlp = policy.fused_mut().expect("fused_mut must pair with fused");
            pi_opt.step_params(
                mlp.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b]),
                pi_fused.grads(),
            );
            prof.optimizer += t3.elapsed();
            pi_iters = it + 1;
        }

        let mut v_loss_before = 0.0;
        let mut v_loss_after = 0.0;
        for it in 0..cfg.train_v_iters {
            let t0 = Instant::now();
            let view = iteration_view(cfg, update_rng, batch, mb);
            let n = view.actions.len();
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let vm = value.fused().expect("fused_supported checked");
            let pass = fused::value_pass(vm, view.obs, view.returns, n, vf_fused);
            prof.forward += pass.forward;
            prof.backward += pass.backward;
            if it == 0 {
                v_loss_before = pass.loss;
            }
            v_loss_after = pass.loss;
            let t3 = Instant::now();
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(vf_fused.grads_mut(), mx);
            }
            let mlp = value.fused_mut().expect("fused_mut must pair with fused");
            vf_opt.step_params(
                mlp.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b]),
                vf_fused.grads(),
            );
            prof.optimizer += t3.elapsed();
        }

        UpdateStats {
            pi_loss_before,
            pi_loss_after,
            v_loss_before,
            v_loss_after,
            approx_kl,
            entropy,
            pi_iters,
        }
    }
}

/// Pick the working set for one update iteration: borrowed slices of
/// the whole batch, or a random minibatch refilled into `mb`'s
/// reusable buffers when configured and the batch is larger. Free
/// function so both update arms share it (and the RNG stream) without
/// borrowing the whole trainer.
fn iteration_view<'a>(
    cfg: &PpoConfig,
    rng: &mut rand::rngs::StdRng,
    batch: &'a Batch,
    mb: &'a mut MiniBuf,
) -> ViewRef<'a> {
    let n = batch.len();
    match cfg.minibatch {
        Some(size) if size < n => {
            mb.fill(batch, size, |hi| rng.gen_range(0..hi));
            ViewRef {
                obs: &mb.obs,
                masks: &mb.masks,
                actions: &mb.actions,
                advantages: &mb.advantages,
                returns: &mb.returns,
                logp_old: &mb.logp_old,
            }
        }
        _ => ViewRef {
            obs: batch.obs.data(),
            masks: batch.masks.data(),
            actions: &batch.actions,
            advantages: &batch.advantages,
            returns: &batch.returns,
            logp_old: &batch.logp_old,
        },
    }
}

/// Borrowed view of one update iteration's working set.
struct ViewRef<'a> {
    obs: &'a [f32],
    masks: &'a [f32],
    actions: &'a [usize],
    advantages: &'a [f32],
    returns: &'a [f32],
    logp_old: &'a [f32],
}

/// Reusable minibatch gather buffers (filled once per iteration, never
/// reallocated at steady state).
#[derive(Default)]
struct MiniBuf {
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
    logp_old: Vec<f32>,
}

impl MiniBuf {
    /// Gather `size` random rows of `batch` (with replacement, drawn via
    /// `draw(n)`) into the buffers.
    fn fill(&mut self, batch: &Batch, size: usize, mut draw: impl FnMut(usize) -> usize) {
        let obs_dim = batch.obs.cols();
        let n_actions = batch.masks.cols();
        let n = batch.len();
        self.obs.clear();
        self.masks.clear();
        self.actions.clear();
        self.advantages.clear();
        self.returns.clear();
        self.logp_old.clear();
        for _ in 0..size {
            let i = draw(n);
            self.obs
                .extend_from_slice(&batch.obs.data()[i * obs_dim..(i + 1) * obs_dim]);
            self.masks
                .extend_from_slice(&batch.masks.data()[i * n_actions..(i + 1) * n_actions]);
            self.actions.push(batch.actions[i]);
            self.advantages.push(batch.advantages[i]);
            self.returns.push(batch.returns[i]);
            self.logp_old.push(batch.logp_old[i]);
        }
    }
}

/// Mean entropy over the rows of a log-prob matrix (shared by both
/// update arms' diagnostics).
fn mean_entropy<'a>(rows: impl Iterator<Item = &'a [f32]>) -> f32 {
    let mut total = 0.0;
    let mut m = 0;
    for row in rows {
        total += MaskedCategorical::new(row).entropy();
        m += 1;
    }
    total / m as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::RolloutBuffer;
    use crate::categorical::MASK_OFF;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlsched_nn::{Activation, Mlp, Network};

    /// A plain MLP policy over flat observations (the "MLP v2" baseline of
    /// Table IV in miniature).
    struct MlpPolicy {
        net: Mlp,
    }

    impl MlpPolicy {
        fn new(obs_dim: usize, n_actions: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            MlpPolicy {
                net: Mlp::new(
                    &[obs_dim, 16, n_actions],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                ),
            }
        }
    }

    impl PolicyModel for MlpPolicy {
        fn log_probs(&self, g: &mut Graph, obs: Var, mask: Var, binds: &mut ParamBinds) -> Var {
            let logits = self.net.forward(g, obs, binds);
            let masked = g.add(logits, mask);
            g.log_softmax(masked)
        }
        fn params(&self) -> Vec<&Tensor> {
            self.net.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.net.params_mut()
        }
    }

    struct MlpValue {
        net: Mlp,
    }

    impl MlpValue {
        fn new(obs_dim: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            MlpValue {
                net: Mlp::new(
                    &[obs_dim, 16, 1],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                ),
            }
        }
    }

    impl ValueModel for MlpValue {
        fn values(&self, g: &mut Graph, obs: Var, binds: &mut ParamBinds) -> Var {
            self.net.forward(g, obs, binds)
        }
        fn params(&self) -> Vec<&Tensor> {
            self.net.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.net.params_mut()
        }
    }

    fn agent(n_actions: usize) -> Ppo<MlpPolicy, MlpValue> {
        let cfg = PpoConfig {
            train_pi_iters: 20,
            train_v_iters: 20,
            ..PpoConfig::default()
        };
        Ppo::new(MlpPolicy::new(2, n_actions, 1), MlpValue::new(2, 2), cfg)
    }

    #[test]
    fn logp_rows_are_normalized_and_masked() {
        let ppo = agent(4);
        let mask = vec![0.0, MASK_OFF, 0.0, 0.0];
        let logp = ppo.logp_row(&[0.5, 1.0], &mask);
        let sum: f32 = logp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(logp[1] < -1e8, "masked slot has ~zero probability");
    }

    #[test]
    fn select_never_picks_masked() {
        let ppo = agent(4);
        let mask = vec![MASK_OFF, 0.0, MASK_OFF, 0.0];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let (a, logp, _v) = ppo.select(&[0.1, 0.2], &mask, &mut rng);
            assert!(a == 1 || a == 3);
            assert!(logp.is_finite());
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let ppo = agent(4);
        let mask = vec![0.0; 4];
        let a = ppo.greedy(&[0.3, -0.2], &mask);
        for _ in 0..10 {
            assert_eq!(ppo.greedy(&[0.3, -0.2], &mask), a);
        }
    }

    /// The contextual-bandit learning test: rewards favor action
    /// `n_actions-1`; after a few updates the policy should, too.
    #[test]
    fn ppo_learns_a_bandit() {
        use crate::env::test_env::BanditEnv;
        use crate::env::Env;
        let n_actions = 4;
        let mut ppo = agent(n_actions);
        let mut env = BanditEnv::new(n_actions, 8, vec![]);
        let mut rng = StdRng::seed_from_u64(3);

        let mut last_mean = 0.0;
        for _epoch in 0..30 {
            let mut buf = RolloutBuffer::new(2, n_actions, ppo.cfg.gamma, ppo.cfg.lam);
            let mut metrics = Vec::new();
            let (mut obs, mut mask) = (Vec::new(), Vec::new());
            let (mut next_obs, mut next_mask) = (Vec::new(), Vec::new());
            for ep in 0..8 {
                // Manual single-env driving: clear the append-contract
                // buffers before each env write.
                obs.clear();
                mask.clear();
                env.reset(ep, &mut obs, &mut mask);
                loop {
                    let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
                    next_obs.clear();
                    next_mask.clear();
                    let out = env.step(a, &mut next_obs, &mut next_mask);
                    buf.store(&obs, &mask, a, out.reward, v, logp);
                    if out.done {
                        buf.finish_path(0.0);
                        metrics.push(out.episode_metric.unwrap());
                        break;
                    }
                    std::mem::swap(&mut obs, &mut next_obs);
                    std::mem::swap(&mut mask, &mut next_mask);
                }
            }
            last_mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
            let batch = RolloutBuffer::into_batch(vec![buf]);
            ppo.update(&batch);
        }
        // Max achievable per episode is 8 * 3/4 = 6; random is ~3.
        assert!(last_mean > 4.5, "bandit mean reward {last_mean}");
        // And greedy should pick the best arm.
        let a = ppo.greedy(&[0.0, 1.0], &vec![0.0; n_actions]);
        assert_eq!(a, n_actions - 1, "greedy should pick the best arm");
    }

    #[test]
    fn update_reports_sane_stats() {
        let mut ppo = agent(3);
        let mut buf = RolloutBuffer::new(2, 3, 1.0, 0.97);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..32 {
            let obs = [i as f32 / 32.0, 0.5];
            let mask = vec![0.0, 0.0, 0.0];
            let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
            let r = if i % 8 == 7 { -(i as f64) } else { 0.0 };
            buf.store(&obs, &mask, a, r, v, logp);
            if i % 8 == 7 {
                buf.finish_path(0.0);
            }
        }
        let batch = RolloutBuffer::into_batch(vec![buf]);
        let stats = ppo.update(&batch);
        assert!(stats.pi_iters >= 1);
        assert!(stats.entropy > 0.0 && stats.entropy <= (3.0f32).ln() + 1e-4);
        assert!(
            stats.v_loss_after <= stats.v_loss_before,
            "value net must improve on its batch"
        );
        assert!(stats.approx_kl.is_finite());
    }

    #[test]
    fn value_function_fits_constant_returns() {
        let cfg = PpoConfig {
            train_pi_iters: 5,
            train_v_iters: 40,
            vf_lr: 0.05,
            ..PpoConfig::default()
        };
        let mut ppo = Ppo::new(MlpPolicy::new(2, 3, 1), MlpValue::new(2, 2), cfg);
        let mut buf = RolloutBuffer::new(2, 3, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..16 {
            let obs = [0.5, 0.5];
            let (a, logp, v) = ppo.select(&obs, &[0.0, 0.0, 0.0], &mut rng);
            buf.store(&obs, &[0.0, 0.0, 0.0], a, -7.0, v, logp);
            buf.finish_path(0.0);
        }
        let batch = RolloutBuffer::into_batch(vec![buf]);
        for _ in 0..5 {
            ppo.update(&batch);
        }
        let v = ppo.value_of(&[0.5, 0.5]);
        assert!((v + 7.0).abs() < 1.5, "value {v} should approach -7");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn update_rejects_empty_batch() {
        let mut ppo = agent(3);
        let batch = Batch {
            obs: Tensor::zeros(&[0, 2]),
            masks: Tensor::zeros(&[0, 3]),
            actions: vec![],
            advantages: vec![],
            returns: vec![],
            logp_old: vec![],
        };
        ppo.update(&batch);
    }
}
