//! Proximal Policy Optimization with the clipped surrogate objective —
//! the algorithm of Schulman et al. \[30\] as packaged by OpenAI Spinning Up,
//! which the paper builds RLScheduler on (§V-A).
//!
//! One [`Ppo`] owns an actor (a [`FusedPolicy`]: any Table IV
//! architecture) and a critic (a plain [`Mlp`] over the flat
//! observation) with separate Adam optimizers. The actor decides through
//! [`infer::log_probs`] and trains through [`fused::policy_pass`], so what
//! decides is what trains; the critic runs
//! [`infer::window_mlp_forward`] in rollouts and [`fused::value_pass`] in
//! the update. Per §V-A, each epoch runs up to 80 policy-gradient
//! iterations (early-stopped on approximate KL) and 80 value iterations at
//! learning rate 1e-3.

use std::time::{Duration, Instant};

use rand::Rng;

use rlsched_nn::fused::{self, FusedPolicy};
use rlsched_nn::{clip_global_norm, infer, Adam, Mlp, Scratch};

use crate::buffer::Batch;
use crate::categorical::MaskedCategorical;

/// Per-worker reusable buffers for the inference fast path: network
/// scratch plus the log-prob row and the critic's value. One per rollout
/// worker; reused across every step of every episode.
#[derive(Debug, Default)]
pub struct ActorScratch {
    /// Layer scratch for the underlying networks.
    pub nn: Scratch,
    pub(crate) logp: Vec<f32>,
    value: Vec<f32>,
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
/// backward/gradient work, and the optimizer step — plus how many rows the
/// policy passes scored. Filled by [`Ppo::update_profiled`].
///
/// The fused pass interleaves forward and backward chunk by chunk, so it
/// times the two halves inside every chunk and splits each pass's wall
/// time in the ratio of the summed halves ([`fused::FusedPass`]): the
/// phases still sum to the update's wall time at any worker count.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateProfile {
    /// Minibatch draw: the row index and the per-row scalars (actions,
    /// advantages, returns, old log-probs) staged for it. The job rows
    /// are copied by each chunk and timed in `forward`.
    pub gather: Duration,
    /// Actor/critic forward passes: the forward share of every chunked
    /// pass, each chunk's copy of its rows included.
    pub forward: Duration,
    /// Loss tail + backward gradient computation: the backward share of
    /// every chunked pass, sizing and gradient merge included.
    pub backward: Duration,
    /// Gradient clipping + Adam step.
    pub optimizer: Duration,
    /// The critic's part of `forward`: its passes' forward shares.
    pub critic_forward: Duration,
    /// The critic's part of `backward`: its passes' backward shares.
    pub critic_backward: Duration,
    /// Rows the policy passes' dense chains scored ([`fused::FusedPass::rows`]):
    /// for the kernel network, the windows' job rows plus one zero row
    /// per chunk.
    pub policy_rows: u64,
    /// Rows those passes would have scored over whole windows
    /// ([`fused::FusedPass::window_rows`]).
    pub policy_window_rows: u64,
}

impl UpdateProfile {
    /// Total attributed time.
    pub fn total(&self) -> Duration {
        self.gather + self.forward + self.backward + self.optimizer
    }
}

/// The PPO agent: actor, critic, optimizers, config.
pub struct Ppo {
    /// The actor network.
    pub policy: FusedPolicy,
    /// The critic network (Fig 6): one state value per observation.
    pub value: Mlp,
    /// Hyperparameters.
    pub cfg: PpoConfig,
    pi_opt: Adam,
    vf_opt: Adam,
    update_rng: rand::rngs::StdRng,
    /// Fused-update scratch for the actor (persists across updates so
    /// the update allocates nothing at steady state).
    pi_fused: fused::FusedScratch,
    /// Fused-update scratch for the critic.
    vf_fused: fused::FusedScratch,
    /// Reusable minibatch index and per-row scalars.
    mb: MiniBuf,
}

impl Ppo {
    /// Assemble an agent.
    pub fn new(policy: FusedPolicy, value: Mlp, cfg: PpoConfig) -> Self {
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
        let mut out = Vec::new();
        infer::log_probs(&self.policy, obs, mask, 1, &mut Scratch::new(), &mut out);
        out
    }

    /// Forward the critic on a single observation (fast path).
    pub fn value_of(&self, obs: &[f32]) -> f64 {
        self.value_with(obs, &mut ActorScratch::new())
    }

    /// The critic's value of one observation window through caller-owned
    /// scratch: [`infer::window_mlp_forward`] over job rows of
    /// `obs_dim / n_actions` features (the window contract), the forward
    /// the rollout's batched critic runs.
    fn value_with(&self, obs: &[f32], scratch: &mut ActorScratch) -> f64 {
        let (od, na) = self.policy.widths();
        let ActorScratch { nn, value, .. } = scratch;
        infer::window_mlp_forward(&self.value, obs, 1, od / na, nn, value);
        f64::from(value[0])
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
        infer::log_probs(
            &self.policy,
            obs,
            mask,
            1,
            &mut scratch.nn,
            &mut scratch.logp,
        );
        let dist = MaskedCategorical::new(&scratch.logp);
        let a = dist.sample(rng);
        let logp = dist.log_prob(a);
        let v = self.value_with(obs, scratch);
        (a, logp, v)
    }

    /// Deterministic argmax action (testing path, §IV-B1) through
    /// caller-owned scratch (zero allocation at steady state) — the
    /// scheduling-decision hot path of Table IX.
    pub fn greedy_with(&self, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        infer::log_probs(
            &self.policy,
            obs,
            mask,
            1,
            &mut scratch.nn,
            &mut scratch.logp,
        );
        MaskedCategorical::new(&scratch.logp).argmax()
    }

    /// The `(actor, critic)` optimizers, read-only: their step counts and
    /// Adam moments are training state no checkpoint carries, so parity
    /// suites compare them here.
    pub fn optimizers(&self) -> (&Adam, &Adam) {
        (&self.pi_opt, &self.vf_opt)
    }

    /// One PPO update over a collected batch: up to `train_pi_iters`
    /// policy iterations (early-stopped on approximate KL) and
    /// `train_v_iters` value iterations, each one chunked forward+backward
    /// sweep ([`rlsched_nn::fused`]) and an in-place Adam step.
    ///
    /// Every Table IV policy trains on this one path. It has no graph
    /// nodes, allocates nothing at steady state, and gives the same bits
    /// at any `rlsched_nn::pool` worker budget. On minibatches of at most
    /// [`fused::SHARD_ROWS`] rows it reproduces the reference tape's
    /// update bit for bit (gradients, Adam state, diagnostics, the
    /// minibatch RNG stream); on larger ones it agrees to f32 tolerance
    /// (see [`rlsched_nn::fused`]'s contract, pinned by `rlscheduler`'s
    /// update-parity suite).
    pub fn update(&mut self, batch: &Batch) -> UpdateStats {
        self.update_profiled(batch, &mut UpdateProfile::default())
    }

    /// [`Ppo::update`] with wall-clock phase attribution (gather /
    /// forward / backward / optimizer) accumulated into `prof`.
    ///
    /// Every iteration draws a row index (the whole batch in order, or a
    /// random minibatch) and runs one sweep over fixed
    /// [`fused::SHARD_ROWS`]-row chunks of it on the `rlsched_nn::pool`
    /// workers: a chunk copies its rows out of the batch into a
    /// per-worker scratch (rebuilding each window's padding and mask
    /// there), its forward stashes only the activations the analytic
    /// backward needs there, and its fused dlogits pass and layer walk
    /// follow at once; the optimizer then steps the network's layers
    /// in place. Zero heap allocation at steady state on the one-worker
    /// budget (pinned by `alloc_regression`).
    ///
    /// The approximate-KL early stop reads the sweep's selected log-probs,
    /// so the iteration that trips it has already computed its gradients:
    /// they are discarded, nothing is stepped and `pi_loss_after` keeps
    /// the last *applied* iteration's loss — an early stop costs one
    /// wasted chunked backward per update.
    pub fn update_profiled(&mut self, batch: &Batch, prof: &mut UpdateProfile) -> UpdateStats {
        rlsched_obs::span!("ppo.update");
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let n_actions = batch.n_actions();
        let window = (batch.features() * n_actions, n_actions);
        assert_eq!(
            self.policy.widths(),
            window,
            "the policy's (inputs, actions) do not fit the batch's windows"
        );

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
            let n = view.index.len();
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let pass = fused::policy_pass(
                policy,
                |i| batch.row(i),
                view.index,
                view.actions,
                view.advantages,
                view.logp_old,
                cfg.clip_ratio,
                cfg.ent_coef,
                pi_fused,
            );
            prof.forward += pass.forward;
            prof.backward += pass.backward;
            prof.policy_rows += pass.rows as u64;
            prof.policy_window_rows += pass.window_rows as u64;

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
            pi_opt.step_params(policy.params_mut(), pi_fused.grads());
            prof.optimizer += t3.elapsed();
            pi_iters = it + 1;
        }

        let mut v_loss_before = 0.0;
        let mut v_loss_after = 0.0;
        for it in 0..cfg.train_v_iters {
            let t0 = Instant::now();
            let view = iteration_view(cfg, update_rng, batch, mb);
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let pass =
                fused::value_pass(value, |i| batch.row(i), view.index, view.returns, vf_fused);
            prof.forward += pass.forward;
            prof.backward += pass.backward;
            prof.critic_forward += pass.forward;
            prof.critic_backward += pass.backward;
            if it == 0 {
                v_loss_before = pass.loss;
            }
            v_loss_after = pass.loss;
            let t3 = Instant::now();
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(vf_fused.grads_mut(), mx);
            }
            vf_opt.step_params(
                value.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b]),
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

/// Pick the working set for one update iteration: the whole batch in
/// order (an identity index over its own per-row vectors), or a random
/// minibatch whose index and per-row scalars are refilled into `mb`'s
/// reusable buffers when configured and the batch is larger. Either way
/// the job rows stay in the batch; the fused pass reads them through the
/// index. Free function so the policy and value loops share it (and the
/// RNG stream) without borrowing the whole trainer.
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
                index: &mb.index,
                actions: &mb.actions,
                advantages: &mb.advantages,
                returns: &mb.returns,
                logp_old: &mb.logp_old,
            }
        }
        _ => {
            // `Batch` holds at most `u32::MAX` rows.
            mb.index.clear();
            mb.index.extend(0..n as u32);
            ViewRef {
                index: &mb.index,
                actions: &batch.actions,
                advantages: &batch.advantages,
                returns: &batch.returns,
                logp_old: &batch.logp_old,
            }
        }
    }
}

/// Borrowed view of one update iteration's working set: the batch rows
/// it reads, and their per-row scalars in the same order.
struct ViewRef<'a> {
    index: &'a [u32],
    actions: &'a [usize],
    advantages: &'a [f32],
    returns: &'a [f32],
    logp_old: &'a [f32],
}

/// Reusable minibatch buffers: the drawn row index and its per-row
/// scalars (filled once per iteration, never reallocated at steady
/// state).
#[derive(Default)]
struct MiniBuf {
    index: Vec<u32>,
    actions: Vec<usize>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
    logp_old: Vec<f32>,
}

impl MiniBuf {
    /// Draw `size` random rows of `batch` (with replacement, via
    /// `draw(n)`) into the index and stage their per-row scalars.
    fn fill(&mut self, batch: &Batch, size: usize, mut draw: impl FnMut(usize) -> usize) {
        let n = batch.len();
        self.index.clear();
        self.actions.clear();
        self.advantages.clear();
        self.returns.clear();
        self.logp_old.clear();
        for _ in 0..size {
            let i = draw(n);
            self.index.push(i as u32);
            self.actions.push(batch.actions[i]);
            self.advantages.push(batch.advantages[i]);
            self.returns.push(batch.returns[i]);
            self.logp_old.push(batch.logp_old[i]);
        }
    }
}

/// Mean entropy over the rows of a log-prob matrix (the first policy
/// iteration's diagnostic).
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
    use crate::buffer::ArrivalArena;
    use crate::categorical::MASK_OFF;
    use crate::env::test_env::FEATURES;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlsched_nn::fused::FusedHead;
    use rlsched_nn::Activation;

    /// A `[in, 16, out]` tanh MLP.
    fn mlp(dims_in: usize, out: usize, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            &[dims_in, 16, out],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
    }

    /// A flat-head policy over `mlp` (the "MLP v2" baseline of Table IV
    /// in miniature).
    fn flat(mlp: Mlp) -> FusedPolicy {
        FusedPolicy {
            convs: vec![],
            mlp,
            head: FusedHead::Flat,
        }
    }

    /// An actor and critic over `n_actions` slots of [`FEATURES`]
    /// features.
    fn agent(n_actions: usize) -> Ppo {
        let cfg = PpoConfig {
            train_pi_iters: 20,
            train_v_iters: 20,
            ..PpoConfig::default()
        };
        let od = n_actions * FEATURES;
        Ppo::new(flat(mlp(od, n_actions, 1)), mlp(od, 1, 2), cfg)
    }

    /// A window of `n_actions` valid slots, every slot holding `x`.
    fn full_window(x: [f32; FEATURES], n_actions: usize) -> Vec<f32> {
        x.repeat(n_actions)
    }

    #[test]
    fn logp_rows_are_normalized_and_masked() {
        let ppo = agent(4);
        let mask = vec![0.0, MASK_OFF, 0.0, 0.0];
        let logp = ppo.logp_row(&full_window([0.5, 1.0], 4), &mask);
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
            let (a, logp, _v) = ppo.select(&full_window([0.1, 0.2], 4), &mask, &mut rng);
            assert!(a == 1 || a == 3);
            assert!(logp.is_finite());
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let ppo = agent(4);
        let (obs, mask) = (full_window([0.3, -0.2], 4), vec![0.0; 4]);
        let mut scratch = ActorScratch::new();
        let a = ppo.greedy_with(&obs, &mask, &mut scratch);
        for _ in 0..10 {
            assert_eq!(ppo.greedy_with(&obs, &mask, &mut ActorScratch::new()), a);
            assert_eq!(ppo.greedy_with(&obs, &mask, &mut scratch), a);
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
        let mut env = BanditEnv::new(n_actions, 8, 0);
        let mut rng = StdRng::seed_from_u64(3);

        let mut last_mean = 0.0;
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        for _epoch in 0..30 {
            let od = env.obs_dim();
            let mut buf = ArrivalArena::new(od, n_actions, ppo.cfg.gamma, ppo.cfg.lam, 8);
            let mut metrics = Vec::new();
            let (mut next_obs, mut next_mask) = (Vec::new(), Vec::new());
            for ep in 0..8 {
                // Manual single-env driving: clear the append-contract
                // buffers before each env write.
                obs.clear();
                mask.clear();
                env.reset(ep as u64, &mut obs, &mut mask);
                loop {
                    let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
                    next_obs.clear();
                    next_mask.clear();
                    let out = env.step(a, &mut next_obs, &mut next_mask);
                    buf.store(ep, &obs, &mask, a, out.reward, v, logp);
                    if out.done {
                        buf.finish_episode(ep, 0.0);
                        metrics.push(out.episode_metric.unwrap());
                        break;
                    }
                    std::mem::swap(&mut obs, &mut next_obs);
                    std::mem::swap(&mut mask, &mut next_mask);
                }
            }
            last_mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
            ppo.update(&buf.into_batch());
        }
        // Max achievable per episode is 8 * 3/4 = 6; random is ~3.
        assert!(last_mean > 4.5, "bandit mean reward {last_mean}");
        // And greedy should pick the best arm.
        obs.clear();
        mask.clear();
        env.reset(0, &mut obs, &mut mask);
        let a = ppo.greedy_with(&obs, &mask, &mut ActorScratch::new());
        assert_eq!(a, n_actions - 1, "greedy should pick the best arm");
    }

    #[test]
    fn update_reports_sane_stats() {
        let mut ppo = agent(3);
        let mut buf = ArrivalArena::new(3 * FEATURES, 3, 1.0, 0.97, 4);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..32 {
            let obs = full_window([i as f32 / 32.0, 0.5], 3);
            let mask = vec![0.0, 0.0, 0.0];
            let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
            let r = if i % 8 == 7 { -(i as f64) } else { 0.0 };
            buf.store(i / 8, &obs, &mask, a, r, v, logp);
            if i % 8 == 7 {
                buf.finish_episode(i / 8, 0.0);
            }
        }
        let stats = ppo.update(&buf.into_batch());
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
        let od = 3 * FEATURES;
        let mut ppo = Ppo::new(flat(mlp(od, 3, 1)), mlp(od, 1, 2), cfg);
        let mut buf = ArrivalArena::new(od, 3, 1.0, 1.0, 16);
        let mut rng = StdRng::seed_from_u64(11);
        let obs = full_window([0.5, 0.5], 3);
        for ep in 0..16 {
            let (a, logp, v) = ppo.select(&obs, &[0.0, 0.0, 0.0], &mut rng);
            buf.store(ep, &obs, &[0.0, 0.0, 0.0], a, -7.0, v, logp);
            buf.finish_episode(ep, 0.0);
        }
        let batch = buf.into_batch();
        for _ in 0..5 {
            ppo.update(&batch);
        }
        let v = ppo.value_of(&obs);
        assert!((v + 7.0).abs() < 1.5, "value {v} should approach -7");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn update_rejects_empty_batch() {
        let mut ppo = agent(3);
        ppo.update(&Batch::default());
    }
}
