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
/// scratch, the log-prob rows and [`greedy_batch`]'s actions. One per
/// rollout worker or decision head; reused across every step of every
/// episode.
#[derive(Debug, Default)]
pub struct ActorScratch {
    /// Layer scratch for the underlying networks.
    pub nn: Scratch,
    pub(crate) logp: Vec<f32>,
    actions: Vec<usize>,
}

impl ActorScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently computed log-prob rows (`[rows, n_actions]`).
    pub fn logp(&self) -> &[f32] {
        &self.logp
    }
}

/// The greedy decision (§IV-B1's test path): each stacked row's masked
/// argmax through one [`infer::log_probs`] forward of `policy`, clamped
/// below that row's `queue_lens` entry. Every argmax decision runs it:
/// the in-process head, a serving shard's coalesced batch and the
/// checkpoint canary. Row `i`'s action is the one a forward of row `i`
/// alone picks. The mask already confines the argmax to valid slots;
/// the clamp makes sure no action ever names a job past the queue.
///
/// The actions live in `scratch`, whose [`ActorScratch::logp`] then
/// holds the rows' log-probs. Allocation-free at steady state.
pub fn greedy_batch<'s>(
    policy: &FusedPolicy,
    obs: &[f32],
    masks: &[f32],
    queue_lens: &[usize],
    scratch: &'s mut ActorScratch,
) -> &'s [usize] {
    let rows = queue_lens.len();
    assert!(rows > 0, "batched selection needs at least one row");
    assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
    assert_eq!(masks.len() % rows, 0, "mask volume must divide into rows");
    let n_actions = masks.len() / rows;
    infer::log_probs(policy, obs, masks, rows, &mut scratch.nn, &mut scratch.logp);
    scratch.actions.clear();
    scratch
        .actions
        .extend(
            scratch
                .logp
                .chunks(n_actions)
                .zip(queue_lens)
                .map(|(row, &queue_len)| {
                    MaskedCategorical::new(row)
                        .argmax()
                        .min(queue_len.saturating_sub(1))
                }),
        );
    &scratch.actions
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
    use crate::categorical::MASK_OFF;
    use crate::env::test_env::{BanditEnv, FEATURES};
    use crate::env::{Env, StepOutcome};
    use crate::sampler::collect_rollouts_vec;
    use crate::vecenv::VecEnv;
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

    /// One window's greedy action, its queue as long as the window.
    fn greedy(ppo: &Ppo, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        greedy_batch(&ppo.policy, obs, mask, &[mask.len()], scratch)[0]
    }

    #[test]
    fn logp_rows_are_normalized_and_masked() {
        let ppo = agent(4);
        let mask = vec![0.0, MASK_OFF, 0.0, 0.0];
        let mut logp = Vec::new();
        let obs = full_window([0.5, 1.0], 4);
        infer::log_probs(&ppo.policy, &obs, &mask, 1, &mut Scratch::new(), &mut logp);
        let sum: f32 = logp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(logp[1] < -1e8, "masked slot has ~zero probability");
    }

    #[test]
    fn greedy_is_deterministic() {
        let ppo = agent(4);
        let (obs, mask) = (full_window([0.3, -0.2], 4), vec![0.0; 4]);
        let mut scratch = ActorScratch::new();
        let a = greedy(&ppo, &obs, &mask, &mut scratch);
        for _ in 0..10 {
            assert_eq!(greedy(&ppo, &obs, &mask, &mut ActorScratch::new()), a);
            assert_eq!(greedy(&ppo, &obs, &mask, &mut scratch), a);
        }
    }

    /// `n` bandits of `n_actions` arms and `steps`-step episodes, stepped
    /// in lockstep by the sampler.
    fn bandits(n: usize, n_actions: usize, steps: usize) -> VecEnv<BanditEnv> {
        VecEnv::new(
            (0..n)
                .map(|_| BanditEnv::new(n_actions, steps, 0))
                .collect(),
        )
    }

    /// The contextual-bandit learning test: rewards favor action
    /// `n_actions-1`; after a few updates the policy should, too.
    #[test]
    fn ppo_learns_a_bandit() {
        let n_actions = 4;
        let mut ppo = agent(n_actions);

        let mut last_mean = 0.0;
        for epoch in 0..30u64 {
            let seeds: Vec<u64> = (epoch * 8..epoch * 8 + 8).collect();
            let (batch, stats) = collect_rollouts_vec(&ppo, &mut bandits(8, n_actions, 8), &seeds);
            last_mean = stats.mean_metric();
            ppo.update(&batch);
        }
        // Max achievable per episode is 8 * 3/4 = 6; random is ~3.
        assert!(last_mean > 4.5, "bandit mean reward {last_mean}");
        // And greedy should pick the best arm.
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        BanditEnv::new(n_actions, 8, 0).reset(0, &mut obs, &mut mask);
        let a = greedy(&ppo, &obs, &mask, &mut ActorScratch::new());
        assert_eq!(a, n_actions - 1, "greedy should pick the best arm");
    }

    #[test]
    fn update_reports_sane_stats() {
        let mut ppo = agent(3);
        let seeds: Vec<u64> = (0..4).collect();
        let (batch, _) = collect_rollouts_vec(&ppo, &mut bandits(4, 3, 8), &seeds);
        let stats = ppo.update(&batch);
        assert!(stats.pi_iters >= 1);
        assert!(stats.entropy > 0.0 && stats.entropy <= (3.0f32).ln() + 1e-4);
        assert!(
            stats.v_loss_after <= stats.v_loss_before,
            "value net must improve on its batch"
        );
        assert!(stats.approx_kl.is_finite());
    }

    /// One-step bandit episodes that all return -7.
    struct ConstantReturn(BanditEnv);

    impl Env for ConstantReturn {
        fn obs_dim(&self) -> usize {
            self.0.obs_dim()
        }
        fn n_actions(&self) -> usize {
            self.0.n_actions()
        }
        fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
            self.0.reset(seed, obs, mask);
        }
        fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
            StepOutcome {
                reward: -7.0,
                ..self.0.step(action, obs, mask)
            }
        }
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
        let seeds: Vec<u64> = (0..16).collect();
        let mut venv = VecEnv::new(vec![ConstantReturn(BanditEnv::new(3, 1, 0))]);
        let (batch, _) = collect_rollouts_vec(&ppo, &mut venv, &seeds);
        for _ in 0..5 {
            ppo.update(&batch);
        }
        // Every episode starts from the same window; read its value.
        let (mut obs, mut mask, mut value) = (Vec::new(), Vec::new(), Vec::new());
        BanditEnv::new(3, 1, 0).reset(0, &mut obs, &mut mask);
        infer::window_mlp_forward(
            &ppo.value,
            &obs,
            1,
            FEATURES,
            &mut Scratch::new(),
            &mut value,
        );
        let v = f64::from(value[0]);
        assert!((v + 7.0).abs() < 1.5, "value {v} should approach -7");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn update_rejects_empty_batch() {
        let mut ppo = agent(3);
        ppo.update(&Batch::default());
    }
}
