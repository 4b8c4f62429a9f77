//! Batched ≡ sequential rollout parity at the substrate level: a
//! `VecEnv(n)` rollout must produce **bit-identical** trajectories
//! (stored job rows, actions, rewards/returns, advantages, sampled
//! log-probs) to n sequential single-env rollouts — a `VecEnv` of size 1
//! being exactly the old per-env stepping.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{FusedHead, FusedPolicy};
use rlsched_nn::{Activation, Mlp};
use rlsched_rl::categorical::MASK_OFF;
use rlsched_rl::{
    collect_arena, collect_rollouts_vec, ArrivalArena, Batch, Env, Ppo, PpoConfig, StepOutcome,
    VecEnv,
};

/// A small bandit-style environment (mirrors the crate's internal test
/// env): fixed episode length, reward = chosen arm / n at the end, with
/// optionally masked trailing arms and a seed-dependent observation so
/// different episodes genuinely see different states. Each arm is a slot
/// of two features (the window contract).
struct BanditEnv {
    n_actions: usize,
    episode_len: usize,
    t: usize,
    seed_obs: f32,
    masked: usize,
    acc: f64,
}

impl BanditEnv {
    fn new(n_actions: usize, episode_len: usize, masked: usize) -> Self {
        BanditEnv {
            n_actions,
            episode_len,
            t: 0,
            seed_obs: 0.0,
            masked,
            acc: 0.0,
        }
    }

    // Append contract: one row appended per reset/non-terminal step.
    fn write_obs(&self, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        for arm in 0..self.n_actions {
            if arm < self.n_actions - self.masked {
                obs.extend([self.t as f32 / self.episode_len as f32, self.seed_obs]);
                mask.push(0.0);
            } else {
                obs.extend([0.0, 0.0]);
                mask.push(MASK_OFF);
            }
        }
    }
}

impl Env for BanditEnv {
    fn obs_dim(&self) -> usize {
        2 * self.n_actions
    }
    fn n_actions(&self) -> usize {
        self.n_actions
    }
    fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        self.t = 0;
        self.acc = 0.0;
        self.seed_obs = (seed % 17) as f32 / 17.0;
        self.write_obs(obs, mask);
    }
    fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
        assert!(
            action < self.n_actions - self.masked,
            "masked action selected"
        );
        self.t += 1;
        self.acc += action as f64 / self.n_actions as f64;
        let done = self.t >= self.episode_len;
        if !done {
            self.write_obs(obs, mask);
        }
        StepOutcome {
            reward: if done { self.acc } else { 0.0 },
            done,
            episode_metric: if done { Some(self.acc) } else { None },
        }
    }
}

/// A flat MLP actor (every row of a batch scored through one stacked
/// forward) and a flat MLP critic.
fn make_ppo(n_actions: usize) -> Ppo {
    let mut rng = StdRng::seed_from_u64(11);
    Ppo::new(
        FusedPolicy {
            convs: vec![],
            mlp: Mlp::new(
                &[2 * n_actions, 16, n_actions],
                Activation::Tanh,
                Activation::Identity,
                &mut rng,
            ),
            head: FusedHead::Flat,
        },
        Mlp::new(
            &[2 * n_actions, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        ),
        PpoConfig::default(),
    )
}

fn assert_batches_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: transitions");
    for i in 0..a.len() {
        assert_eq!(a.row(i), b.row(i), "{what}: job rows {i}");
    }
    assert_eq!(a.actions, b.actions, "{what}: actions");
    assert_eq!(a.advantages, b.advantages, "{what}: advantages");
    assert_eq!(a.returns, b.returns, "{what}: returns");
    assert_eq!(a.logp_old, b.logp_old, "{what}: sampled log-probs");
}

/// The headline parity property: one batched rollout vs n sequential
/// single-env rollouts, their per-seed arenas merged into one batch in
/// the same episode order (so advantage normalization sees identical
/// inputs).
#[test]
fn batched_rollout_is_bit_identical_to_sequential() {
    let n = 6;
    let ppo = make_ppo(4);
    let seeds: Vec<u64> = (100..100 + n as u64).collect();

    // Batched: one VecEnv over n envs, all stepped in lockstep.
    let mut venv = VecEnv::new((0..n).map(|_| BanditEnv::new(4, 7, 1)).collect::<Vec<_>>());
    let (batched, batched_stats) = collect_rollouts_vec(&ppo, &mut venv, &seeds);

    // Sequential: n separate single-env rollouts (VecEnv of size 1 — the
    // old per-env stepping), one arena per seed.
    let mut arenas = Vec::new();
    let mut seq_metrics = Vec::new();
    for &seed in &seeds {
        let mut single = VecEnv::new(vec![BanditEnv::new(4, 7, 1)]);
        let (arena, stats) = collect_arena(&ppo, &mut single, &[seed]);
        arenas.push(arena);
        seq_metrics.extend(stats.metrics);
    }

    assert_eq!(batched_stats.metrics, seq_metrics, "episode metrics");
    let sequential = ArrivalArena::merge_into_batch(arenas);
    assert_batches_identical(&batched, &sequential, "VecEnv(6) vs 6 x VecEnv(1)");
}

/// Auto-reset must not change anything: a narrow VecEnv pipelining many
/// episodes through few slots produces the same bits as one-slot-per-
/// episode collection.
#[test]
fn autoreset_pipelining_is_bit_identical() {
    let ppo = make_ppo(3);
    let seeds: Vec<u64> = (500..509).collect();
    let run = |slots: usize| {
        let mut venv = VecEnv::new(
            (0..slots)
                .map(|_| BanditEnv::new(3, 5, 0))
                .collect::<Vec<_>>(),
        );
        collect_rollouts_vec(&ppo, &mut venv, &seeds)
    };
    let (wide, ws) = run(9);
    let (narrow, ns) = run(2);
    let (single, ss) = run(1);
    assert_batches_identical(&wide, &narrow, "9 slots vs 2 slots");
    assert_batches_identical(&wide, &single, "9 slots vs 1 slot");
    assert_eq!(ws.metrics, ns.metrics);
    assert_eq!(ws.metrics, ss.metrics);
    assert_eq!(ws.steps, ss.steps);
}
