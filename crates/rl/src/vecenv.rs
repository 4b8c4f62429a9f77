//! Vectorized environments: step every live episode in lockstep and
//! score the whole batch through **one** stacked policy forward.
//!
//! After the per-step allocations and matmuls were eliminated, rollout
//! wall time was dominated by doing one tiny policy forward per env per
//! step. [`VecEnv`] removes that: it owns N [`Env`]s, exposes
//! [`VecEnv::reset_all`] / [`VecEnv::step_all`] writing the observations
//! and masks of every *live* env into one caller-owned `[live, obs_dim]`
//! matrix, and the sampler scores that matrix in a single batched matmul
//! per simulator tick (for the kernel policy the windows' job rows stack
//! into one `[jobs, F]` matrix — one gemm for every decision of the tick).
//!
//! # Lockstep protocol
//!
//! A `VecEnv` is given a *seed schedule* at [`VecEnv::reset_all`]: one
//! seed per episode to collect. The first `min(n_envs, seeds)` episodes
//! start immediately, one per slot. Each [`VecEnv::step_all`] applies one
//! action per live slot (in stacked-row order) and rewrites the stacked
//! matrices. Envs that finish an episode are **auto-reset** onto the next
//! unclaimed seed; when the schedule is exhausted a finished slot goes
//! dead and simply stops occupying a row — the stacked matrix compacts to
//! the live slots (ascending slot order) so the batched forward never
//! scores a corpse. Collection ends when [`VecEnv::live_count`] hits 0.
//!
//! # Determinism and parity
//!
//! Episode trajectories depend only on the episode's seed, never on which
//! slot ran them or how many other envs were co-resident: the env fully
//! re-derives its state from the seed at reset, per-episode sampling RNGs
//! are derived from the seed, and the nn forward kernels guarantee
//! row-count invariance (each stacked row scores to the same bits as a
//! single-row forward — see `rlsched-nn`'s `simd` module docs). A
//! `VecEnv` of size 1 is therefore *exactly* the old per-env stepping,
//! and `VecEnv(n)` rollouts are bit-identical to n sequential single-env
//! rollouts — pinned by the parity tests in this crate and `rlscheduler`.
//!
//! # Migrating from the single-env API
//!
//! [`Env`] itself is unchanged — implementations keep writing into
//! caller-owned buffers and need no edits. What moved is the *driver*:
//! code that looped `env.reset(..); loop { env.step(..) }` per episode
//! should construct a `VecEnv` (borrowed envs work via the blanket
//! `impl Env for &mut E`) and call `sampler::collect_rollouts_vec`,
//! which drives the lockstep loop.

use rlsched_nn::fused::FusedPolicy;
use rlsched_nn::infer;

use crate::env::{Env, StepOutcome};

/// Forwarding impl so a `VecEnv` can borrow caller-owned environments
/// (`VecEnv<&mut E>`) instead of taking them by value.
impl<E: Env + ?Sized> Env for &mut E {
    fn obs_dim(&self) -> usize {
        (**self).obs_dim()
    }
    fn n_actions(&self) -> usize {
        (**self).n_actions()
    }
    fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        (**self).reset(seed, obs, mask)
    }
    fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
        (**self).step(action, obs, mask)
    }
}

/// Argmax actions for `rows` stacked observations through one
/// [`infer::log_probs`] forward of `policy` — the one batched scorer: a
/// serving shard scores its coalesced requests through it.
/// Row `i`'s action is the one a forward of row `i` alone picks (the
/// in-process decision head's action for that row). Allocation-free at
/// steady state.
pub fn greedy_batch(
    policy: &FusedPolicy,
    obs: &[f32],
    masks: &[f32],
    rows: usize,
    scratch: &mut crate::ppo::ActorScratch,
    actions: &mut Vec<usize>,
) {
    assert!(rows > 0, "batched selection needs at least one row");
    assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
    assert_eq!(masks.len() % rows, 0, "mask volume must divide into rows");
    let n_actions = masks.len() / rows;
    infer::log_probs(policy, obs, masks, rows, &mut scratch.nn, &mut scratch.logp);
    actions.clear();
    actions.extend((0..rows).map(|i| {
        crate::categorical::MaskedCategorical::new(
            &scratch.logp[i * n_actions..(i + 1) * n_actions],
        )
        .argmax()
    }));
}

/// Per-slot result of one [`VecEnv::step_all`] tick, in stacked-row
/// order of the rows that were stepped (i.e. the *previous* tick's live
/// rows).
#[derive(Debug, Clone, Copy)]
pub struct SlotOutcome {
    /// The slot that was stepped.
    pub slot: usize,
    /// The episode (index into the seed schedule) the action belonged to.
    pub episode: usize,
    /// Reward for the action just taken.
    pub reward: f64,
    /// True when that episode just ended.
    pub done: bool,
    /// The episode's raw objective value, reported once at `done`.
    pub episode_metric: Option<f64>,
    /// `Some(e)` when the slot auto-reset onto episode `e` (the next
    /// unclaimed seed) within this tick; `None` while the episode
    /// continues or when the slot went dead.
    pub next_episode: Option<usize>,
}

/// N environments stepped in lockstep, exposing all live observations as
/// one stacked matrix. See the module docs for the protocol.
#[derive(Debug)]
pub struct VecEnv<E: Env> {
    envs: Vec<E>,
    obs_dim: usize,
    n_actions: usize,
    /// Per-slot liveness; dead slots occupy no stacked row.
    live: Vec<bool>,
    /// Per-slot episode index (valid while live).
    episode: Vec<usize>,
    /// The episode seed schedule of the current collection round.
    seeds: Vec<u64>,
    /// Next unclaimed index into `seeds`.
    next_seed: usize,
    n_live: usize,
}

impl<E: Env> VecEnv<E> {
    /// Wrap `envs` (at least one; all must agree on `obs_dim` and
    /// `n_actions`). Call [`VecEnv::reset_all`] before stepping.
    pub fn new(envs: Vec<E>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        let obs_dim = envs[0].obs_dim();
        let n_actions = envs[0].n_actions();
        for e in &envs {
            assert_eq!(e.obs_dim(), obs_dim, "mismatched obs_dim across envs");
            assert_eq!(e.n_actions(), n_actions, "mismatched n_actions across envs");
        }
        let n = envs.len();
        VecEnv {
            envs,
            obs_dim,
            n_actions,
            live: vec![false; n],
            episode: vec![0; n],
            seeds: Vec::new(),
            next_seed: 0,
            n_live: 0,
        }
    }

    /// Number of env slots.
    pub fn n_envs(&self) -> usize {
        self.envs.len()
    }

    /// Observation width of every env.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action-space size of every env.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Slots currently running an episode (== stacked rows).
    pub fn live_count(&self) -> usize {
        self.n_live
    }

    /// True when every scheduled episode has finished.
    pub fn is_done(&self) -> bool {
        self.n_live == 0
    }

    /// Live slot indices in stacked-row order (ascending).
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(s, &l)| l.then_some(s))
    }

    /// The episode index slot `s` is currently running (meaningful only
    /// while the slot is live).
    pub fn episode_of(&self, slot: usize) -> usize {
        self.episode[slot]
    }

    /// Shared access to the wrapped environments.
    pub fn envs(&self) -> &[E] {
        &self.envs
    }

    /// Install the seed schedule (one seed per episode, in collection
    /// order) and start the first `min(n_envs, seeds)` episodes. Writes
    /// the stacked `[live, obs_dim]` observations and `[live, n_actions]`
    /// masks into the caller's buffers (cleared first): every env appends
    /// its row directly — no per-env staging copy.
    pub fn reset_all(&mut self, seeds: &[u64], obs: &mut Vec<f32>, masks: &mut Vec<f32>) {
        assert!(!seeds.is_empty(), "need at least one episode seed");
        self.seeds.clear();
        self.seeds.extend_from_slice(seeds);
        let active = self.envs.len().min(seeds.len());
        self.next_seed = active;
        self.n_live = active;
        obs.clear();
        masks.clear();
        self.live.iter_mut().for_each(|l| *l = false);
        for (slot, &seed) in seeds.iter().enumerate().take(active) {
            self.live[slot] = true;
            self.episode[slot] = slot;
            self.envs[slot].reset(seed, obs, masks);
            debug_assert_eq!(obs.len(), (slot + 1) * self.obs_dim, "env appended one row");
        }
    }

    /// Apply one action per live slot (`actions` in stacked-row order),
    /// auto-resetting finished envs onto the next unclaimed seed and
    /// retiring them when the schedule is exhausted. Rewrites the stacked
    /// observations/masks for the slots that are live *after* the tick —
    /// each surviving env appends its next row directly to the caller's
    /// buffers (a terminal step appends nothing; the respawn reset
    /// appends the fresh episode's first row) — and pushes one
    /// [`SlotOutcome`] per stepped row into `outcomes` (cleared first).
    /// Allocation-free at steady state.
    pub fn step_all(
        &mut self,
        actions: &[usize],
        obs: &mut Vec<f32>,
        masks: &mut Vec<f32>,
        outcomes: &mut Vec<SlotOutcome>,
    ) {
        assert_eq!(
            actions.len(),
            self.n_live,
            "one action per live environment"
        );
        obs.clear();
        masks.clear();
        outcomes.clear();
        let mut row = 0;
        for slot in 0..self.envs.len() {
            if !self.live[slot] {
                continue;
            }
            let action = actions[row];
            row += 1;
            // The episode this action belongs to, captured before any
            // respawn advances the slot's episode index.
            let episode = self.episode[slot];
            let rows_before = obs.len();
            let out = self.envs[slot].step(action, obs, masks);
            debug_assert_eq!(
                obs.len() - rows_before,
                if out.done { 0 } else { self.obs_dim },
                "env must append exactly one row, or none at terminal"
            );
            let mut next_episode = None;
            if out.done {
                if self.next_seed < self.seeds.len() {
                    let ep = self.next_seed;
                    self.next_seed += 1;
                    self.episode[slot] = ep;
                    self.envs[slot].reset(self.seeds[ep], obs, masks);
                    next_episode = Some(ep);
                } else {
                    self.live[slot] = false;
                    self.n_live -= 1;
                }
            }
            outcomes.push(SlotOutcome {
                slot,
                episode,
                reward: out.reward,
                done: out.done,
                episode_metric: out.episode_metric,
                next_episode,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::BanditEnv;

    fn venv(n: usize, episode_len: usize) -> VecEnv<BanditEnv> {
        VecEnv::new((0..n).map(|_| BanditEnv::new(3, episode_len, 0)).collect())
    }

    #[test]
    fn reset_all_stacks_live_rows() {
        let mut v = venv(3, 4);
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        v.reset_all(&[1, 2, 3], &mut obs, &mut masks);
        assert_eq!(v.live_count(), 3);
        assert_eq!(obs.len(), 3 * v.obs_dim());
        assert_eq!(masks.len(), 3 * v.n_actions());
        assert_eq!(v.live_slots().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn fewer_seeds_than_envs_leaves_slots_dead() {
        let mut v = venv(4, 3);
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        v.reset_all(&[7, 8], &mut obs, &mut masks);
        assert_eq!(v.live_count(), 2);
        assert_eq!(obs.len(), 2 * v.obs_dim());
        assert_eq!(v.live_slots().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn lockstep_runs_all_episodes_and_autoresets() {
        // 2 slots, 5 episodes of 3 steps: slots must respawn onto seeds
        // 2, 3, 4 in claim order and die when the schedule is dry.
        let mut v = venv(2, 3);
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        let mut outcomes = Vec::new();
        v.reset_all(&[0, 1, 2, 3, 4], &mut obs, &mut masks);
        let mut finished = Vec::new();
        let mut respawns = Vec::new();
        let mut ticks = 0;
        while !v.is_done() {
            let actions = vec![0usize; v.live_count()];
            v.step_all(&actions, &mut obs, &mut masks, &mut outcomes);
            for o in &outcomes {
                if o.done {
                    finished.push(o.episode);
                    assert!(o.episode_metric.is_some());
                }
                if let Some(e) = o.next_episode {
                    respawns.push(e);
                }
            }
            assert_eq!(obs.len(), v.live_count() * v.obs_dim());
            ticks += 1;
            assert!(ticks < 100, "lockstep loop must terminate");
        }
        finished.sort_unstable();
        assert_eq!(finished, vec![0, 1, 2, 3, 4], "every episode finishes once");
        assert_eq!(respawns, vec![2, 3, 4], "seeds claimed in schedule order");
        // 5 episodes x 3 steps across 2 slots, in lockstep.
        assert_eq!(ticks, 9, "ceil(5/2) * 3 lockstep ticks");
    }

    #[test]
    fn outcomes_attribute_actions_to_the_finished_episode() {
        let mut v = venv(1, 2);
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        let mut outcomes = Vec::new();
        v.reset_all(&[5, 6], &mut obs, &mut masks);
        v.step_all(&[0], &mut obs, &mut masks, &mut outcomes);
        assert_eq!(outcomes[0].episode, 0);
        assert!(!outcomes[0].done);
        v.step_all(&[0], &mut obs, &mut masks, &mut outcomes);
        // The terminal action of episode 0 is attributed to episode 0
        // even though the slot respawned onto episode 1 within the tick.
        assert_eq!(outcomes[0].episode, 0);
        assert!(outcomes[0].done);
        assert_eq!(outcomes[0].next_episode, Some(1));
        assert_eq!(v.episode_of(0), 1);
    }

    #[test]
    #[should_panic(expected = "one action per live environment")]
    fn step_all_checks_action_count() {
        let mut v = venv(2, 3);
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        v.reset_all(&[1, 2], &mut obs, &mut masks);
        v.step_all(&[0], &mut obs, &mut masks, &mut Vec::new());
    }

    #[test]
    fn borrowed_envs_work_through_the_forwarding_impl() {
        let mut owned: Vec<BanditEnv> = (0..2).map(|_| BanditEnv::new(3, 2, 0)).collect();
        let mut v: VecEnv<&mut BanditEnv> = VecEnv::new(owned.iter_mut().collect());
        let (mut obs, mut masks) = (Vec::new(), Vec::new());
        let mut outcomes = Vec::new();
        v.reset_all(&[1, 2], &mut obs, &mut masks);
        while !v.is_done() {
            let actions = vec![1usize; v.live_count()];
            v.step_all(&actions, &mut obs, &mut masks, &mut outcomes);
        }
        drop(v);
        // The borrowed envs observed the steps.
        assert!(owned.iter().all(|e| e.t == 2));
    }
}
