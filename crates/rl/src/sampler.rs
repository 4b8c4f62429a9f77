//! Trajectory collection over vectorized environments.
//!
//! Each PPO epoch samples many complete episodes (the paper uses 100
//! trajectories of 256 scheduling decisions, §V-A). Since PR 2 the
//! per-step work is allocation-free and SIMD-dispatched, so rollout wall
//! time is dominated by issuing one tiny policy forward per env per
//! step. The sampler therefore drives a [`VecEnv`] in lockstep: every
//! simulator tick stacks all live observations into one `[live, obs_dim]`
//! matrix and scores it through a **single** batched policy forward and a
//! single batched critic forward ([`infer::log_probs`] over the policy,
//! [`infer::window_mlp_forward`] over the critic), amortizing the
//! networks' weight stream across every live episode.
//!
//! Trajectories are bit-identical to sequential per-env collection (a
//! `VecEnv` of size 1): per-episode sampling RNGs are derived from the
//! episode seed alone, and the forward kernels guarantee row-count
//! invariance. The parity tests in `tests/vecenv_parity.rs` and
//! `rlscheduler` pin this.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::{infer, pool};

use crate::buffer::{ArrivalArena, Batch};
use crate::categorical::MaskedCategorical;
use crate::env::Env;
use crate::ppo::{ActorScratch, Ppo};
use crate::vecenv::{SlotOutcome, VecEnv};

/// Per-episode sampling streams are derived from the episode seed with
/// this salt (kept from the sequential sampler so seeded runs reproduce).
const RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Summary of one collection round.
#[derive(Debug, Clone)]
pub struct RolloutStats {
    /// Episodes collected.
    pub episodes: usize,
    /// Total transitions collected.
    pub steps: usize,
    /// Mean episodic reward sum.
    pub mean_return: f64,
    /// Per-episode objective values (e.g. average bounded slowdown),
    /// as reported by the environments, in episode (seed) order.
    pub metrics: Vec<f64>,
}

impl RolloutStats {
    /// Mean of the per-episode objective values.
    pub fn mean_metric(&self) -> f64 {
        if self.metrics.is_empty() {
            return 0.0;
        }
        self.metrics.iter().sum::<f64>() / self.metrics.len() as f64
    }
}

/// Reusable lockstep buffers: stacked observation/mask double buffers,
/// batched forward outputs, per-tick action/outcome staging. One per
/// collection loop; every vector only grows to its high-water mark, so
/// steady-state ticks allocate nothing.
#[derive(Debug, Default)]
struct LockstepScratch {
    actor: ActorScratch,
    obs: Vec<f32>,
    masks: Vec<f32>,
    next_obs: Vec<f32>,
    next_masks: Vec<f32>,
    logps: Vec<f32>,
    values: Vec<f32>,
    actions: Vec<usize>,
    sel_logps: Vec<f32>,
    outcomes: Vec<SlotOutcome>,
}

/// Per-episode accumulators before the final fold into [`RolloutStats`].
/// Kept raw (seed-ordered vectors, not folded scalars) so the parallel
/// sampler can concatenate its workers' episodes in seed order and fold
/// ONCE — the same f64 summation order as the sequential fold, hence the
/// same bits.
#[derive(Debug)]
struct RawStats {
    steps: usize,
    /// Per-episode reward sums, in seed order.
    returns: Vec<f64>,
    /// Per-episode objective values, in seed order.
    metrics: Vec<Option<f64>>,
}

impl RawStats {
    fn finalize(self) -> RolloutStats {
        RolloutStats {
            episodes: self.returns.len(),
            steps: self.steps,
            mean_return: self.returns.iter().sum::<f64>() / self.returns.len() as f64,
            metrics: self.metrics.into_iter().flatten().collect(),
        }
    }
}

/// Collect one complete episode per seed by stepping `venv` in lockstep
/// into an arrival-order [`ArrivalArena`] (see its docs: per-tick stores
/// append to one contiguous tail; episode order is restored by the
/// batch's row locator).
///
/// Envs that finish early auto-reset onto the next unclaimed seed, so a
/// `VecEnv` narrower than the seed schedule pipelines through all
/// episodes; each episode's trajectory depends only on its seed (see the
/// module docs), so the result is independent of `venv.n_envs()`.
fn collect_arena_raw<E: Env>(
    ppo: &Ppo,
    venv: &mut VecEnv<E>,
    seeds: &[u64],
) -> (ArrivalArena, RawStats) {
    assert!(!seeds.is_empty(), "need at least one episode seed");
    let (od, na) = (venv.obs_dim(), venv.n_actions());
    let mut arena = ArrivalArena::new(od, na, ppo.cfg.gamma, ppo.cfg.lam, seeds.len());
    let mut returns = vec![0.0f64; seeds.len()];
    let mut metrics: Vec<Option<f64>> = vec![None; seeds.len()];
    let mut steps = 0usize;

    let mut s = LockstepScratch::default();
    // One sampling RNG per slot, re-seeded from the episode seed whenever
    // the slot (re)spawns — episode streams never depend on slot history.
    let mut rngs: Vec<StdRng> = (0..venv.n_envs())
        .map(|_| StdRng::seed_from_u64(0))
        .collect();

    venv.reset_all(seeds, &mut s.obs, &mut s.masks);
    for slot in venv.live_slots() {
        rngs[slot] = StdRng::seed_from_u64(seeds[venv.episode_of(slot)] ^ RNG_SALT);
    }

    while !venv.is_done() {
        let rows = venv.live_count();
        // One stacked forward each for actor and critic: every live
        // episode's decision this tick shares one weight stream. The
        // critic reads each window as job rows of `od / na` features.
        let nn = &mut s.actor.nn;
        infer::log_probs(&ppo.policy, &s.obs, &s.masks, rows, nn, &mut s.logps);
        infer::window_mlp_forward(&ppo.value, &s.obs, rows, od / na, nn, &mut s.values);
        s.actions.clear();
        s.sel_logps.clear();
        for (r, slot) in venv.live_slots().enumerate() {
            let dist = MaskedCategorical::new(&s.logps[r * na..(r + 1) * na]);
            let a = dist.sample(&mut rngs[slot]);
            s.actions.push(a);
            s.sel_logps.push(dist.log_prob(a));
        }
        venv.step_all(
            &s.actions,
            &mut s.next_obs,
            &mut s.next_masks,
            &mut s.outcomes,
        );
        for (r, out) in s.outcomes.iter().enumerate() {
            arena.store(
                out.episode,
                &s.obs[r * od..(r + 1) * od],
                &s.masks[r * na..(r + 1) * na],
                s.actions[r],
                out.reward,
                f64::from(s.values[r]),
                s.sel_logps[r],
            );
            returns[out.episode] += out.reward;
            steps += 1;
            if out.done {
                arena.finish_episode(out.episode, 0.0);
                metrics[out.episode] = out.episode_metric;
            }
            if let Some(ep) = out.next_episode {
                rngs[out.slot] = StdRng::seed_from_u64(seeds[ep] ^ RNG_SALT);
            }
        }
        std::mem::swap(&mut s.obs, &mut s.next_obs);
        std::mem::swap(&mut s.masks, &mut s.next_masks);
    }

    let raw = RawStats {
        steps,
        returns,
        metrics,
    };
    (arena, raw)
}

/// Collect one complete episode per seed by stepping `venv` in lockstep
/// into one [`ArrivalArena`], not yet batched, plus the round's stats.
/// [`collect_rollouts_vec`] is this and [`ArrivalArena::into_batch`];
/// arenas collected over parts of a seed schedule merge, in seed order,
/// through [`ArrivalArena::merge_into_batch`] to the same bits.
pub fn collect_arena<E: Env>(
    ppo: &Ppo,
    venv: &mut VecEnv<E>,
    seeds: &[u64],
) -> (ArrivalArena, RolloutStats) {
    let (arena, raw) = collect_arena_raw(ppo, venv, seeds);
    (arena, raw.finalize())
}

/// Collect one episode per seed through `venv` and merge into one
/// normalized training batch that reads the arrival arena in episode
/// order.
pub fn collect_rollouts_vec<E: Env>(
    ppo: &Ppo,
    venv: &mut VecEnv<E>,
    seeds: &[u64],
) -> (Batch, RolloutStats) {
    let (arena, stats) = collect_arena(ppo, venv, seeds);
    (arena.into_batch(), stats)
}

/// Parallel rollout: partition the seed schedule into [`pool::fan_out`]'s
/// **fixed** contiguous ranges (a function of `seeds.len()` alone, never
/// the worker count), run one private [`VecEnv`] per range — envs built
/// on the worker by `make_env` — and merge the per-range arenas in seed
/// order.
///
/// Bit-identity contract: each episode's trajectory depends only on its
/// seed (module docs) and the merge gathers episodes in seed order with
/// ONE advantage normalization over the merged sequence
/// ([`ArrivalArena::merge_into_batch`]), so the assembled batch is
/// byte-equal to [`collect_rollouts_vec`] over the same seeds at ANY
/// thread count (including 1). Stats fold
/// the same per-episode sums in the same seed order. Pinned by this
/// module's tests and `rlscheduler`'s `parallel_parity` suite.
///
/// `n_envs` caps each range's lockstep width (`TrainConfig::n_envs` in
/// `rlscheduler`); the worker-thread budget is [`pool::current_num_threads`]
/// (a [`pool::with_threads`] override, else `available_parallelism`).
pub fn collect_rollouts_par<E, F>(
    ppo: &Ppo,
    make_env: F,
    n_envs: usize,
    seeds: &[u64],
) -> (Batch, RolloutStats)
where
    E: Env,
    F: Fn() -> E + Sync,
{
    assert!(!seeds.is_empty(), "need at least one episode seed");
    assert!(n_envs > 0, "need at least one env slot per worker");
    let parts = pool::fan_out(seeds.len(), |range| {
        let width = n_envs.min(range.len());
        let mut venv = VecEnv::new((0..width).map(|_| make_env()).collect());
        collect_arena_raw(ppo, &mut venv, &seeds[range])
    });
    let mut arenas = Vec::with_capacity(parts.len());
    let mut raw = RawStats {
        steps: 0,
        returns: Vec::with_capacity(seeds.len()),
        metrics: Vec::with_capacity(seeds.len()),
    };
    for (arena, r) in parts {
        arenas.push(arena);
        raw.steps += r.steps;
        raw.returns.extend(r.returns);
        raw.metrics.extend(r.metrics);
    }
    (ArrivalArena::merge_into_batch(arenas), raw.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::{BanditEnv, FEATURES};
    use crate::ppo::PpoConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlsched_nn::fused::{FusedHead, FusedPolicy};
    use rlsched_nn::{Activation, Mlp};

    fn make_ppo() -> Ppo {
        let mut rng = StdRng::seed_from_u64(5);
        Ppo::new(
            FusedPolicy {
                convs: vec![],
                mlp: Mlp::new(
                    &[3 * FEATURES, 8, 3],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                ),
                head: FusedHead::Flat,
            },
            Mlp::new(
                &[3 * FEATURES, 8, 1],
                Activation::Tanh,
                Activation::Identity,
                &mut rng,
            ),
            PpoConfig::default(),
        )
    }

    fn bandits(n: usize, steps: usize, masked: usize) -> VecEnv<BanditEnv> {
        VecEnv::new((0..n).map(|_| BanditEnv::new(3, steps, masked)).collect())
    }

    #[test]
    fn collects_one_episode_per_seed() {
        let ppo = make_ppo();
        let seeds: Vec<u64> = (0..6).collect();
        let (batch, stats) = collect_rollouts_vec(&ppo, &mut bandits(6, 5, 0), &seeds);
        assert_eq!(stats.episodes, 6);
        assert_eq!(stats.steps, 30, "6 episodes x 5 steps");
        assert_eq!(batch.len(), 30);
        assert_eq!(stats.metrics.len(), 6);
    }

    #[test]
    fn deterministic_given_seeds() {
        let ppo = make_ppo();
        let run = || {
            let seeds: Vec<u64> = (10..14).collect();
            collect_rollouts_vec(&ppo, &mut bandits(4, 4, 0), &seeds)
        };
        let (b1, s1) = run();
        let (b2, s2) = run();
        assert_eq!(b1.actions, b2.actions);
        assert_eq!(b1.logp_old, b2.logp_old);
        assert_eq!(s1.mean_return, s2.mean_return);
    }

    #[test]
    fn narrow_vecenv_pipelines_all_episodes_identically() {
        // 2 slots streaming 6 episodes must produce the exact batch that
        // 6 slots running one episode each produce: trajectories depend
        // only on the episode seed.
        let ppo = make_ppo();
        let seeds: Vec<u64> = (20..26).collect();
        let run = |n_slots: usize| collect_rollouts_vec(&ppo, &mut bandits(n_slots, 5, 0), &seeds);
        let (wide, ws) = run(6);
        let (narrow, ns) = run(2);
        assert_eq!(wide.actions, narrow.actions);
        assert_eq!(wide.logp_old, narrow.logp_old);
        assert_eq!(wide.advantages, narrow.advantages);
        for i in 0..wide.len() {
            assert_eq!(wide.row(i), narrow.row(i), "row {i}");
        }
        assert_eq!(ws.metrics, ns.metrics);
        assert_eq!(ws.mean_return, ns.mean_return);
    }

    #[test]
    fn parallel_collection_matches_sequential_at_any_thread_count() {
        // 13 seeds split unevenly across the shim's fixed ranges, workers
        // narrower than their seed share (width 3 pipelines episodes):
        // the merged batch and the stats must be byte-equal to the
        // sequential lockstep collection at every thread count.
        let ppo = make_ppo();
        let seeds: Vec<u64> = (40..53).collect();
        let (base, bs) = collect_rollouts_vec(&ppo, &mut bandits(4, 5, 0), &seeds);
        for k in [1usize, 2, 3, 7] {
            let (b, s) = pool::with_threads(k, || {
                collect_rollouts_par(&ppo, || BanditEnv::new(3, 5, 0), 3, &seeds)
            });
            assert_eq!(b.len(), base.len(), "transitions, threads={k}");
            for i in 0..b.len() {
                assert_eq!(b.row(i), base.row(i), "row {i}, threads={k}");
            }
            assert_eq!(b.actions, base.actions, "actions, threads={k}");
            assert_eq!(b.advantages, base.advantages, "advantages, threads={k}");
            assert_eq!(b.returns, base.returns, "returns, threads={k}");
            assert_eq!(b.logp_old, base.logp_old, "logp_old, threads={k}");
            assert_eq!(s.episodes, bs.episodes, "episodes, threads={k}");
            assert_eq!(s.steps, bs.steps, "steps, threads={k}");
            assert_eq!(
                s.mean_return.to_bits(),
                bs.mean_return.to_bits(),
                "mean_return, threads={k}"
            );
            assert_eq!(s.metrics, bs.metrics, "metrics, threads={k}");
        }
    }

    #[test]
    fn respects_masks_during_collection() {
        let ppo = make_ppo();
        // Arm 2 is masked; BanditEnv panics if a masked arm is selected.
        let seeds: Vec<u64> = (0..4).collect();
        let (_batch, stats) = collect_rollouts_vec(&ppo, &mut bandits(4, 6, 1), &seeds);
        assert_eq!(stats.episodes, 4);
    }

    #[test]
    fn mean_metric_matches_manual_average() {
        let stats = RolloutStats {
            episodes: 2,
            steps: 10,
            mean_return: 0.0,
            metrics: vec![2.0, 4.0],
        };
        assert_eq!(stats.mean_metric(), 3.0);
        let empty = RolloutStats {
            episodes: 0,
            steps: 0,
            mean_return: 0.0,
            metrics: vec![],
        };
        assert_eq!(empty.mean_metric(), 0.0);
    }
}
