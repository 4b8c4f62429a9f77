//! The environment abstraction: a masked discrete-action episodic
//! environment, the SchedGym contract of §IV-D seen from the agent's side.
//!
//! Observations and masks flow through *caller-owned* buffers: `reset`
//! and `step` **append** one observation row and one mask row to
//! `&mut Vec<f32>`s the rollout driver reuses for every step of every
//! episode, so steady-state environment stepping performs no heap
//! allocation (the allocation-regression tests in `rlsched-bench` pin
//! this down). Appending — rather than clear-then-write — is what lets a
//! `VecEnv` hand every env the *same* stacked matrix to write its row
//! into directly, with no per-env staging copy; single-env drivers just
//! clear the buffers before each call.

/// Result of one environment step. The next observation and mask are
/// written into the buffers passed to [`Env::step`], not returned here.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Reward for the action just taken. In batch-job scheduling this is 0
    /// until the final action, which carries the whole episode metric
    /// (§IV-A of the paper).
    pub reward: f64,
    /// True when the episode just ended.
    pub done: bool,
    /// The episode's raw objective value (e.g. average bounded slowdown),
    /// reported once at `done` for logging/curves.
    pub episode_metric: Option<f64>,
}

/// A masked discrete-action episodic environment.
///
/// # The window contract
///
/// An observation is a window of `n_actions` slots, one job row of `F`
/// features per slot, and its mask scores the slots:
///
/// * `obs_dim == n_actions × F`;
/// * the valid slots are a prefix of `n ≥ 1` slots, masked at exactly
///   0.0;
/// * every other slot is padding: all-zero features, masked at
///   [`MASK_OFF`](crate::categorical::MASK_OFF);
/// * so an action a rollout stores is below `n`.
///
/// The rollout store keeps only each window's `n` valid job rows and
/// implies the rest ([`crate::buffer`]);
/// [`ArrivalArena::store`](crate::ArrivalArena::store) panics on a window
/// that breaks the contract, so a violation is never silently dropped.
/// `rlscheduler`'s `SchedulingEnv` windows are the waiting jobs in FCFS
/// order, then padding.
///
/// # Migration note (vectorized rollouts)
///
/// Two things changed in the `VecEnv` redesign:
///
/// * **Implementations**: `reset`/`step` now *append* their rows to the
///   caller's buffers instead of clearing them first (and a terminal
///   `step` appends nothing). Drop the leading `clear()`s; everything
///   else is unchanged.
/// * **Drivers**: don't hand-roll `reset`/`step` episode loops — wrap
///   the envs in a [`crate::vecenv::VecEnv`] (size 1 reproduces the old
///   behavior exactly) so every live episode's policy forward batches
///   into one stacked matmul per tick, with each env appending its row
///   directly into the stacked matrix. `&mut E` implements `Env` too, so
///   a `VecEnv` can borrow caller-owned environments. Drivers that do
///   step a single env by hand must clear the buffers between calls.
pub trait Env {
    /// Observation width (flattened).
    fn obs_dim(&self) -> usize;

    /// Action-space size (the paper's `MAX_OBSV_SIZE`, default 128).
    fn n_actions(&self) -> usize;

    /// Start a new episode derived from `seed` (the seed selects the job
    /// sequence; implementations must be reproducible). **Appends** the
    /// first observation (exactly `obs_dim` elements) and additive mask
    /// (exactly `n_actions` elements) of the window contract to the
    /// caller's buffers — existing contents are left untouched, so a
    /// vectorized driver can stack many envs' rows in one matrix.
    fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>);

    /// Apply an action. When the episode continues, **appends** the next
    /// observation and mask rows to the caller's buffers (exactly
    /// `obs_dim` / `n_actions` elements); when the returned outcome has
    /// `done == true`, appends **nothing**. Implementations must not
    /// allocate at steady state.
    fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome;
}

#[cfg(test)]
pub(crate) mod test_env {
    use super::*;

    /// A tiny bandit-style environment for substrate tests: `n_actions`
    /// arms, reward = arm index / n (higher arm, higher reward), episode
    /// length fixed. The optimal policy always picks the last valid arm;
    /// `masked` trailing arms are masked off to exercise masking. Each
    /// arm is a slot of [`FEATURES`] features, so the observation keeps
    /// the window contract.
    pub struct BanditEnv {
        pub n_actions: usize,
        pub episode_len: usize,
        pub t: usize,
        pub masked: usize,
        pub acc: f64,
    }

    /// Features per arm slot.
    pub const FEATURES: usize = 2;

    impl BanditEnv {
        pub fn new(n_actions: usize, episode_len: usize, masked: usize) -> Self {
            assert!(masked < n_actions, "at least one arm stays valid");
            BanditEnv {
                n_actions,
                episode_len,
                t: 0,
                masked,
                acc: 0.0,
            }
        }

        fn valid(&self) -> usize {
            self.n_actions - self.masked
        }

        fn write_obs(&self, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
            let progress = self.t as f32 / self.episode_len as f32;
            for arm in 0..self.n_actions {
                if arm < self.valid() {
                    obs.extend([progress, (arm + 1) as f32 / self.n_actions as f32]);
                    mask.push(0.0);
                } else {
                    obs.extend([0.0; FEATURES]);
                    mask.push(crate::categorical::MASK_OFF);
                }
            }
        }
    }

    impl Env for BanditEnv {
        fn obs_dim(&self) -> usize {
            self.n_actions * FEATURES
        }
        fn n_actions(&self) -> usize {
            self.n_actions
        }
        fn reset(&mut self, _seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
            self.t = 0;
            self.acc = 0.0;
            self.write_obs(obs, mask);
        }
        fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
            assert!(action < self.valid(), "masked action selected");
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
}
