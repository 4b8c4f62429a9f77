//! Reinforcement-learning substrate: the PPO actor–critic machinery the
//! RLScheduler paper builds on (§II-B, §V-A: "We implement RLScheduler
//! based on the Proximal Policy Optimization (PPO) algorithm from OpenAI
//! Spinning Up").
//!
//! The crate is environment-agnostic: anything implementing [`Env`] (a
//! masked discrete-action episodic environment) can be trained. The
//! scheduling environment itself lives in the `rlscheduler` crate.
//!
//! Components:
//!
//! * [`categorical`] — masked categorical action distributions over
//!   log-probabilities (sampling during training, argmax during testing —
//!   §IV-B1 of the paper).
//! * [`buffer`] — the rollout store ([`ArrivalArena`]), GAE(γ, λ)
//!   advantage estimation and reward-to-go returns, and the training
//!   [`Batch`], which keeps each window's valid job rows only.
//! * [`ppo`] — the clipped-surrogate PPO update with early stopping on
//!   approximate KL, separate Adam optimizers for the policy (an
//!   `rlsched_nn::fused::FusedPolicy`) and the value net (an
//!   `rlsched_nn::Mlp`).
//! * [`vecenv`] — vectorized environments ([`VecEnv`]) stepped in
//!   lockstep, plus [`greedy_batch`], the one batched argmax (a serving
//!   shard's forward).
//! * [`sampler`] — trajectory collection over a [`VecEnv`]: every
//!   simulator tick scores all live episodes through one stacked policy
//!   forward (the "100 trajectories per epoch" of §V-A, batched).

pub mod buffer;
pub mod categorical;
pub mod env;
pub mod ppo;
pub mod sampler;
pub mod vecenv;

pub use buffer::{ArrivalArena, Batch};
pub use categorical::MaskedCategorical;
pub use env::{Env, StepOutcome};
pub use ppo::{ActorScratch, Ppo, PpoConfig, UpdateProfile, UpdateStats};
pub use sampler::{collect_arena, collect_rollouts_par, collect_rollouts_vec, RolloutStats};
pub use vecenv::{greedy_batch, SlotOutcome, VecEnv};
