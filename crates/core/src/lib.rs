//! # RLScheduler
//!
//! A from-scratch Rust reproduction of *RLScheduler: An Automated HPC
//! Batch Job Scheduler Using Reinforcement Learning* (Zhang, Dai, He,
//! Bao, Xie — SC 2020).
//!
//! RLScheduler learns batch-job scheduling policies by trial and error in
//! a simulated HPC cluster, instead of relying on hand-tuned priority
//! functions. This crate is the paper's contribution layer; the substrates
//! live in sibling crates (`rlsched-sim` — the SchedGym simulator,
//! `rlsched-nn` — autodiff, `rlsched-rl` — PPO, `rlsched-sched` — the
//! heuristic baselines, `rlsched-workload` — trace generators).
//!
//! The two key ideas of the paper, and where they live here:
//!
//! * **Kernel-based policy network** (§IV-B): [`build_policy`] with
//!   [`PolicyKind::Kernel`] scores every waiting job with one small shared
//!   MLP, making the policy insensitive to job ordering in the queue.
//! * **Trajectory filtering** (§IV-C): [`filter::TrajectoryFilter`]
//!   controls training variance on bursty workloads by restricting early
//!   epochs to sequences whose SJF metric falls in `(median, 2·mean)`.
//!
//! A trained [`Agent`] answers through one decision head, [`RlPolicy`]
//! ([`Agent::as_policy`]): the `rlsched_sim::Policy` that the episode
//! driver and the replay engine ask exactly as they ask a heuristic's.
//!
//! ## Quickstart
//!
//! ```
//! use rlscheduler::prelude::*;
//!
//! // A synthetic workload (Lublin model, calibrated to the paper's Table II).
//! let trace = rlsched_workload::NamedWorkload::Lublin1.generate(600, 42);
//!
//! // A small agent (paper defaults shrunk for doc-test speed).
//! let mut cfg = AgentConfig::paper_default();
//! cfg.obs.max_obsv = 16;
//! cfg.ppo.train_pi_iters = 5;
//! cfg.ppo.train_v_iters = 5;
//! let mut agent = Agent::new(cfg);
//!
//! // Train for a couple of epochs…
//! let train_cfg = TrainConfig {
//!     epochs: 2,
//!     trajectories_per_epoch: 4,
//!     seq_len: 32,
//!     ..TrainConfig::default()
//! };
//! let curve = train(&mut agent, &trace, &train_cfg);
//! assert_eq!(curve.len(), 2);
//!
//! // …then schedule like any other policy and compare with SJF.
//! let windows = sample_eval_windows(&trace, 3, 64, 7);
//! let rl = evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy());
//! let sjf = evaluate_policy(
//!     &windows,
//!     SimConfig::default(),
//!     &mut rlsched_sched::PriorityScheduler::new(rlsched_sched::HeuristicKind::Sjf),
//! );
//! assert_eq!(rl.len(), sjf.len());
//! ```

pub mod agent;
pub mod canary;
pub mod env;
pub mod eval;
pub mod filter;
pub mod nets;
pub mod obs;
pub mod reward;
pub mod train;

pub use agent::{Agent, AgentConfig, RlPolicy};
pub use canary::{CanaryBatch, CanaryError};
pub use env::SchedulingEnv;
pub use eval::{evaluate_policy, mean_metric, sample_eval_windows};
pub use filter::TrajectoryFilter;
pub use nets::{build_critic, build_policy, PolicyKind, ScorerSnapshot};
pub use obs::{ObsConfig, ObsEncoder, QueueSnapshot, SnapshotJob, JOB_FEATURES};
pub use reward::Objective;
pub use train::{train, EpochStats, FilterMode, TrainConfig, TrainingCurve};

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::agent::{Agent, AgentConfig};
    pub use crate::eval::{evaluate_policy, mean_metric, sample_eval_windows};
    pub use crate::filter::TrajectoryFilter;
    pub use crate::nets::PolicyKind;
    pub use crate::obs::ObsConfig;
    pub use crate::reward::Objective;
    pub use crate::train::{train, FilterMode, TrainConfig};
    pub use rlsched_sim::{BackfillMode, MetricKind, SimConfig};
}
