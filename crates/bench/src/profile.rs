//! Experiment scale profiles and agent construction helpers.

use rlsched_rl::PpoConfig;
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_swf::JobTrace;
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    train, Agent, AgentConfig, FilterMode, ObsConfig, PolicyKind, TrainConfig, TrainingCurve,
};

/// Scale knobs for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Profile label ("quick" / "full").
    pub name: &'static str,
    /// Jobs generated per workload (paper: first 10K of each trace).
    pub trace_jobs: usize,
    /// Training epochs (paper: 100).
    pub epochs: usize,
    /// Trajectories per epoch (paper: 100).
    pub trajectories: usize,
    /// Jobs per training trajectory (paper: 256).
    pub train_seq: usize,
    /// Observation window / action space (paper: 128).
    pub max_obsv: usize,
    /// PPO iterations per epoch for each of policy and value nets
    /// (paper: 80).
    pub ppo_iters: usize,
    /// Minibatch size per PPO iteration (None = full batch).
    pub minibatch: Option<usize>,
    /// Evaluation sequences per table cell (paper: 10).
    pub eval_seqs: usize,
    /// Jobs per evaluation sequence (paper: 1024).
    pub eval_len: usize,
    /// Sequences sampled when fitting the trajectory filter.
    pub filter_fit: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Profile {
    /// Laptop-scale profile: minutes, same shapes.
    pub fn quick() -> Self {
        Profile {
            name: "quick",
            trace_jobs: 3000,
            epochs: 15,
            trajectories: 14,
            train_seq: 128,
            max_obsv: 64,
            ppo_iters: 15,
            minibatch: Some(512),
            eval_seqs: 5,
            eval_len: 256,
            filter_fit: 150,
            seed: 20200917,
        }
    }

    /// Paper-scale profile (§V-A).
    pub fn full() -> Self {
        Profile {
            name: "full",
            trace_jobs: 10_000,
            epochs: 100,
            trajectories: 100,
            train_seq: 256,
            max_obsv: 128,
            ppo_iters: 80,
            minibatch: Some(2048),
            eval_seqs: 10,
            eval_len: 1024,
            filter_fit: 1000,
            seed: 20200917,
        }
    }

    /// Pick by flag.
    pub fn from_flag(full: bool) -> Self {
        if full {
            Self::full()
        } else {
            Self::quick()
        }
    }

    /// Generate (and cache-key by seed) a named workload at profile scale.
    pub fn trace(&self, w: NamedWorkload) -> JobTrace {
        w.generate(self.trace_jobs, self.seed ^ w.name().len() as u64)
    }

    /// The PPO configuration at this scale.
    pub fn ppo(&self) -> PpoConfig {
        PpoConfig {
            train_pi_iters: self.ppo_iters,
            train_v_iters: self.ppo_iters,
            minibatch: self.minibatch,
            ..PpoConfig::default()
        }
    }

    /// A fresh agent for `metric` with architecture `kind`.
    pub fn agent(&self, kind: PolicyKind, metric: MetricKind, seed_offset: u64) -> Agent {
        Agent::new(AgentConfig {
            policy: kind,
            obs: ObsConfig {
                max_obsv: self.max_obsv,
                ..ObsConfig::default()
            },
            metric,
            ppo: self.ppo(),
            seed: self.seed ^ seed_offset,
        })
    }

    /// The training configuration over a given trace.
    pub fn train_cfg(&self, sim: SimConfig, filter: FilterMode) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            trajectories_per_epoch: self.trajectories,
            seq_len: self.train_seq,
            sim,
            filter,
            seed: self.seed,
            n_envs: 16,
            ..TrainConfig::default()
        }
    }

    /// Train a fresh agent on a workload; returns the agent and its curve.
    pub fn train_agent(
        &self,
        workload: NamedWorkload,
        kind: PolicyKind,
        metric: MetricKind,
        sim: SimConfig,
        filter: FilterMode,
        seed_offset: u64,
    ) -> (Agent, TrainingCurve) {
        let trace = self.trace(workload);
        let mut agent = self.agent(kind, metric, seed_offset);
        let curve = train(&mut agent, &trace, &self.train_cfg(sim, filter));
        (agent, curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_sanely() {
        let q = Profile::quick();
        let f = Profile::full();
        assert!(q.trace_jobs < f.trace_jobs);
        assert!(q.epochs < f.epochs);
        assert_eq!(f.max_obsv, 128, "full profile matches the paper");
        assert_eq!(f.train_seq, 256);
        assert_eq!(f.eval_len, 1024);
        assert_eq!(f.eval_seqs, 10);
    }

    #[test]
    fn from_flag_selects() {
        assert_eq!(Profile::from_flag(false).name, "quick");
        assert_eq!(Profile::from_flag(true).name, "full");
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let p = Profile::quick();
        let a = p.trace(NamedWorkload::Lublin1);
        let b = p.trace(NamedWorkload::Lublin1);
        assert_eq!(a.jobs()[..50], b.jobs()[..50]);
    }
}
