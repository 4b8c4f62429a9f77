//! The RLScheduler agent: policy + value networks behind a PPO trainer,
//! with checkpointing and one decision head ([`RlPolicy`], a
//! [`rlsched_sim::Policy`]) so a trained model is asked for its next job
//! exactly like any heuristic, by the episode driver and the replay engine
//! alike (Tables V–XI).

use std::convert::Infallible;

use serde::{Deserialize, Serialize};

use rlsched_nn::fused::{FusedHead, FusedPolicy};
use rlsched_nn::{Activation, Conv2dLayer, Dense, Mlp};
use rlsched_rl::{ActorScratch, Ppo, PpoConfig};
use rlsched_sim::{MetricKind, Outcomes, Policy, StreamSession, WaitingJob};
use rlsched_swf::Job;

use crate::nets::{
    build_critic, build_policy, check_critic, check_policy, PolicyKind, ScorerSnapshot,
};
use crate::obs::{ObsConfig, ObsEncoder};
use crate::reward::Objective;

/// Everything needed to reconstruct an agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Policy architecture (Table IV).
    pub policy: PolicyKind,
    /// Observation encoding.
    pub obs: ObsConfig,
    /// The optimization goal the agent is trained for.
    pub metric: MetricKind,
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// Weight-initialization / update seed.
    pub seed: u64,
}

impl AgentConfig {
    /// The paper's default agent: kernel policy over 128 observable jobs,
    /// trained for average bounded slowdown.
    pub fn paper_default() -> Self {
        AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig::default(),
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed: 0,
        }
    }

    /// Same defaults with a different metric.
    pub fn for_metric(metric: MetricKind) -> Self {
        AgentConfig {
            metric,
            ..Self::paper_default()
        }
    }
}

/// A (possibly trained) RLScheduler agent.
pub struct Agent {
    cfg: AgentConfig,
    encoder: ObsEncoder,
    ppo: Ppo,
}

/// On-disk checkpoint layout.
#[derive(Serialize, Deserialize)]
struct Checkpoint {
    cfg: AgentConfig,
    policy: PolicyJson,
    value: CriticJson,
}

/// A policy network in its checkpoint layout, one object per Table IV
/// family: `{"Kernel": {kernel, max_obsv}}`, `{"Mlp": {net}}` or
/// `{"LeNet": {conv1, conv2, fc1, fc2, max_obsv, h, w}}`.
#[allow(clippy::large_enum_variant)] // one per checkpoint; boxing buys nothing
#[derive(Serialize, Deserialize)]
pub(crate) enum PolicyJson {
    Kernel {
        kernel: Mlp,
        max_obsv: usize,
    },
    Mlp {
        net: Mlp,
    },
    LeNet {
        conv1: Conv2dLayer,
        conv2: Conv2dLayer,
        fc1: Dense,
        fc2: Dense,
        max_obsv: usize,
        h: usize,
        w: usize,
    },
}

impl PolicyJson {
    /// The layout of `p`, a network [`build_policy`] shaped.
    pub(crate) fn of(p: &FusedPolicy) -> Self {
        let net = p.mlp.clone();
        match p.head {
            FusedHead::Kernel { window } => PolicyJson::Kernel {
                kernel: net,
                max_obsv: window,
            },
            FusedHead::Flat => PolicyJson::Mlp { net },
            FusedHead::Conv { h, w } => {
                let max_obsv = net.out_dim();
                let [conv1, conv2] = p.convs.clone().try_into().expect("two conv stages");
                let [fc1, fc2] = net.layers.try_into().expect("two dense layers");
                PolicyJson::LeNet {
                    conv1,
                    conv2,
                    fc1,
                    fc2,
                    max_obsv,
                    h,
                    w,
                }
            }
        }
    }

    /// The network the layout holds. A LeNet layout keeps no activations:
    /// its dense layers are ReLU then identity.
    pub(crate) fn into_policy(self) -> FusedPolicy {
        let (convs, mlp, head) = match self {
            PolicyJson::Kernel { kernel, max_obsv } => {
                (vec![], kernel, FusedHead::Kernel { window: max_obsv })
            }
            PolicyJson::Mlp { net } => (vec![], net, FusedHead::Flat),
            PolicyJson::LeNet {
                conv1,
                conv2,
                fc1,
                fc2,
                h,
                w,
                ..
            } => {
                let mlp = Mlp {
                    layers: vec![fc1, fc2],
                    hidden: Activation::Relu,
                    output: Activation::Identity,
                };
                (vec![conv1, conv2], mlp, FusedHead::Conv { h, w })
            }
        };
        FusedPolicy { convs, mlp, head }
    }
}

/// The critic in its checkpoint layout: `{"net": …}`.
#[derive(Serialize, Deserialize)]
struct CriticJson {
    net: Mlp,
}

impl Agent {
    /// Fresh agent with randomly initialized networks.
    pub fn new(cfg: AgentConfig) -> Self {
        let encoder = ObsEncoder::new(cfg.obs);
        let mut ppo_cfg = cfg.ppo;
        ppo_cfg.update_seed = cfg.seed;
        let policy = build_policy(cfg.policy, cfg.obs.max_obsv, cfg.seed);
        let value = build_critic(cfg.obs.max_obsv, cfg.seed.wrapping_add(1));
        let ppo = Ppo::new(policy, value, ppo_cfg);
        Agent { cfg, encoder, ppo }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// The observation encoder.
    pub fn encoder(&self) -> &ObsEncoder {
        &self.encoder
    }

    /// The objective derived from the configured metric.
    pub fn objective(&self) -> Objective {
        Objective::new(self.cfg.metric)
    }

    /// The underlying PPO trainer.
    pub fn ppo(&self) -> &Ppo {
        &self.ppo
    }

    /// Mutable access for the training loop.
    pub fn ppo_mut(&mut self) -> &mut Ppo {
        &mut self.ppo
    }

    /// Policy parameter count (Table IV / §IV-B1).
    pub fn policy_param_count(&self) -> usize {
        self.ppo.policy.param_count()
    }

    /// The network half of one decision: the greedy action for an
    /// already-encoded observation window, through the allocation-free
    /// fast path, for every Table IV `PolicyKind`. [`RlPolicy`] runs it
    /// after encoding the session's queue; a served decision is the same
    /// forward over the server's encoding of the request's snapshot.
    pub fn score(&self, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        self.ppo.greedy_with(obs, mask, scratch)
    }

    /// A frozen, `Arc`-shared scoring replica for serving tiers (see
    /// [`ScorerSnapshot`]): the same network and forward as
    /// [`Agent::as_policy`], so served decisions reproduce the policy
    /// adapter's bits exactly. Re-take after training; a live server
    /// hot-swaps the fresh snapshot in without dropping requests.
    pub fn scorer_snapshot(&self) -> ScorerSnapshot {
        ScorerSnapshot::new(&self.ppo.policy)
    }

    /// Borrow the agent as its decision head (inference only): a
    /// [`Policy`] for `run_episode`, the replay engine and every `repro`
    /// table — the one in-process way to ask the agent for a decision.
    /// The head owns encode and network scratch buffers and reads the
    /// session's wait queue in place, so repeated decisions allocate
    /// nothing. Every architecture decides through [`Agent::score`]; a
    /// serving shard scores the same rows through
    /// [`rlsched_rl::greedy_batch`], bit for bit.
    pub fn as_policy(&self) -> RlPolicy<'_> {
        RlPolicy {
            agent: self,
            name: format!("RL-{}", self.cfg.metric.name()),
            scratch: ActorScratch::new(),
            obs: Vec::new(),
            mask: Vec::new(),
        }
    }

    /// [`Agent::as_policy`] under the name replay callers know it by: the
    /// same head, there is only one.
    pub fn stream_decider(&self) -> RlPolicy<'_> {
        self.as_policy()
    }

    /// Serialize configuration and weights to JSON.
    pub fn save_json(&self) -> String {
        let ckpt = Checkpoint {
            cfg: self.cfg.clone(),
            policy: PolicyJson::of(&self.ppo.policy),
            value: CriticJson {
                net: self.ppo.value.clone(),
            },
        };
        serde_json::to_string(&ckpt).expect("agent serialization is infallible")
    }

    /// Restore an agent (fresh optimizer state) from [`Agent::save_json`]
    /// output. Both networks are held to the architectures the
    /// configuration names at its window — the head, every parameter's
    /// shape, every conv stride and the activations [`build_policy`] and
    /// [`build_critic`] give — so a checkpoint whose networks are not what
    /// [`Agent::config`] reports, or would fail at its first decision, is
    /// an error here instead.
    pub fn load_json(s: &str) -> Result<Agent, serde_json::Error> {
        let ckpt: Checkpoint = serde_json::from_str(s)?;
        let (kind, max_obsv) = (ckpt.cfg.policy, ckpt.cfg.obs.max_obsv);
        let policy = ckpt.policy.into_policy();
        let fits = |what: &str, r: Result<(), String>| {
            r.map_err(|e| serde_json::Error::custom(format!("checkpoint {what}: {e}")))
        };
        fits("policy", check_policy(&policy, kind, max_obsv))?;
        fits("value net", check_critic(&ckpt.value.net, max_obsv))?;
        let mut ppo_cfg = ckpt.cfg.ppo;
        ppo_cfg.update_seed = ckpt.cfg.seed;
        let ppo = Ppo::new(policy, ckpt.value.net, ppo_cfg);
        Ok(Agent {
            encoder: ObsEncoder::new(ckpt.cfg.obs),
            cfg: ckpt.cfg,
            ppo,
        })
    }
}

/// A trained agent's decision head: selects greedily, no exploration
/// (§IV-B1's test path). Owns the encode and inference buffers, so
/// steady-state decisions are allocation-free.
pub struct RlPolicy<'a> {
    agent: &'a Agent,
    name: String,
    scratch: ActorScratch,
    obs: Vec<f32>,
    mask: Vec<f32>,
}

impl RlPolicy<'_> {
    /// Pick a queue rank for one decision point given as plain data.
    /// `queue_len` must be the number of jobs `waiting` yields (FCFS
    /// order, as the simulator streams them) — [`Policy::pick`] passes the
    /// session's own; a caller holding a snapshot passes
    /// `view.waiting.iter().copied()`.
    pub fn decide<'j>(
        &mut self,
        free_procs: u32,
        total_procs: u32,
        queue_len: usize,
        waiting: impl Iterator<Item = WaitingJob<'j>>,
    ) -> usize {
        self.obs.clear();
        self.mask.clear();
        self.agent.encoder.encode_jobs_extend(
            free_procs,
            total_procs,
            queue_len,
            waiting,
            &mut self.obs,
            &mut self.mask,
        );
        // Masking keeps the action below `queue_len`; clamp defensively.
        let action = self.agent.score(&self.obs, &self.mask, &mut self.scratch);
        action.min(queue_len.saturating_sub(1))
    }
}

impl Policy for RlPolicy<'_> {
    type Error = Infallible;

    fn pick<I: Iterator<Item = Job>, O: Outcomes>(
        &mut self,
        session: &mut StreamSession<I, O>,
    ) -> Result<usize, Infallible> {
        Ok(self.decide(
            session.free_procs(),
            session.total_procs(),
            session.queue_len(),
            session.waiting(),
        ))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_sim::{run_episode, SimConfig};
    use rlsched_swf::{Job, JobTrace};

    fn small_cfg() -> AgentConfig {
        AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed: 7,
        }
    }

    fn toy_trace() -> JobTrace {
        let jobs = (0..30u32)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 20.0,
                    50.0 + (i % 4) as f64 * 200.0,
                    1 + (i % 3),
                    900.0,
                )
            })
            .collect();
        JobTrace::new(jobs, 4)
    }

    #[test]
    fn fresh_agent_schedules_a_trace() {
        let agent = Agent::new(small_cfg());
        let mut policy = agent.as_policy();
        let m = run_episode(&toy_trace(), SimConfig::default(), &mut policy).unwrap();
        assert_eq!(m.outcomes().len(), 30);
    }

    #[test]
    fn save_load_round_trip_preserves_decisions() {
        let agent = Agent::new(small_cfg());
        let json = agent.save_json();
        let loaded = Agent::load_json(&json).unwrap();
        let t = toy_trace();
        let m1 = run_episode(&t, SimConfig::default(), &mut agent.as_policy()).unwrap();
        let m2 = run_episode(&t, SimConfig::default(), &mut loaded.as_policy()).unwrap();
        assert_eq!(m1, m2, "loaded agent must schedule identically");
    }

    #[test]
    fn greedy_is_deterministic_across_calls() {
        let agent = Agent::new(small_cfg());
        let t = toy_trace();
        let a = run_episode(&t, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();
        let b = run_episode(&t, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_name_reflects_metric() {
        let agent = Agent::new(AgentConfig {
            metric: MetricKind::Utilization,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            ..AgentConfig::paper_default()
        });
        assert_eq!(agent.as_policy().name(), "RL-util");
    }

    #[test]
    fn paper_default_matches_section_4() {
        let cfg = AgentConfig::paper_default();
        assert_eq!(cfg.obs.max_obsv, 128);
        assert_eq!(cfg.policy, PolicyKind::Kernel);
        let agent = Agent::new(cfg);
        assert!(agent.policy_param_count() < 1000);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Agent::load_json("{}").is_err());
    }
}
