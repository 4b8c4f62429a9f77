//! Batched ≡ sequential parity on the *real* scheduling stack: a
//! `VecEnv(n)` rollout over `SchedulingEnv`s with the paper's policy
//! architectures must produce bit-identical trajectories (observations,
//! actions, rewards/returns, advantages, sampled log-probs) to n
//! sequential single-env rollouts. CI runs this suite on both the SIMD and `RLSCHED_FORCE_SCALAR=1`
//! dispatch arms.

use std::sync::Arc;

use rlsched_rl::{collect_episodes, Batch, PpoConfig, RolloutBuffer, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn agent_of(kind: PolicyKind, max_obsv: usize) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 9,
    })
}

fn env_for(agent: &Agent, seq_len: usize) -> SchedulingEnv {
    let trace = Arc::new(NamedWorkload::Lublin1.generate(400, 7));
    SchedulingEnv::new(
        trace,
        seq_len,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    )
}

fn assert_batches_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: transitions");
    for i in 0..a.len() {
        assert_eq!(a.row(i), b.row(i), "{what}: observation and mask {i}");
    }
    assert_eq!(a.actions, b.actions, "{what}: actions");
    assert_eq!(a.advantages, b.advantages, "{what}: advantages");
    assert_eq!(a.returns, b.returns, "{what}: returns");
    assert_eq!(a.logp_old, b.logp_old, "{what}: sampled log-probs");
}

/// VecEnv(n) vs n × VecEnv(1) over real scheduling episodes, for the
/// paper's kernel policy and a flat-MLP baseline (the two batched
/// fast-path families; the CNN routes through the same per-row default).
#[test]
fn batched_scheduling_rollout_matches_sequential() {
    for (kind, max_obsv) in [(PolicyKind::Kernel, 16), (PolicyKind::MlpV2, 16)] {
        let agent = agent_of(kind, max_obsv);
        let seeds: Vec<u64> = (40..44).collect();

        let mut venv = VecEnv::new(
            (0..seeds.len())
                .map(|_| env_for(&agent, 24))
                .collect::<Vec<_>>(),
        );
        let (batched_bufs, batched_stats) = collect_episodes(agent.ppo(), &mut venv, &seeds);

        let mut seq_bufs = Vec::new();
        let mut seq_metrics = Vec::new();
        for &seed in &seeds {
            let mut single = VecEnv::new(vec![env_for(&agent, 24)]);
            let (mut bufs, stats) = collect_episodes(agent.ppo(), &mut single, &[seed]);
            seq_bufs.append(&mut bufs);
            seq_metrics.extend(stats.metrics);
        }

        assert_eq!(
            batched_stats.metrics, seq_metrics,
            "{kind:?}: episode metrics"
        );
        let batched = RolloutBuffer::into_batch(batched_bufs);
        let sequential = RolloutBuffer::into_batch(seq_bufs);
        assert_batches_identical(&batched, &sequential, &format!("{kind:?} batched-vs-seq"));
    }
}

/// Lockstep width must be invisible: pipelining the same seed schedule
/// through 2 slots (with auto-reset) equals one slot per episode.
#[test]
fn lockstep_width_does_not_change_trajectories() {
    let agent = agent_of(PolicyKind::Kernel, 16);
    let seeds: Vec<u64> = (90..96).collect();
    let run = |slots: usize| {
        let mut venv = VecEnv::new((0..slots).map(|_| env_for(&agent, 20)).collect::<Vec<_>>());
        let (bufs, stats) = collect_episodes(agent.ppo(), &mut venv, &seeds);
        (RolloutBuffer::into_batch(bufs), stats)
    };
    let (wide, ws) = run(6);
    let (narrow, ns) = run(2);
    assert_batches_identical(&wide, &narrow, "6 slots vs 2 slots");
    assert_eq!(ws.metrics, ns.metrics);
}
