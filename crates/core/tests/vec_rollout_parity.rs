//! Batched ≡ sequential parity on the *real* scheduling stack: a
//! `VecEnv(n)` rollout over `SchedulingEnv`s with the paper's policy
//! architectures must produce bit-identical trajectories (stored job
//! rows, actions, rewards/returns, advantages, sampled log-probs) to n
//! sequential single-env rollouts. The batch stores each
//! window's valid job rows only, and a full-size rollout's storage is
//! pinned to exactly that.

use std::sync::Arc;

use rlsched_rl::categorical::MASK_OFF;
use rlsched_rl::{
    collect_arena, collect_rollouts_vec, ArrivalArena, Batch, Env, PpoConfig, VecEnv,
};
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
        assert_eq!(a.row(i), b.row(i), "{what}: job rows {i}");
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
        let (batched, batched_stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

        let mut arenas = Vec::new();
        let mut seq_metrics = Vec::new();
        for &seed in &seeds {
            let mut single = VecEnv::new(vec![env_for(&agent, 24)]);
            let (arena, stats) = collect_arena(agent.ppo(), &mut single, &[seed]);
            arenas.push(arena);
            seq_metrics.extend(stats.metrics);
        }

        assert_eq!(
            batched_stats.metrics, seq_metrics,
            "{kind:?}: episode metrics"
        );
        let sequential = ArrivalArena::merge_into_batch(arenas);
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
        collect_rollouts_vec(agent.ppo(), &mut venv, &seeds)
    };
    let (wide, ws) = run(6);
    let (narrow, ns) = run(2);
    assert_batches_identical(&wide, &narrow, "6 slots vs 2 slots");
    assert_eq!(ws.metrics, ns.metrics);
}

/// The batch keeps each window's valid job rows and nothing else: a
/// rollout at the paper's 128-job window, replayed action by action
/// through a fresh env, stores exactly every window's first `n` job rows
/// (`n` read off the mask the env wrote), and its storage is `4 · F ·
/// Σ n` bytes of rows plus one 4-byte count per transition — no mask
/// floats, no padding.
#[test]
fn batch_stores_only_each_windows_valid_job_rows() {
    let agent = agent_of(PolicyKind::Kernel, 128);
    let seeds: Vec<u64> = (7..11).collect();
    let mut venv = VecEnv::new((0..2).map(|_| env_for(&agent, 48)).collect::<Vec<_>>());
    let (batch, stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
    let f = rlscheduler::JOB_FEATURES;
    assert_eq!((batch.features(), batch.n_actions()), (f, 128));
    assert_eq!(batch.len(), stats.steps);

    // Replay each episode in batch (seed) order with the stored actions.
    let mut env = env_for(&agent, 48);
    let (mut obs, mut mask) = (Vec::new(), Vec::new());
    let (mut i, mut job_rows, mut padded) = (0, 0, 0);
    for &seed in &seeds {
        env.reset(seed, &mut obs, &mut mask);
        loop {
            let n = mask.iter().take_while(|&&m| m == 0.0).count();
            assert!(mask[n..].iter().all(|&m| m == MASK_OFF), "prefix mask");
            assert!(obs[n * f..].iter().all(|&v| v == 0.0), "zero padding");
            assert_eq!(batch.row(i), &obs[..n * f], "transition {i}");
            job_rows += n;
            padded += usize::from(n < 128);
            let action = batch.actions[i];
            i += 1;
            obs.clear();
            mask.clear();
            if env.step(action, &mut obs, &mut mask).done {
                break;
            }
        }
    }
    assert_eq!(i, batch.len(), "every transition replayed");
    assert!(padded > 0, "the windows are padded");
    assert_eq!(batch.storage_bytes(), 4 * f * job_rows + 4 * batch.len());
    assert!(
        batch.storage_bytes() < batch.len() * 128 * (f + 1) * 4 / 2,
        "ragged rows are under half of the dense windows and masks"
    );
}
