//! Rollout throughput: env-steps/sec of trajectory collection at
//! n_envs ∈ {1, 8, 32}, comparing the lockstep **batched** path (one
//! `VecEnv(n)`, every live env scored through one stacked forward per
//! simulator tick) against the **per-env** path (n separate `VecEnv(1)`
//! collections — exactly the old sequential stepping). Identical seeds,
//! identical trajectories (the parity tests pin that), so the gap is
//! purely the amortization of the policy/critic weight stream.
//!
//! Each measured iteration collects `n_envs × SEQ_LEN` env-steps; divide
//! the printed median by that to get ns/env-step.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_rl::{collect_episodes, collect_rollouts_vec, PpoConfig, RolloutBuffer, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

const SEQ_LEN: usize = 64;

fn agent() -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    })
}

fn env_for(agent: &Agent) -> SchedulingEnv {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    SchedulingEnv::new(
        trace,
        SEQ_LEN,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    )
}

fn bench_rollout_throughput(c: &mut Criterion) {
    let agent = agent();
    let proto = env_for(&agent);

    let mut group = c.benchmark_group("rollout_throughput");
    for &n in &[1usize, 8, 32] {
        let seeds: Vec<u64> = (0..n as u64).collect();

        // Batched: one VecEnv stepping all n envs in lockstep.
        let mut venv = VecEnv::new((0..n).map(|_| proto.clone()).collect::<Vec<_>>());
        group.bench_function(format!("batched_n{n}"), |b| {
            b.iter(|| {
                let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
                std::hint::black_box(batch.len())
            })
        });

        // Per-env: n sequential single-env collections (the old path,
        // kept as a VecEnv of size 1), merged into the same single
        // normalized training batch the batched arm produces — identical
        // output bits (the parity tests pin that), so the margin is
        // purely the stepping/scoring strategy.
        let mut singles: Vec<VecEnv<SchedulingEnv>> =
            (0..n).map(|_| VecEnv::new(vec![proto.clone()])).collect();
        group.bench_function(format!("perenv_n{n}"), |b| {
            b.iter(|| {
                let mut bufs = Vec::with_capacity(n);
                for (venv, &seed) in singles.iter_mut().zip(&seeds) {
                    let (mut episode_bufs, _stats) = collect_episodes(agent.ppo(), venv, &[seed]);
                    bufs.append(&mut episode_bufs);
                }
                let batch = RolloutBuffer::into_batch(bufs);
                std::hint::black_box(batch.len())
            })
        });
    }
    group.finish();
}

/// Measurement settings: longer than the other benches' smoke gauges —
/// the batched-vs-per-env margin at large n is ~10-30%, and short
/// windows on a busy 1-core box cannot resolve that reliably.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(6))
        .sample_size(10)
}
criterion_group! {name = benches; config = short_config(); targets = bench_rollout_throughput}
criterion_main!(benches);
