//! PPO update cost: one policy+value update over a fixed collected batch —
//! the other half of the Table IX epoch time (sampling being the first).
//!
//! Besides wall-clock medians, this bench counts **heap allocations** via
//! a wrapping global allocator: the fused update and the fast-path
//! rollouts exist to drive allocations/iteration toward zero, so the
//! count is printed next to each measurement (`allocs/call`) and is the
//! number to watch across PRs.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_bench::alloc::count_allocs;
use rlsched_rl::{collect_episodes, collect_rollouts_vec, Env, PpoConfig, RolloutBuffer, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn bench_update(c: &mut Criterion) {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    let cfg = AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 5,
            train_v_iters: 5,
            minibatch: Some(512),
            ..PpoConfig::default()
        },
        seed: 5,
    };
    let mut agent = Agent::new(cfg);
    let encoder = *agent.encoder();
    let objective = agent.objective();

    // Collect one reusable batch of 8 x 128-step episodes.
    let mut envs: Vec<SchedulingEnv> = (0..8)
        .map(|_| SchedulingEnv::new(trace.clone(), 128, SimConfig::default(), encoder, objective))
        .collect();
    let seeds: Vec<u64> = (0..8).collect();
    let rollout = |agent: &Agent, envs: &mut [SchedulingEnv]| {
        collect_rollouts_vec(
            agent.ppo(),
            &mut VecEnv::new(envs.iter_mut().collect()),
            &seeds,
        )
    };
    let (batch, _stats) = rollout(&agent, &mut envs);

    // Allocation profile, measured after one warm run of each path so
    // scratch buffers are at steady state. The update is counted on the
    // one-worker budget: spawning workers allocates per fan-out, which is
    // thread bring-up, not the update.
    let _ = agent.ppo_mut().update(&batch);
    let update_allocs =
        count_allocs(|| rlsched_nn::pool::with_threads(1, || agent.ppo_mut().update(&batch)));
    let rollout_allocs = count_allocs(|| rollout(&agent, &mut envs));
    let (obs, mask) = {
        let mut env = envs[0].clone();
        let (mut o, mut m) = (Vec::new(), Vec::new());
        env.reset(42, &mut o, &mut m);
        (o, m)
    };
    let mut scratch = rlsched_rl::ActorScratch::new();
    let _ = agent.ppo().greedy_with(&obs, &mask, &mut scratch);
    let fast_allocs = count_allocs(|| agent.ppo().greedy_with(&obs, &mask, &mut scratch));
    println!("\nallocation profile (heap allocations per call):");
    println!("  ppo_update (5+5, mb512):         {update_allocs}");
    println!("  rollout_8x128:                   {rollout_allocs}");
    println!("  greedy decision, fast path:      {fast_allocs}");

    let mut group = c.benchmark_group("ppo");
    group.sample_size(10);
    // The update training runs (the chunked fused backward).
    group.bench_function("update_5x5_iters_mb512", |b| {
        b.iter(|| std::hint::black_box(agent.ppo_mut().update(&batch)))
    });

    // Lockstep batched collection (all 8 envs scored through one stacked
    // forward per tick — the path training uses) vs the per-env baseline
    // (8 sequential single-env rollouts; bit-identical trajectories).
    group.bench_function("rollout_8x128", |b| {
        b.iter(|| {
            let (batch, _s) = rollout(&agent, &mut envs);
            std::hint::black_box(batch.len())
        })
    });
    group.bench_function("rollout_8x128_perenv", |b| {
        b.iter(|| {
            // Same merged, normalized batch as the lockstep arm (the
            // parity tests pin bit-identity) — only the stepping/scoring
            // strategy differs.
            let mut bufs = Vec::with_capacity(envs.len());
            for (env, &seed) in envs.iter_mut().zip(&seeds) {
                let mut venv: VecEnv<&mut SchedulingEnv> = VecEnv::new(vec![env]);
                let (mut episode_bufs, _s) = collect_episodes(agent.ppo(), &mut venv, &[seed]);
                bufs.append(&mut episode_bufs);
            }
            let batch = RolloutBuffer::into_batch(bufs);
            std::hint::black_box(batch.len())
        })
    });

    // One action selection through the allocation-free fast path.
    group.bench_function("select_fast_single", |b| {
        b.iter(|| std::hint::black_box(agent.ppo().greedy_with(&obs, &mask, &mut scratch)))
    });

    // Per-step env interaction without the network (simulator+encoding),
    // through the caller-owned buffers the sampler uses.
    group.bench_function("env_step_random_policy", |b| {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::SeedableRng;
        let mut env = envs[0].clone();
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        b.iter(|| {
            obs.clear();
            mask.clear();
            env.reset(rng.gen(), &mut obs, &mut mask);
            let mut steps = 0usize;
            loop {
                let valid = mask.iter().filter(|&&m| m == 0.0).count();
                let mut pick = rng.gen_range(0..valid);
                let a = mask
                    .iter()
                    .position(|&m| {
                        if m != 0.0 {
                            return false;
                        }
                        if pick == 0 {
                            true
                        } else {
                            pick -= 1;
                            false
                        }
                    })
                    .expect("a valid slot always exists");
                obs.clear();
                mask.clear();
                let out = env.step(a, &mut obs, &mut mask);
                steps += 1;
                if out.done {
                    break;
                }
            }
            std::hint::black_box(steps)
        })
    });
    group.finish();
}

/// Short, CI-friendly measurement settings: these are latency gauges, not
/// regression-grade statistics.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
criterion_group! {name = benches; config = short_config(); targets = bench_update}
criterion_main!(benches);
