//! Multi-core ≡ single-core parity on the real scheduling stack, at
//! every worker count. Three contracts, each pinned with exact `==`:
//!
//! 1. `collect_rollouts_par` assembles the *same bytes* as the
//!    sequential `collect_rollouts_vec` — partitioned seed schedules,
//!    per-worker `VecEnv`s and the seed-ordered arena merge are
//!    invisible in the batch.
//! 2. `Ppo::update` (the chunked fused pass) is bit-identical at worker
//!    budgets 1, 2, 3 and 7.
//! 3. `train()` reproduces the same curve and checkpoint at every
//!    `n_threads`, at single-chunk and multi-chunk minibatch sizes, and
//!    an agent carries nothing over from the `n_threads` of an earlier
//!    run.
//!
//! CI runs this suite on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`); the worker counts are swept in-process
//! with `rlsched_nn::pool::with_threads`, which spawns real threads on
//! any machine.

use std::sync::Arc;

use rlsched_rl::{collect_rollouts_par, collect_rollouts_vec, Batch, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    train, Agent, AgentConfig, FilterMode, ObsConfig, PolicyKind, SchedulingEnv, TrainConfig,
    TrainingCurve,
};

fn agent_of(kind: PolicyKind, ppo: PpoConfig) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo,
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

/// Parallel rollout over partitioned seed schedules vs the sequential
/// vectorized sampler, across worker counts and both fast-path policy
/// families.
#[test]
fn parallel_rollout_matches_sequential_on_scheduling_envs() {
    for kind in [PolicyKind::Kernel, PolicyKind::MlpV2] {
        let agent = agent_of(kind, PpoConfig::default());
        let seeds: Vec<u64> = (60..73).collect(); // 13 episodes: ragged split

        let mut venv = VecEnv::new((0..4).map(|_| env_for(&agent, 24)).collect::<Vec<_>>());
        let (base_batch, base_stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

        for threads in [1usize, 2, 3, 7] {
            let (batch, stats) = rlsched_nn::pool::with_threads(threads, || {
                collect_rollouts_par(agent.ppo(), || env_for(&agent, 24), 3, &seeds)
            });
            let what = format!("{kind:?} at {threads} workers");
            assert_batches_identical(&batch, &base_batch, &what);
            assert_eq!(stats.steps, base_stats.steps, "{what}: step count");
            assert_eq!(stats.metrics, base_stats.metrics, "{what}: metrics");
            assert_eq!(
                stats.mean_return.to_bits(),
                base_stats.mean_return.to_bits(),
                "{what}: mean return"
            );
        }
    }
}

/// One collected batch for a given agent (contents only depend on the
/// policy weights and seeds, which are fixed).
fn batch_for(agent: &Agent, episodes: usize, seq_len: usize) -> Batch {
    let mut venv = VecEnv::new(
        (0..episodes)
            .map(|_| env_for(agent, seq_len))
            .collect::<Vec<_>>(),
    );
    let seeds: Vec<u64> = (0..episodes as u64).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
    batch
}

/// The update must produce identical stats and checkpoints at every
/// worker budget (multi-chunk minibatches, so the gradient merge runs).
#[test]
fn update_is_thread_count_invariant() {
    let ppo = PpoConfig {
        train_pi_iters: 4,
        train_v_iters: 4,
        minibatch: Some(150), // 3 chunks, last ragged
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    let proto = agent_of(PolicyKind::Kernel, ppo);
    let batch = batch_for(&proto, 5, 40);

    let run = |threads: usize| {
        let mut a = Agent::load_json(&proto.save_json()).expect("clone");
        let stats = rlsched_nn::pool::with_threads(threads, || {
            (0..3)
                .map(|_| a.ppo_mut().update(&batch))
                .collect::<Vec<_>>()
        });
        (stats, a.save_json())
    };

    let (base_stats, base_ckpt) = run(1);
    for threads in [2usize, 3, 7] {
        let (stats, ckpt) = run(threads);
        assert_eq!(stats, base_stats, "stats diverged at {threads} workers");
        assert_eq!(ckpt, base_ckpt, "checkpoint diverged at {threads} workers");
    }
}

/// Train one fresh agent once per entry of `n_threads`, back to back;
/// returns every run's curve and the final checkpoint.
fn train_runs(minibatch_rows: usize, n_threads: &[usize]) -> (Vec<TrainingCurve>, String) {
    let trace = NamedWorkload::Lublin1.generate(300, 13);
    let mut agent = Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 8,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 4,
            train_v_iters: 4,
            minibatch: Some(minibatch_rows),
            ..PpoConfig::default()
        },
        seed: 5,
    });
    let curves = n_threads
        .iter()
        .map(|&n_threads| {
            let cfg = TrainConfig {
                epochs: 2,
                trajectories_per_epoch: 6,
                seq_len: 20,
                sim: SimConfig::default(),
                filter: FilterMode::Off,
                seed: 11,
                n_envs: 4,
                n_threads,
            };
            train(&mut agent, &trace, &cfg)
        })
        .collect();
    (curves, agent.save_json())
}

fn assert_runs_identical(
    got: &(Vec<TrainingCurve>, String),
    want: &(Vec<TrainingCurve>, String),
    what: &str,
) {
    for (a, b) in got.0.iter().flatten().zip(want.0.iter().flatten()) {
        let epoch = a.epoch;
        assert_eq!(
            a.mean_metric.to_bits(),
            b.mean_metric.to_bits(),
            "{what}: mean metric, epoch {epoch}"
        );
        assert_eq!(
            a.mean_return.to_bits(),
            b.mean_return.to_bits(),
            "{what}: mean return, epoch {epoch}"
        );
        assert_eq!(a.update, b.update, "{what}: update stats, epoch {epoch}");
    }
    assert_eq!(got.1, want.1, "{what}: checkpoint");
}

/// End-to-end: `train()` walks the same curve and lands on the same
/// checkpoint at every `n_threads`, for single-chunk (48-row) and
/// multi-chunk (150-row) minibatches alike.
#[test]
fn training_curve_is_invariant_across_thread_counts() {
    for rows in [48usize, 150] {
        let base = train_runs(rows, &[1]);
        for threads in [2usize, 3, 7] {
            let what = format!("minibatch {rows} at {threads} threads");
            assert_runs_identical(&train_runs(rows, &[threads]), &base, &what);
        }
    }
}

/// `n_threads` is a per-run worker cap, not agent state: a one-thread
/// run after a four-thread run on the same agent must walk the curve it
/// walks after a one-thread run.
#[test]
fn n_threads_of_an_earlier_run_does_not_stick_to_the_agent() {
    assert_runs_identical(
        &train_runs(150, &[4, 1]),
        &train_runs(150, &[1, 1]),
        "train(4) then train(1) vs train(1) twice",
    );
}
