//! End-to-end RL integration: training improves scheduling, models
//! transfer through checkpoints, and the trained policy plugs into the
//! same evaluation protocol as the heuristics.

use rlsched_repro::core::prelude::*;
use rlsched_repro::sched::RandomPolicy;
use rlsched_repro::workload::NamedWorkload;

fn small_agent(seed: u64) -> Agent {
    let mut cfg = AgentConfig::paper_default();
    cfg.obs.max_obsv = 16;
    cfg.ppo.train_pi_iters = 12;
    cfg.ppo.train_v_iters = 12;
    cfg.ppo.minibatch = Some(384);
    cfg.seed = seed;
    Agent::new(cfg)
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        trajectories_per_epoch: 10,
        seq_len: 64,
        sim: SimConfig::default(),
        filter: FilterMode::Off,
        seed: 31,
        n_envs: 8,
        n_threads: 1,
    }
}

#[test]
fn trained_agent_beats_its_untrained_self() {
    let trace = NamedWorkload::Lublin2.generate(1200, 21);
    let windows = sample_eval_windows(&trace, 4, 128, 77);

    let untrained = small_agent(5);
    let before = mean_metric(
        &evaluate_policy(&windows, SimConfig::default(), &mut untrained.as_policy()),
        MetricKind::BoundedSlowdown,
    );

    let mut agent = small_agent(5);
    train(&mut agent, &trace, &train_cfg(10));
    let after = mean_metric(
        &evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy()),
        MetricKind::BoundedSlowdown,
    );

    assert!(
        after < before,
        "training should improve eval bsld: before {before:.2}, after {after:.2}"
    );
}

#[test]
fn trained_agent_beats_random() {
    let trace = NamedWorkload::Lublin2.generate(1200, 22);
    let windows = sample_eval_windows(&trace, 4, 128, 78);
    let mut agent = small_agent(6);
    train(&mut agent, &trace, &train_cfg(10));
    let rl = mean_metric(
        &evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy()),
        MetricKind::BoundedSlowdown,
    );
    let rnd = mean_metric(
        &evaluate_policy(&windows, SimConfig::default(), &mut RandomPolicy::new(9)),
        MetricKind::BoundedSlowdown,
    );
    assert!(rl < rnd, "RL ({rl:.2}) should beat Random ({rnd:.2})");
}

#[test]
fn checkpoint_transfer_matches_original_everywhere() {
    // The Table VII mechanism: a model trained on X is serialized and
    // applied to trace Y; the loaded copy must act identically.
    let train_trace = NamedWorkload::Lublin1.generate(800, 23);
    let mut agent = small_agent(7);
    train(&mut agent, &train_trace, &train_cfg(4));

    let loaded = Agent::load_json(&agent.save_json()).expect("valid checkpoint");
    for target in [NamedWorkload::Lublin2, NamedWorkload::SdscSp2] {
        let trace = target.generate(500, 24);
        let windows = sample_eval_windows(&trace, 3, 100, 50);
        let a = evaluate_policy(&windows, SimConfig::with_backfill(), &mut agent.as_policy());
        let b = evaluate_policy(
            &windows,
            SimConfig::with_backfill(),
            &mut loaded.as_policy(),
        );
        assert_eq!(a, b, "transfer decisions differ on {}", target.name());
    }
}

#[test]
fn training_is_reproducible() {
    let trace = NamedWorkload::Lublin2.generate(600, 25);
    let mut a = small_agent(8);
    let ca = train(&mut a, &trace, &train_cfg(3));
    let mut b = small_agent(8);
    let cb = train(&mut b, &trace, &train_cfg(3));
    let ma: Vec<f64> = ca.iter().map(|e| e.mean_metric).collect();
    let mb: Vec<f64> = cb.iter().map(|e| e.mean_metric).collect();
    assert_eq!(ma, mb, "same seeds must give the same curve");
    // And the resulting policies act identically.
    let windows = sample_eval_windows(&trace, 2, 80, 51);
    assert_eq!(
        evaluate_policy(&windows, SimConfig::default(), &mut a.as_policy()),
        evaluate_policy(&windows, SimConfig::default(), &mut b.as_policy())
    );
}

#[test]
fn training_yields_bit_identical_params_for_identical_seeds() {
    // The SIMD-training-path determinism contract: with the same seed,
    // two training runs must produce *bit-identical* trained parameters
    // and episode metrics. The kernels' chains do not depend on the CPU
    // or the data, and the worker pool splits work by input size alone,
    // so thread scheduling cannot perturb a single bit.
    let trace = NamedWorkload::Lublin1.generate(600, 27);
    let mut a = small_agent(9);
    let ca = train(&mut a, &trace, &train_cfg(3));
    let mut b = small_agent(9);
    let cb = train(&mut b, &trace, &train_cfg(3));
    assert_eq!(
        a.save_json(),
        b.save_json(),
        "trained checkpoints (policy + value weights) must be bit-identical"
    );
    let ma: Vec<f64> = ca.iter().map(|e| e.mean_metric).collect();
    let mb: Vec<f64> = cb.iter().map(|e| e.mean_metric).collect();
    assert_eq!(ma, mb, "per-epoch episode metrics must be bit-identical");
}

#[test]
fn fairness_objective_trains_and_reports() {
    let trace = NamedWorkload::Hpc2n.generate(800, 26);
    let mut cfg = AgentConfig::for_metric(MetricKind::FairMaxBoundedSlowdown);
    cfg.obs.max_obsv = 16;
    cfg.ppo.train_pi_iters = 8;
    cfg.ppo.train_v_iters = 8;
    let mut agent = Agent::new(cfg);
    let curve = train(&mut agent, &trace, &train_cfg(3));
    assert_eq!(curve.len(), 3);
    for e in &curve {
        assert!(e.mean_metric >= 1.0, "max per-user bsld is at least 1");
    }
    // Evaluation exposes the per-user aggregation.
    let windows = sample_eval_windows(&trace, 2, 100, 52);
    let results = evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy());
    for m in &results {
        assert!(m.max_user_bounded_slowdown() >= m.avg_bounded_slowdown() - 1e-9);
    }
}
