//! Per-layer trace of `train_epochs`.
//!
//! One epoch is driven by hand exactly as `rlscheduler::train` drives it —
//! same env slots, same seed schedule, `collect_rollouts_vec` then
//! `Ppo::update_profiled` — with a timer around each call and the
//! program's own `UpdateProfile` for the phases inside the update:
//!
//! ```text
//! train.epoch
//! ├─ rl.sampler.rollout        collect_rollouts_vec
//! │  └─ core.env.step          estimated: isolated SchedulingEnv steps × transitions
//! └─ rl.ppo.update             Ppo::update_profiled
//!    ├─ rl.ppo.gather          UpdateProfile::gather
//!    ├─ nn.fused.forward       UpdateProfile::forward
//!    ├─ nn.fused.backward      UpdateProfile::backward
//!    └─ nn.optim.step          UpdateProfile::optimizer
//! ```
//!
//! The hand-driven epoch must produce the same `EpochStats`, bit for bit,
//! as the end-to-end passes, or the row says `correct: false`. This file is
//! the only place the benchmark touches `SchedulingEnv`, `VecEnv`,
//! `collect_rollouts_vec` and `update_profiled`; retarget it when the
//! samplers or update paths are merged.

use std::sync::Arc;
use std::time::Instant;

use serde_json::json;

use rlsched_rl::{collect_rollouts_vec, Env, UpdateProfile, VecEnv};
use rlsched_swf::JobTrace;
use rlscheduler::{EpochStats, SchedulingEnv};

use crate::estimate::best_min;
use crate::spans::Recorder;
use crate::train::{epoch_once, finite, stats_text, TrainSpec, NAME};
use crate::{measure_passes, per_layer_row, Outcome, RunArgs};

struct TracedEpoch {
    wall_s: f64,
    rollout_s: f64,
    update_s: f64,
    prof: UpdateProfile,
    transitions: usize,
    epoch: EpochStats,
    rec: Recorder,
}

/// `train()`'s epoch 0, written out with timers.
fn traced_epoch(spec: &TrainSpec, trace: &Arc<JobTrace>, seed: u64, pass: u32) -> TracedEpoch {
    let mut rec = Recorder::new(pass);
    let rollout_layer = rec.layer("rl.sampler.rollout", None);
    let update_layer = rec.layer("rl.ppo.update", None);
    let phases = [
        rec.layer("rl.ppo.gather", Some(update_layer)),
        rec.layer("nn.fused.forward", Some(update_layer)),
        rec.layer("nn.fused.backward", Some(update_layer)),
        rec.layer("nn.optim.step", Some(update_layer)),
    ];
    let cfg = spec.config(spec.trajectories, seed);
    let mut agent = spec.fresh_agent();

    let t0 = Instant::now();
    let (encoder, objective) = (*agent.encoder(), agent.objective());
    let n_slots = cfg.n_envs.max(1).min(cfg.trajectories_per_epoch);
    let mut envs: Vec<SchedulingEnv> = (0..n_slots)
        .map(|_| SchedulingEnv::new(Arc::clone(trace), cfg.seq_len, cfg.sim, encoder, objective))
        .collect();
    // Epoch 0 of train()'s schedule: seed ^ epoch·0x9E3779B9 ^ i·0x85EBCA6B.
    let seeds: Vec<u64> = (0..cfg.trajectories_per_epoch as u64)
        .map(|i| cfg.seed ^ i.wrapping_mul(0x85EB_CA6B))
        .collect();

    let t1 = Instant::now();
    let (batch, stats) = {
        let mut venv: VecEnv<&mut SchedulingEnv> = VecEnv::new(envs.iter_mut().collect());
        collect_rollouts_vec(agent.ppo(), &mut venv, &seeds)
    };
    let t2 = Instant::now();
    let mut prof = UpdateProfile::default();
    let update = agent.ppo_mut().update_profiled(&batch, &mut prof);
    let t3 = Instant::now();

    rec.span(rollout_layer, t1, t2, 0);
    rec.span(update_layer, t2, t3, 0);
    for (layer, busy) in
        phases
            .into_iter()
            .zip([prof.gather, prof.forward, prof.backward, prof.optimizer])
    {
        rec.add_busy(layer, busy.as_nanos() as u64, 1);
    }
    TracedEpoch {
        wall_s: (t3 - t0).as_secs_f64(),
        rollout_s: (t2 - t1).as_secs_f64(),
        update_s: (t3 - t2).as_secs_f64(),
        prof,
        transitions: stats.steps,
        epoch: EpochStats {
            epoch: 0,
            mean_metric: stats.mean_metric(),
            mean_return: stats.mean_return,
            filtered: false,
            update,
        },
        rec,
    }
}

/// Seconds per `SchedulingEnv::step` (simulator step plus observation
/// encoding), from one env stepped alone with a fixed action over the
/// first trajectories of the epoch's seed schedule.
fn env_step_s(spec: &TrainSpec, trace: &Arc<JobTrace>, seed: u64) -> f64 {
    let agent = spec.fresh_agent();
    let cfg = spec.config(spec.trajectories, seed);
    let mut env = SchedulingEnv::new(
        Arc::clone(trace),
        cfg.seq_len,
        cfg.sim,
        *agent.encoder(),
        agent.objective(),
    );
    let (mut obs, mut mask) = (Vec::new(), Vec::new());
    let episodes = spec.trajectories.min(8) as u64;
    let round = |env: &mut SchedulingEnv, obs: &mut Vec<f32>, mask: &mut Vec<f32>| {
        let (mut busy, mut steps) = (0.0, 0u64);
        for i in 0..episodes {
            obs.clear();
            mask.clear();
            env.reset(cfg.seed ^ i.wrapping_mul(0x85EB_CA6B), obs, mask);
            let t = Instant::now();
            loop {
                obs.clear();
                mask.clear();
                steps += 1;
                if env.step(0, obs, mask).done {
                    break;
                }
            }
            busy += t.elapsed().as_secs_f64();
        }
        busy / steps as f64
    };
    best_min(
        &(0..3)
            .map(|_| round(&mut env, &mut obs, &mut mask))
            .collect::<Vec<_>>(),
    )
}

/// `trace train_epochs`.
pub fn trace(spec: &TrainSpec, args: RunArgs) -> Result<Outcome, String> {
    let plain_trace = spec.trace(args.seed);
    let trace = Arc::new(plain_trace.clone());
    let third = args.seconds / 3.0;

    // Reference epochs through `train()` itself.
    let plain = measure_passes(
        third,
        |_| epoch_once(spec, &plain_trace, spec.trajectories, args.seed),
        |p| p.stat.wall_s,
    )?;
    let plain_wall = best_min(&plain.iter().map(|p| p.stat.wall_s).collect::<Vec<_>>());

    let traced = measure_passes(
        third,
        |i| Ok(traced_epoch(spec, &trace, args.seed, i as u32)),
        |t| t.wall_s,
    )?;
    let reference = stats_text(&plain[0].epoch);
    let identical = traced.iter().all(|t| stats_text(&t.epoch) == reference);
    let sound = traced
        .iter()
        .all(|t| finite(&t.epoch) && t.epoch.update.pi_iters == spec.pi_iters);
    let t = traced
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least three traced epochs ran");

    let share = |s: f64| s / t.wall_s;
    let env_s = env_step_s(spec, &trace, args.seed) * t.transitions as f64;
    let phases = [
        t.prof.gather,
        t.prof.forward,
        t.prof.backward,
        t.prof.optimizer,
    ]
    .map(|d| d.as_secs_f64());
    let rows_per_iter = spec.minibatch.min(t.transitions);
    let metrics = per_layer_row(&[
        ("core.env.share", share(env_s)),
        ("rl.sampler.rollout_share", share(t.rollout_s)),
        ("rl.sampler.transitions", t.transitions as f64),
        ("rl.ppo.update_share", share(t.update_s)),
        ("rl.ppo.gather_share", share(phases[0])),
        ("nn.fused.forward_share", share(phases[1])),
        ("nn.fused.backward_share", share(phases[2])),
        ("nn.optim.share", share(phases[3])),
        (
            "rl.ppo.unattributed_share",
            share(t.update_s - phases.iter().sum::<f64>()),
        ),
        ("rl.ppo.pi_iters", t.epoch.update.pi_iters as f64),
        (
            "rl.ppo.row_iters",
            ((spec.pi_iters + spec.v_iters) * rows_per_iter) as f64,
        ),
        (
            "train.epoch_self_share",
            share(t.wall_s - t.rollout_s - t.update_s),
        ),
        (
            "trace.covered_share",
            share(t.rollout_s + phases.iter().sum::<f64>()),
        ),
        ("trace.overhead_share", t.wall_s / plain_wall - 1.0),
        ("trace.pass_wall_s", t.wall_s),
    ]);

    let attempted: u64 = traced.iter().map(|t| t.transitions as u64).sum();
    let info = json!({
        "workload": NAME, "seed": args.seed, "sizes": spec.sizes(),
        "layers": t.rec.table(),
        "core.env.step_ns": env_s / t.transitions as f64 * 1e9,
        "rl.sampler.step_ns": t.rollout_s / t.transitions as f64 * 1e9,
        "rl.ppo.row_iter_ns": t.update_s / ((spec.pi_iters + spec.v_iters) * rows_per_iter) as f64 * 1e9,
        "untraced_wall_s": plain.iter().map(|p| p.stat.wall_s).collect::<Vec<_>>(),
        "traced_wall_s": traced.iter().map(|t| t.wall_s).collect::<Vec<_>>(),
        "traced_equals_end_to_end": identical,
    });
    Ok(Outcome {
        correct: identical && sound,
        attempted,
        failed: if identical && sound { 0 } else { attempted },
        metrics,
        info,
    })
}
