//! `train_epochs`, end to end: one pass is `rlscheduler::train` for one
//! epoch on a fresh, fixed-seed kernel@128 agent — rollout, fused
//! forward/backward and optimizer — with `TrainConfig::default()`'s
//! `n_envs` and `n_threads`.

use std::time::Instant;

use serde_json::{json, Value};

use rlsched_rl::PpoConfig;
use rlsched_swf::JobTrace;
use rlscheduler::{train, Agent, EpochStats, TrainConfig};

use crate::{
    end_to_end, inputs, measure_passes, merge_info, Outcome, PassStat, RunArgs, Scale,
    SETUP_REPEATS,
};

pub const NAME: &str = "train_epochs";

/// The train workload's fixed shape: a scaled-down §V-A epoch (the paper:
/// 100 trajectories × 256 jobs, 80 + 80 iterations) whose iterations each do
/// paper-sized work — 2 048-row minibatches of 128-job windows — so a pass
/// takes about a second.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Jobs of the Lublin-1 trace the trajectories are windows of.
    pub trace_jobs: usize,
    pub trajectories: usize,
    /// Trajectories of the one-epoch `train` call that set-up includes.
    pub setup_trajectories: usize,
    pub seq_len: usize,
    pub pi_iters: usize,
    pub v_iters: usize,
    pub minibatch: usize,
}

pub fn spec(scale: Scale) -> TrainSpec {
    match scale {
        Scale::Full => TrainSpec {
            trace_jobs: 10_000,
            trajectories: 32,
            setup_trajectories: 1,
            seq_len: 256,
            pi_iters: 12,
            v_iters: 12,
            minibatch: 2_048,
        },
        Scale::Smoke => TrainSpec {
            trace_jobs: 1_500,
            trajectories: 2,
            setup_trajectories: 1,
            seq_len: 32,
            pi_iters: 2,
            v_iters: 2,
            minibatch: 48,
        },
    }
}

impl TrainSpec {
    /// A fresh agent: same weights and optimizer state every time.
    pub fn fresh_agent(&self) -> Agent {
        inputs::kernel_agent(PpoConfig {
            train_pi_iters: self.pi_iters,
            train_v_iters: self.v_iters,
            minibatch: Some(self.minibatch),
            // Never stop early: the iteration count, and so the work of a
            // pass, must not depend on how an approximate KL rounds.
            target_kl: 1e9,
            ..PpoConfig::default()
        })
    }

    pub fn config(&self, trajectories: usize, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 1,
            trajectories_per_epoch: trajectories,
            seq_len: self.seq_len,
            seed,
            ..TrainConfig::default()
        }
    }

    pub fn trace(&self, seed: u64) -> JobTrace {
        inputs::lublin1().0.generate(self.trace_jobs, seed)
    }

    pub fn sizes(&self) -> Value {
        json!({
            "trace_jobs": self.trace_jobs, "trajectories": self.trajectories,
            "setup_trajectories": self.setup_trajectories, "seq_len": self.seq_len,
            "pi_iters": self.pi_iters, "v_iters": self.v_iters, "minibatch": self.minibatch,
            "n_envs": TrainConfig::default().n_envs, "n_threads": TrainConfig::default().n_threads,
        })
    }
}

/// Transitions the trainer has collected in this process so far, from the
/// counter the program itself keeps (`train` does not return the count).
pub fn steps_total() -> u64 {
    rlsched_obs::global()
        .snapshot()
        .counter("rlsched_train_steps_total", &[])
        .unwrap_or(0)
}

/// True when every number of the epoch record is finite.
pub fn finite(e: &EpochStats) -> bool {
    let u = &e.update;
    [
        e.mean_metric,
        e.mean_return,
        u.approx_kl,
        u.pi_loss_before as f64,
        u.pi_loss_after as f64,
        u.v_loss_before as f64,
        u.v_loss_after as f64,
        u.entropy as f64,
    ]
    .iter()
    .all(|x| x.is_finite())
}

/// An epoch record as text. The JSON writer prints floats in their
/// shortest round-trip form, so equal text means equal bits.
pub fn stats_text(e: &EpochStats) -> String {
    serde_json::to_string(e).expect("EpochStats always serializes")
}

pub struct TrainPass {
    /// Building the agent (networks, optimizers, scratch).
    pub construct_s: f64,
    pub stat: PassStat,
    pub epoch: EpochStats,
}

/// Fresh agent, one `train` call of one epoch.
pub fn epoch_once(
    spec: &TrainSpec,
    trace: &JobTrace,
    trajectories: usize,
    seed: u64,
) -> Result<TrainPass, String> {
    let t0 = Instant::now();
    let mut agent = spec.fresh_agent();
    let construct_s = t0.elapsed().as_secs_f64();

    let steps_before = steps_total();
    let t1 = Instant::now();
    let mut curve = train(&mut agent, trace, &spec.config(trajectories, seed));
    let wall_s = t1.elapsed().as_secs_f64();
    let steps = steps_total() - steps_before;

    let epoch = curve
        .pop()
        .filter(|_| curve.is_empty())
        .ok_or("train returned no single epoch")?;
    let sound = finite(&epoch) && epoch.update.pi_iters == spec.pi_iters && steps > 0;
    // The caller waits for an epoch as a whole: at that grain a pass holds
    // one latency sample, which is its every percentile.
    let epoch_us = wall_s * 1e6;
    Ok(TrainPass {
        construct_s,
        stat: PassStat {
            wall_s,
            ops: steps.max(1),
            failed: if sound { 0 } else { steps.max(1) },
            p50_us: epoch_us,
            p99_us: epoch_us,
        },
        epoch,
    })
}

/// `run train_epochs`.
pub fn run(spec: &TrainSpec, args: RunArgs) -> Result<Outcome, String> {
    let t = Instant::now();
    let trace = spec.trace(args.seed);
    let input_gen_s = t.elapsed().as_secs_f64();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let p = epoch_once(spec, &trace, spec.setup_trajectories, args.seed)?;
        setups.push(p.construct_s + p.stat.wall_s);
    }
    let passes = measure_passes(
        args.seconds,
        |_| epoch_once(spec, &trace, spec.trajectories, args.seed),
        |p| p.stat.wall_s,
    )?;

    let first = stats_text(&passes[0].epoch);
    let repeatable = passes.iter().all(|p| stats_text(&p.epoch) == first);
    let stats: Vec<PassStat> = passes.iter().map(|p| p.stat.clone()).collect();
    let attempted = stats.iter().map(|s| s.ops).sum();
    let failed = stats.iter().map(|s| s.failed).sum();
    let (metrics, mut info) = end_to_end(&setups, &stats);
    merge_info(
        &mut info,
        json!({
            "workload": NAME, "seed": args.seed, "sizes": spec.sizes(),
            "input_gen_s": input_gen_s,
            "construct_s": passes.iter().map(|p| p.construct_s).collect::<Vec<_>>(),
            "transitions": stats[0].ops,
            "epoch": serde_json::to_value(&passes[0].epoch),
            "passes_bit_equal": repeatable,
        }),
    );
    Ok(Outcome {
        correct: failed == 0 && repeatable,
        attempted,
        failed,
        metrics,
        info,
    })
}
