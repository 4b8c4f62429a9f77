//! The training loop (§V-A of the paper): epochs of vectorized
//! trajectory collection (a lockstep `VecEnv` scoring every live episode
//! through one stacked policy forward per simulator tick) followed by
//! PPO updates, with the optional two-phase trajectory-filter schedule
//! of §IV-C.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use rlsched_nn::pool;
use rlsched_obs::{Counter, Gauge, Histogram, Registry};
use rlsched_rl::{collect_rollouts_par, UpdateProfile, UpdateStats};
use rlsched_sim::SimConfig;
use rlsched_swf::JobTrace;

use crate::agent::Agent;
use crate::env::SchedulingEnv;
use crate::filter::TrajectoryFilter;

/// Trajectory-filter schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FilterMode {
    /// Train on every sampled sequence.
    Off,
    /// §IV-C two-step training: fit the SJF-metric distribution once, keep
    /// only in-range sequences for `phase1_epochs`, then open up.
    TwoPhase {
        /// Epochs restricted to the filter range.
        phase1_epochs: usize,
        /// Sequences sampled to fit the distribution.
        fit_samples: usize,
        /// Upper range bound as a multiple of the distribution mean; the
        /// paper uses 2 (`R = (median, 2·mean)`). Exposed for the
        /// filter-range ablation bench.
        hi_mult: f64,
    },
}

impl FilterMode {
    /// The paper's two-phase schedule with `R = (median, 2·mean)`.
    pub fn two_phase(phase1_epochs: usize, fit_samples: usize) -> Self {
        FilterMode::TwoPhase {
            phase1_epochs,
            fit_samples,
            hi_mult: 2.0,
        }
    }
}

/// Training-run configuration. The paper's full scale is 100 epochs of
/// 100 trajectories × 256 jobs (§V-A); the default here is that scale, and
/// the repro harness shrinks it for quick runs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories sampled per epoch.
    pub trajectories_per_epoch: usize,
    /// Jobs per trajectory.
    pub seq_len: usize,
    /// Simulator configuration (backfilling on/off).
    pub sim: SimConfig,
    /// Trajectory filtering schedule.
    pub filter: FilterMode,
    /// Base seed; every epoch/trajectory derives its own stream.
    pub seed: u64,
    /// Lockstep width cap: the epoch's `n` seeds are split into
    /// `rlsched_nn::pool::fan_out`'s fixed contiguous ranges (`min(n, 32)`
    /// of them, so at most ⌈n/32⌉ seeds each) and each range steps
    /// `min(n_envs, its seeds)` environment slots in lockstep, slots
    /// auto-resetting onto the range's next seed as episodes finish. At
    /// 32 trajectories per epoch or fewer every range is one env wide
    /// (the paper's 100 give ranges of 3 or 4), so this cap binds only
    /// above `32 × n_envs` trajectories; there it trades per-tick batch
    /// size against env-slot memory. Thanks to row-count-invariant
    /// batched forwards every collected bit is independent of it.
    pub n_envs: usize,
    /// Worker-thread cap for rollout collection and the PPO update. The
    /// default is the machine's core count
    /// (`std::thread::available_parallelism`); `0` reads as `1`. Work is
    /// partitioned by input size alone and merged in index order, so the
    /// curve and the checkpoint are bit-identical at every value — it
    /// only bounds how many cores an epoch may use.
    pub n_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            trajectories_per_epoch: 100,
            seq_len: 256,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 0,
            n_envs: 16,
            n_threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        }
    }
}

/// Per-epoch training record (one point of a Fig 8–13 curve).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean raw episode metric over the epoch's trajectories (e.g. average
    /// bounded slowdown) — the vertical axis of the paper's curves.
    pub mean_metric: f64,
    /// Mean scaled episodic return.
    pub mean_return: f64,
    /// Whether the trajectory filter restricted this epoch's sampling.
    pub filtered: bool,
    /// PPO update diagnostics.
    pub update: UpdateStats,
}

/// A whole training run's curve.
pub type TrainingCurve = Vec<EpochStats>;

/// Registry handles the training loop records into once per epoch:
/// the rollout's wall time and one phase-attributed time counter per
/// PPO phase, so the registry holds the epoch's rollout/update split.
/// Handles resolve against the process-global registry
/// ([`rlsched_obs::global`]) so `rlsched-serve`'s scrape endpoint — or
/// a `--metrics-dump` at exit — sees training progress without the
/// loop threading a registry through its API. Registration happens
/// once, before the epoch loop; the hot loop only touches atomics.
struct TrainMetrics {
    epochs: Counter,
    episodes: Counter,
    steps: Counter,
    /// Wall time of each epoch's trajectory collection.
    rollout_ns: Counter,
    update_phase_ns: [Counter; 4],
    /// The critic's parts of the forward and backward phases (a subset
    /// of `update_phase_ns`, so not one of its labels: that would count
    /// them twice).
    critic_phase_ns: [Counter; 2],
    /// Rows the policy passes scored, and the rows whole windows hold:
    /// their ratio is the share of the kernel network's work the padding
    /// no longer costs.
    policy_rows_scored: Counter,
    policy_rows_window: Counter,
    update_ns: Histogram,
    mean_return: Gauge,
    mean_metric: Gauge,
    approx_kl: Gauge,
    entropy: Gauge,
}

impl TrainMetrics {
    const PHASES: [&'static str; 4] = ["gather", "forward", "backward", "optimizer"];

    fn register(reg: &Registry) -> Self {
        let phase = |p: &str| reg.counter("rlsched_train_update_ns_total", &[("phase", p)]);
        let critic = |p: &str| reg.counter("rlsched_train_critic_ns_total", &[("phase", p)]);
        let rows = |r: &str| reg.counter("rlsched_train_policy_job_rows_total", &[("rows", r)]);
        TrainMetrics {
            epochs: reg.counter("rlsched_train_epochs_total", &[]),
            episodes: reg.counter("rlsched_train_episodes_total", &[]),
            steps: reg.counter("rlsched_train_steps_total", &[]),
            rollout_ns: reg.counter("rlsched_train_rollout_ns_total", &[]),
            update_phase_ns: [
                phase(Self::PHASES[0]),
                phase(Self::PHASES[1]),
                phase(Self::PHASES[2]),
                phase(Self::PHASES[3]),
            ],
            critic_phase_ns: [critic(Self::PHASES[1]), critic(Self::PHASES[2])],
            policy_rows_scored: rows("scored"),
            policy_rows_window: rows("window"),
            update_ns: reg.histogram("rlsched_train_update_ns", &[]),
            mean_return: reg.gauge("rlsched_train_mean_return", &[]),
            mean_metric: reg.gauge("rlsched_train_mean_metric", &[]),
            approx_kl: reg.gauge("rlsched_train_approx_kl", &[]),
            entropy: reg.gauge("rlsched_train_entropy", &[]),
        }
    }

    fn record_epoch(
        &self,
        stats: &rlsched_rl::RolloutStats,
        rollout: Duration,
        update: &UpdateStats,
        prof: &UpdateProfile,
    ) {
        self.epochs.inc();
        self.episodes.add(stats.episodes as u64);
        self.steps.add(stats.steps as u64);
        self.rollout_ns.add(rollout.as_nanos() as u64);
        let phases = [prof.gather, prof.forward, prof.backward, prof.optimizer];
        for (c, d) in self.update_phase_ns.iter().zip(phases) {
            c.add(d.as_nanos() as u64);
        }
        let critic = [prof.critic_forward, prof.critic_backward];
        for (c, d) in self.critic_phase_ns.iter().zip(critic) {
            c.add(d.as_nanos() as u64);
        }
        self.policy_rows_scored.add(prof.policy_rows);
        self.policy_rows_window.add(prof.policy_window_rows);
        self.update_ns.record(prof.total());
        self.mean_return.set(stats.mean_return);
        self.mean_metric.set(stats.mean_metric());
        self.approx_kl.set(update.approx_kl);
        self.entropy.set(update.entropy as f64);
    }
}

/// Train `agent` on `trace`. Returns the per-epoch curve; the agent is
/// updated in place.
pub fn train(agent: &mut Agent, trace: &JobTrace, cfg: &TrainConfig) -> TrainingCurve {
    assert!(cfg.epochs > 0 && cfg.trajectories_per_epoch > 0);
    let trace = Arc::new(trace.clone());
    let objective = agent.objective();
    let encoder = *agent.encoder();

    let filter: Option<Arc<TrajectoryFilter>> = match cfg.filter {
        FilterMode::Off => None,
        FilterMode::TwoPhase {
            fit_samples,
            hi_mult,
            ..
        } => {
            let mut f = TrajectoryFilter::fit(
                &trace,
                cfg.seq_len,
                fit_samples,
                agent.config().metric,
                cfg.sim,
                cfg.seed ^ 0xF11E,
            );
            f.set_range(f.median(), hi_mult * f.mean());
            Some(Arc::new(f))
        }
    };

    let metrics = TrainMetrics::register(rlsched_obs::global());
    let mut curve = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let filtered = match cfg.filter {
            FilterMode::Off => false,
            FilterMode::TwoPhase { phase1_epochs, .. } => epoch < phase1_epochs,
        };
        let epoch_filter = if filtered { filter.clone() } else { None };
        let make_env = || {
            let mut e = SchedulingEnv::new(trace.clone(), cfg.seq_len, cfg.sim, encoder, objective);
            e.set_filter(epoch_filter.clone());
            e
        };

        let seeds: Vec<u64> = (0..cfg.trajectories_per_epoch as u64)
            .map(|i| {
                cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)
            })
            .collect();
        let mut prof = UpdateProfile::default();
        let (stats, rollout, update) = pool::with_threads(cfg.n_threads, || {
            let start = Instant::now();
            let (batch, stats) =
                collect_rollouts_par(agent.ppo(), make_env, cfg.n_envs.max(1), &seeds);
            let rollout = start.elapsed();
            let update = agent.ppo_mut().update_profiled(&batch, &mut prof);
            (stats, rollout, update)
        });
        metrics.record_epoch(&stats, rollout, &update, &prof);

        curve.push(EpochStats {
            epoch,
            mean_metric: stats.mean_metric(),
            mean_return: stats.mean_return,
            filtered,
            update,
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use crate::nets::PolicyKind;
    use crate::obs::ObsConfig;
    use rlsched_rl::PpoConfig;
    use rlsched_sim::MetricKind;
    use rlsched_swf::Job;

    /// A workload where job order matters a lot: convoys of one long job
    /// plus several short ones arriving together on a small cluster.
    fn convoy_trace(n_groups: usize) -> JobTrace {
        let mut jobs = Vec::new();
        let mut id = 0;
        for gidx in 0..n_groups {
            let t0 = gidx as f64 * 4000.0;
            id += 1;
            jobs.push(Job::new(id, t0, 2000.0, 2, 2000.0));
            for s in 0..4 {
                id += 1;
                jobs.push(Job::new(id, t0 + s as f64, 30.0, 2, 30.0));
            }
        }
        JobTrace::new(jobs, 2)
    }

    fn tiny_agent(seed: u64) -> Agent {
        Agent::new(AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig {
                train_pi_iters: 15,
                train_v_iters: 15,
                pi_lr: 3e-3,
                vf_lr: 3e-3,
                minibatch: Some(512),
                ..PpoConfig::default()
            },
            seed,
        })
    }

    #[test]
    fn training_improves_over_initial_policy() {
        let trace = convoy_trace(40);
        let mut agent = tiny_agent(3);
        let cfg = TrainConfig {
            epochs: 12,
            trajectories_per_epoch: 12,
            seq_len: 25,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 11,
            n_envs: 8,
            n_threads: 1,
        };
        let curve = train(&mut agent, &trace, &cfg);
        assert_eq!(curve.len(), 12);
        let first = curve[..3].iter().map(|e| e.mean_metric).sum::<f64>() / 3.0;
        let last = curve[curve.len() - 3..]
            .iter()
            .map(|e| e.mean_metric)
            .sum::<f64>()
            / 3.0;
        assert!(
            last < first,
            "mean bsld should fall during training: first {first:.2} vs last {last:.2}"
        );
    }

    #[test]
    fn curve_is_deterministic_given_seeds() {
        let trace = convoy_trace(20);
        let cfg = TrainConfig {
            epochs: 2,
            trajectories_per_epoch: 6,
            seq_len: 20,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 5,
            n_envs: 8,
            n_threads: 1,
        };
        let mut a1 = tiny_agent(9);
        let c1 = train(&mut a1, &trace, &cfg);
        let mut a2 = tiny_agent(9);
        let c2 = train(&mut a2, &trace, &cfg);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.mean_metric, y.mean_metric);
            assert_eq!(x.mean_return, y.mean_return);
        }
    }

    #[test]
    fn two_phase_filter_marks_epochs() {
        let trace = convoy_trace(30);
        let mut agent = tiny_agent(1);
        let cfg = TrainConfig {
            epochs: 4,
            trajectories_per_epoch: 4,
            seq_len: 20,
            sim: SimConfig::default(),
            filter: FilterMode::two_phase(2, 20),
            seed: 2,
            n_envs: 8,
            n_threads: 1,
        };
        let curve = train(&mut agent, &trace, &cfg);
        assert!(curve[0].filtered && curve[1].filtered);
        assert!(!curve[2].filtered && !curve[3].filtered);
    }

    #[test]
    fn update_stats_are_recorded() {
        let trace = convoy_trace(15);
        let mut agent = tiny_agent(4);
        let cfg = TrainConfig {
            epochs: 1,
            trajectories_per_epoch: 4,
            seq_len: 15,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 3,
            n_envs: 8,
            n_threads: 1,
        };
        let curve = train(&mut agent, &trace, &cfg);
        let u = &curve[0].update;
        assert!(u.pi_iters >= 1);
        assert!(u.entropy > 0.0);
        assert!(u.approx_kl.is_finite());
    }

    /// The update's phases account for its wall time: gather and the
    /// optimizer are timed around the fused sweep, which splits each
    /// pass between forward and backward, so `total()` covers the call.
    /// LeNet's conv and pool backward run in the same sweep.
    #[test]
    fn update_phases_are_attributed_and_cover_the_wall() {
        let trace = Arc::new(rlsched_workload::NamedWorkload::Lublin1.generate(512, 3));
        for kind in [PolicyKind::Kernel, PolicyKind::LeNet] {
            let mut agent = Agent::new(AgentConfig {
                policy: kind,
                obs: ObsConfig {
                    max_obsv: 64,
                    ..ObsConfig::default()
                },
                metric: MetricKind::BoundedSlowdown,
                ppo: PpoConfig {
                    train_pi_iters: 2,
                    train_v_iters: 2,
                    ..PpoConfig::default()
                },
                seed: 5,
            });
            let (encoder, objective) = (*agent.encoder(), agent.objective());
            let env =
                || SchedulingEnv::new(trace.clone(), 64, SimConfig::default(), encoder, objective);
            let (batch, _) = collect_rollouts_par(agent.ppo(), env, 4, &[1, 2, 3, 4]);

            let mut prof = UpdateProfile::default();
            let t0 = std::time::Instant::now();
            agent.ppo_mut().update_profiled(&batch, &mut prof);
            let wall = t0.elapsed();
            assert!(
                !prof.forward.is_zero() && !prof.backward.is_zero(),
                "{}: fused forward/backward attribution went dark: {prof:?}",
                kind.name()
            );
            // The critic's parts are subsets of the phases they split.
            for (part, whole, name) in [
                (prof.critic_forward, prof.forward, "forward"),
                (prof.critic_backward, prof.backward, "backward"),
            ] {
                assert!(
                    !part.is_zero() && part <= whole,
                    "{}: critic {name} {part:?} is not a non-zero part of {whole:?}",
                    kind.name()
                );
            }
            let coverage = prof.total().as_secs_f64() / wall.as_secs_f64();
            assert!(
                (0.95..=1.05).contains(&coverage),
                "{}: the phases cover {:.1}% of the update's wall: {prof:?}",
                kind.name(),
                100.0 * coverage
            );
        }
    }

    #[test]
    fn the_kernel_update_scores_only_job_rows_and_the_registry_says_so() {
        // Convoys of five jobs in an 8-slot window: every window is
        // padded, so the policy passes score fewer rows than whole
        // windows hold.
        let trace = convoy_trace(15);
        let mut agent = tiny_agent(4);
        let env = || {
            let encoder = *agent.encoder();
            let objective = agent.objective();
            SchedulingEnv::new(
                Arc::new(trace.clone()),
                15,
                SimConfig::default(),
                encoder,
                objective,
            )
        };
        let (batch, _) = collect_rollouts_par(agent.ppo(), env, 4, &[1, 2, 3, 4]);
        let mut prof = UpdateProfile::default();
        agent.ppo_mut().update_profiled(&batch, &mut prof);
        let (scored, window) = (prof.policy_rows, prof.policy_window_rows);
        assert!(
            0 < scored && scored < window && window % 8 == 0,
            "scored {scored} of {window} window rows"
        );

        let cfg = TrainConfig {
            epochs: 1,
            trajectories_per_epoch: 4,
            seq_len: 15,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 3,
            n_envs: 8,
            n_threads: 1,
        };
        const ROLLOUT_NS: &str = "rlsched_train_rollout_ns_total";
        let rollout_before = rlsched_obs::global().snapshot().counter(ROLLOUT_NS, &[]);
        train(&mut agent, &trace, &cfg);
        let snap = rlsched_obs::global().snapshot();
        let rows = |r| snap.counter("rlsched_train_policy_job_rows_total", &[("rows", r)]);
        let (scored, window) = (rows("scored"), rows("window"));
        assert!(
            scored.is_some_and(|s| s > 0) && window.is_some_and(|w| w > 0),
            "scored {scored:?}, window {window:?}"
        );
        // The epoch's rollout wall time lands in the registry beside the
        // update's phases.
        let rollout_after = snap.counter(ROLLOUT_NS, &[]);
        assert!(
            rollout_after.is_some_and(|ns| ns > rollout_before.unwrap_or(0)),
            "rollout ns {rollout_before:?} before one epoch, {rollout_after:?} after"
        );
    }
}
