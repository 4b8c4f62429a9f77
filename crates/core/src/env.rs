//! The RL environment: SchedGym (§IV-D) wrapped for the agent.
//!
//! Each episode schedules one window of `seq_len` consecutive jobs drawn
//! at a random offset from the base trace (the paper trains on 256-job
//! sequences, §V-A). Intermediate rewards are 0; the final action receives
//! the full signed metric (§IV-A). With a [`TrajectoryFilter`] installed,
//! candidate windows are re-drawn until their SJF metric falls inside the
//! filter range — the phase-1 regime of §IV-C.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rlsched_rl::{Env, StepOutcome};
use rlsched_sim::{SchedSession, SimConfig};
use rlsched_swf::{JobTrace, SequenceSampler};

use crate::filter::{sjf_metric, TrajectoryFilter};
use crate::obs::ObsEncoder;
use crate::reward::Objective;

/// How many candidate windows `reset` may draw before giving up on the
/// filter and accepting the last candidate (prevents livelock when the
/// range is very narrow).
const MAX_FILTER_TRIES: usize = 200;

/// The scheduling environment.
#[derive(Debug, Clone)]
pub struct SchedulingEnv {
    trace: Arc<JobTrace>,
    seq_len: usize,
    sim_cfg: SimConfig,
    encoder: ObsEncoder,
    objective: Objective,
    filter: Option<Arc<TrajectoryFilter>>,
    session: Option<SchedSession>,
}

impl SchedulingEnv {
    /// Build an environment over `trace`.
    pub fn new(
        trace: Arc<JobTrace>,
        seq_len: usize,
        sim_cfg: SimConfig,
        encoder: ObsEncoder,
        objective: Objective,
    ) -> Self {
        assert!(trace.len() >= seq_len, "trace shorter than one episode");
        SchedulingEnv {
            trace,
            seq_len,
            sim_cfg,
            encoder,
            objective,
            filter: None,
            session: None,
        }
    }

    /// Install (or remove) a trajectory filter for subsequent resets.
    pub fn set_filter(&mut self, filter: Option<Arc<TrajectoryFilter>>) {
        self.filter = filter;
    }

    /// The active objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    fn draw_window(&self, seed: u64) -> JobTrace {
        let sampler =
            SequenceSampler::new(self.trace.len(), self.seq_len).expect("validated in constructor");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        match &self.filter {
            None => {
                let off = sampler.offset_from_draw(rng.gen());
                self.trace.window(off, self.seq_len).expect("offset valid")
            }
            Some(f) => {
                let mut last = None;
                for _ in 0..MAX_FILTER_TRIES {
                    let off = sampler.offset_from_draw(rng.gen());
                    let w = self.trace.window(off, self.seq_len).expect("offset valid");
                    let m = sjf_metric(&w, f.metric(), self.sim_cfg);
                    if f.accepts(m) {
                        return w;
                    }
                    last = Some(w);
                }
                last.expect("at least one candidate drawn")
            }
        }
    }

    /// Encode the current decision point straight from the session,
    /// **appending** one observation row and one mask row to the caller
    /// buffers (the [`Env`] append contract — a `VecEnv` passes its
    /// stacked matrix here directly): the waiting jobs stream through
    /// [`rlsched_sim::SchedSession::waiting_jobs`] straight off the queue,
    /// so a steady-state step allocates nothing. The session is the one
    /// event loop — `run_episode`'s and the replay engine's — over this
    /// window.
    fn observe_into(&self, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        let session = self.session.as_ref().expect("reset before observe");
        self.encoder.encode_jobs_extend(
            session.free_procs(),
            session.total_procs(),
            session.queue_len(),
            session.waiting_jobs(),
            obs,
            mask,
        );
    }
}

impl Env for SchedulingEnv {
    fn obs_dim(&self) -> usize {
        self.encoder.obs_dim()
    }

    fn n_actions(&self) -> usize {
        self.encoder.n_actions()
    }

    fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        let window = self.draw_window(seed);
        self.session = Some(SchedSession::new(&window, self.sim_cfg).expect("non-empty window"));
        self.observe_into(obs, mask);
    }

    fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
        let session = self.session.as_mut().expect("reset before step");
        session
            .step(action)
            .expect("masked policy emitted an invalid queue position");
        if session.done() {
            let metrics = session.metrics().expect("done");
            let reward = self.objective.reward(&metrics);
            let raw = self.objective.raw(&metrics);
            StepOutcome {
                reward,
                done: true,
                episode_metric: Some(raw),
            }
        } else {
            self.observe_into(obs, mask);
            StepOutcome {
                reward: 0.0,
                done: false,
                episode_metric: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ObsConfig, JOB_FEATURES};
    use rlsched_sim::MetricKind;
    use rlsched_swf::Job;

    fn base_trace(n: usize) -> Arc<JobTrace> {
        let jobs = (0..n as u32)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 50.0,
                    60.0 + (i % 5) as f64 * 100.0,
                    1 + (i % 3),
                    400.0,
                )
            })
            .collect();
        Arc::new(JobTrace::new(jobs, 4))
    }

    fn env(seq_len: usize) -> SchedulingEnv {
        SchedulingEnv::new(
            base_trace(100),
            seq_len,
            SimConfig::default(),
            ObsEncoder::new(ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            }),
            Objective::new(MetricKind::BoundedSlowdown),
        )
    }

    /// Drive an episode with a fixed "always head of queue" policy
    /// (manual single-env driving: buffers cleared before each append).
    fn run_episode_fcfs(env: &mut SchedulingEnv, seed: u64) -> (usize, f64) {
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        env.reset(seed, &mut obs, &mut mask);
        let mut steps = 0;
        loop {
            obs.clear();
            mask.clear();
            let out = env.step(0, &mut obs, &mut mask);
            steps += 1;
            if out.done {
                return (steps, out.episode_metric.unwrap());
            }
        }
    }

    #[test]
    fn episode_has_seq_len_steps() {
        let mut e = env(16);
        let (steps, metric) = run_episode_fcfs(&mut e, 3);
        assert_eq!(steps, 16, "one decision per job");
        assert!(metric >= 1.0, "bounded slowdown is at least 1");
    }

    #[test]
    fn dims_come_from_encoder() {
        let e = env(16);
        assert_eq!(e.obs_dim(), 8 * JOB_FEATURES);
        assert_eq!(e.n_actions(), 8);
    }

    #[test]
    fn reset_is_reproducible_and_seed_sensitive() {
        let mut e = env(16);
        let reset = |e: &mut SchedulingEnv, seed| {
            let (mut o, mut m) = (Vec::new(), Vec::new());
            e.reset(seed, &mut o, &mut m);
            (o, m)
        };
        let (o1, m1) = reset(&mut e, 42);
        let (o2, m2) = reset(&mut e, 42);
        assert_eq!(o1, o2);
        assert_eq!(m1, m2);
        // Different seeds usually pick different windows.
        let (o3, _) = reset(&mut e, 43);
        assert_ne!(o1, o3);
    }

    #[test]
    fn rewards_are_zero_until_done() {
        let mut e = env(12);
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        e.reset(1, &mut obs, &mut mask);
        for i in 0..12 {
            obs.clear();
            mask.clear();
            let out = e.step(0, &mut obs, &mut mask);
            if i < 11 {
                assert_eq!(out.reward, 0.0, "intermediate step {i}");
                assert!(!out.done);
            } else {
                assert!(out.done);
                assert!(out.reward < 0.0, "final reward is −scaled metric");
                let expect = -out.episode_metric.unwrap() * e.objective().scale;
                assert!((out.reward - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn filter_restricts_sampled_windows() {
        // Build a filter, then check every accepted reset window would
        // pass the filter's own test.
        let trace = base_trace(200);
        let f = Arc::new(TrajectoryFilter::fit(
            &trace,
            16,
            40,
            MetricKind::BoundedSlowdown,
            SimConfig::default(),
            9,
        ));
        let mut e = SchedulingEnv::new(
            trace.clone(),
            16,
            SimConfig::default(),
            ObsEncoder::new(ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            }),
            Objective::new(MetricKind::BoundedSlowdown),
        );
        e.set_filter(Some(f.clone()));
        // If the filter accepts nothing (degenerate distribution), reset
        // still terminates thanks to MAX_FILTER_TRIES.
        let (mut o, mut m) = (Vec::new(), Vec::new());
        e.reset(5, &mut o, &mut m);
    }

    #[test]
    fn utilization_objective_gives_positive_reward() {
        let trace = base_trace(60);
        let mut e = SchedulingEnv::new(
            trace,
            12,
            SimConfig::default(),
            ObsEncoder::new(ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            }),
            Objective::new(MetricKind::Utilization),
        );
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        e.reset(2, &mut obs, &mut mask);
        let mut last = None;
        for _ in 0..12 {
            obs.clear();
            mask.clear();
            let out = e.step(0, &mut obs, &mut mask);
            if out.done {
                last = Some(out);
                break;
            }
        }
        let out = last.expect("episode finished");
        assert!(out.reward > 0.0, "utilization reward is positive");
        let m = out.episode_metric.unwrap();
        assert!((0.0..=1.0).contains(&m));
    }
}
