//! The scheduling session over a materialized trace.
//!
//! One [`SchedSession`] replays one job sequence ("episode" in RL terms):
//! the shape the trainer, [`crate::run_episode`] and every table of the
//! paper want — a [`JobTrace`] in, the session's decision protocol
//! ([`StreamSession::waiting`] / [`StreamSession::step`]), and at the end
//! an [`EpisodeMetrics`] with one [`JobOutcome`](crate::JobOutcome) per job
//! in trace order. It is not a type of its own: it is a [`StreamSession`]
//! whose source is the trace's job list and whose outcome log is on, so
//! the rules of the simulation (arrivals, reservations, EASY backfilling —
//! see `stream`'s module docs) and the metrics are written once.

use rlsched_swf::{Job, JobTrace};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::EpisodeMetrics;
use crate::stream::StreamSession;

/// One scheduling episode over a job sequence: a [`StreamSession`] fed from
/// the trace, logging every job's outcome.
pub type SchedSession = StreamSession<std::vec::IntoIter<Job>>;

impl SchedSession {
    /// Start an episode over `trace`. Unschedulable records are dropped and
    /// the rest sanitized and clamped to the cluster size as they are
    /// admitted, so every job can run and `job_index` counts the jobs of
    /// `trace.sanitized()`. The outcome log and the per-user table are
    /// sized here, so no step grows them.
    pub fn from_trace(trace: &JobTrace, cfg: SimConfig) -> Result<Self, SimError> {
        let jobs = trace.jobs().iter().filter(|j| j.is_schedulable()).count();
        // Every user the trace names, collected in one allocation.
        let mut users: Vec<i64> = trace.jobs().iter().map(|j| j.user_id).collect();
        users.sort_unstable();
        users.dedup();
        let session =
            StreamSession::new(trace.jobs().to_vec().into_iter(), trace.max_procs(), cfg)?;
        Ok(session.with_outcome_log_for(jobs, users.len()))
    }

    /// Final metrics, outcomes in trace order; errors until
    /// [`StreamSession::done`].
    pub fn episode_metrics(&self) -> Result<EpisodeMetrics, SimError> {
        let scheduled = self.started_count() as usize;
        if !self.done() {
            return Err(SimError::NotDone {
                scheduled,
                total: scheduled + self.queue_len() + self.unadmitted(),
            });
        }
        Ok(self
            .log_metrics()
            .expect("from_trace keeps the outcome log"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WaitingJob;

    fn trace(jobs: Vec<Job>, procs: u32) -> JobTrace {
        JobTrace::new(jobs, procs)
    }

    /// Always schedule the head of the queue (FCFS).
    fn run_fcfs(t: &JobTrace, cfg: SimConfig) -> EpisodeMetrics {
        let mut s = SchedSession::from_trace(t, cfg).unwrap();
        while !s.done() {
            s.step(0).unwrap();
        }
        s.episode_metrics().unwrap()
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert_eq!(
            SchedSession::from_trace(&trace(vec![], 4), SimConfig::default()).unwrap_err(),
            SimError::EmptyTrace
        );
    }

    #[test]
    fn single_job_runs_at_submit() {
        let t = trace(vec![Job::new(1, 5.0, 100.0, 2, 100.0)], 4);
        let m = run_fcfs(&t, SimConfig::default());
        let o = m.outcomes()[0];
        assert_eq!(o.submit, 5.0);
        assert_eq!(o.start, 5.0);
        assert_eq!(o.end, 105.0);
    }

    #[test]
    fn sequential_when_cluster_full() {
        // Two jobs each needing the whole cluster, submitted together.
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 4, 100.0),
                Job::new(2, 0.0, 50.0, 4, 50.0),
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::default());
        assert_eq!(m.outcomes()[0].start, 0.0);
        assert_eq!(m.outcomes()[1].start, 100.0);
        assert_eq!(m.outcomes()[1].wait(), 100.0);
    }

    #[test]
    fn parallel_when_cluster_fits_both() {
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 2, 100.0),
                Job::new(2, 0.0, 50.0, 2, 50.0),
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::default());
        assert_eq!(m.outcomes()[0].start, 0.0);
        assert_eq!(m.outcomes()[1].start, 0.0);
    }

    #[test]
    fn idle_gap_is_skipped() {
        let t = trace(
            vec![
                Job::new(1, 0.0, 10.0, 1, 10.0),
                Job::new(2, 1000.0, 10.0, 1, 10.0),
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::default());
        assert_eq!(m.outcomes()[1].start, 1000.0);
        assert_eq!(m.outcomes()[1].wait(), 0.0);
    }

    #[test]
    fn without_backfill_small_job_waits_behind_reservation() {
        // t=0: job A (3 procs, 100s) starts, 1 proc stays free. B needs all
        // 4 procs -> blocked until t=100. Small job C (1 proc, 5s) arrives
        // at t=1 and fits, but without backfilling it must wait behind B.
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 3, 100.0),
                Job::new(2, 0.5, 100.0, 4, 100.0),
                Job::new(3, 1.0, 5.0, 1, 5.0),
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::no_backfill());
        assert_eq!(m.outcomes()[1].start, 100.0);
        // C starts only after B started (next decision is at t=100).
        assert!(m.outcomes()[2].start >= 100.0);
    }

    #[test]
    fn easy_backfill_lets_small_job_jump() {
        // Same situation with EASY: C (1 proc, 5s) fits the free processor
        // and finishes well before the reservation's shadow start (t=100),
        // so it backfills at t=1.
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 3, 100.0),
                Job::new(2, 0.5, 100.0, 4, 100.0),
                Job::new(3, 1.0, 5.0, 1, 5.0),
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::with_backfill());
        assert_eq!(m.outcomes()[1].start, 100.0, "reservation start unchanged");
        assert_eq!(m.outcomes()[2].start, 1.0, "small job backfilled");
    }

    #[test]
    fn backfill_never_delays_reservation() {
        // A long small job that would overrun the shadow window must NOT
        // backfill: D requests 60s but the hole is only 50s wide.
        let t = trace(
            vec![
                Job::new(1, 0.0, 50.0, 3, 50.0),   // A: leaves 1 proc free
                Job::new(2, 1.0, 100.0, 4, 100.0), // B: reservation, shadow t=50
                Job::new(3, 2.0, 60.0, 1, 60.0),   // D: fits but too long
            ],
            4,
        );
        let m = run_fcfs(&t, SimConfig::with_backfill());
        assert_eq!(m.outcomes()[1].start, 50.0, "reservation honored");
        assert!(
            m.outcomes()[2].start >= 50.0,
            "overlong job did not backfill"
        );
    }

    #[test]
    fn out_of_order_selection_is_respected() {
        // Select queue position 1 (SJF-style): the short job goes first.
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 4, 100.0),
                Job::new(2, 0.0, 10.0, 4, 10.0),
            ],
            4,
        );
        let mut s = SchedSession::from_trace(&t, SimConfig::default()).unwrap();
        s.step(1).unwrap(); // schedule job 2 first
        s.step(0).unwrap();
        let m = s.episode_metrics().unwrap();
        assert_eq!(m.outcomes()[1].start, 0.0);
        assert_eq!(m.outcomes()[0].start, 10.0);
    }

    #[test]
    fn step_errors() {
        let t = trace(vec![Job::new(1, 0.0, 10.0, 1, 10.0)], 4);
        let mut s = SchedSession::from_trace(&t, SimConfig::default()).unwrap();
        assert!(matches!(
            s.step(3),
            Err(SimError::BadQueuePosition {
                pos: 3,
                queue_len: 1
            })
        ));
        s.step(0).unwrap();
        assert_eq!(s.step(0).unwrap_err(), SimError::EmptyQueue);
        assert!(s.episode_metrics().is_ok());
    }

    #[test]
    fn metrics_before_done_errors() {
        let t = trace(
            vec![
                Job::new(1, 0.0, 10.0, 1, 10.0),
                Job::new(2, 0.0, 10.0, 1, 10.0),
            ],
            4,
        );
        let mut s = SchedSession::from_trace(&t, SimConfig::default()).unwrap();
        s.step(0).unwrap();
        assert!(matches!(
            s.episode_metrics(),
            Err(SimError::NotDone {
                scheduled: 1,
                total: 2
            })
        ));
    }

    #[test]
    fn oversized_job_is_clamped_not_rejected() {
        let t = trace(vec![Job::new(1, 0.0, 10.0, 100, 10.0)], 4);
        let m = run_fcfs(&t, SimConfig::default());
        assert_eq!(m.outcomes()[0].procs, 4);
    }

    #[test]
    fn view_reports_waits_and_fit() {
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 4, 100.0),
                Job::new(2, 0.0, 10.0, 2, 10.0),
                Job::new(3, 0.0, 10.0, 8, 10.0),
            ],
            4,
        );
        let mut s = SchedSession::from_trace(&t, SimConfig::default()).unwrap();
        s.step(0).unwrap(); // big job takes everything at t=0
        let waiting: Vec<WaitingJob<'_>> = s.waiting().collect();
        assert_eq!(waiting.len(), 2);
        assert_eq!(s.free_procs(), 0);
        assert!(!waiting[0].can_run_now);
        assert_eq!(waiting[0].wait, 0.0);
        assert_eq!(s.time(), 0.0);
    }

    #[test]
    fn arrivals_during_block_join_queue_and_backfill() {
        // While the reservation waits, a later tiny arrival backfills.
        let t = trace(
            vec![
                Job::new(1, 0.0, 100.0, 3, 100.0),
                Job::new(2, 1.0, 100.0, 4, 100.0),
                Job::new(3, 10.0, 5.0, 1, 5.0), // arrives mid-block
            ],
            4,
        );
        let mut s = SchedSession::from_trace(&t, SimConfig::with_backfill()).unwrap();
        s.step(0).unwrap(); // A starts
        s.step(0).unwrap(); // B reserved; during wait, C arrives & backfills
        assert!(s.done(), "C was started by the pass, not by a decision");
        let m = s.episode_metrics().unwrap();
        assert_eq!(m.outcomes()[1].start, 100.0);
        assert_eq!(m.outcomes()[2].start, 10.0);
    }

    #[test]
    fn conservation_invariants_random_policy() {
        // A randomized stress test of the core invariants.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..30 {
            let n = 20 + (case % 5) * 10;
            let jobs: Vec<Job> = (0..n)
                .map(|i| {
                    Job::new(
                        i as u32 + 1,
                        rng.gen_range(0.0..500.0),
                        rng.gen_range(1.0..200.0),
                        rng.gen_range(1..=8),
                        rng.gen_range(1.0..250.0),
                    )
                })
                .collect();
            let t = trace(jobs, 8);
            for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
                let mut s = SchedSession::from_trace(&t, cfg).unwrap();
                while !s.done() {
                    let pos = rng.gen_range(0..s.queue_len());
                    s.step(pos).unwrap();
                    assert!(s.free_procs() <= s.total_procs());
                }
                let m = s.episode_metrics().unwrap();
                assert_eq!(m.outcomes().len(), n);
                for o in m.outcomes() {
                    assert!(o.start >= o.submit, "no job starts before submission");
                    assert!(o.end > o.start);
                }
            }
        }
    }
}
