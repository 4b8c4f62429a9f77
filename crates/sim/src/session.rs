//! The gym-style scheduling session over a materialized trace.
//!
//! One [`SchedSession`] replays one job sequence ("episode" in RL terms):
//! the shape the trainer, [`crate::run_episode`] and every table of the
//! paper want — a [`JobTrace`] in, a decision protocol
//! ([`SchedSession::waiting_jobs`] / [`SchedSession::step`]), and at the
//! end an [`EpisodeMetrics`] with one [`JobOutcome`] per job in trace
//! order. It has no event loop of its own: it is a [`StreamSession`] whose
//! source is the trace's job list and whose outcome sink is a table, so the
//! rules of the simulation (arrivals, reservations, EASY backfilling — see
//! `stream`'s module docs) are written once.

use rlsched_swf::{Job, JobTrace};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::{EpisodeMetrics, JobOutcome};
use crate::policy::WaitingJob;
use crate::stream::{trace_order_metrics, StreamSession};

/// One scheduling episode over a job sequence: a [`StreamSession`] fed from
/// the trace, keeping every job's outcome.
#[derive(Debug, Clone)]
pub struct SchedSession {
    /// The loop itself; [`crate::run_episode`] hands it to the policy.
    pub(crate) inner: StreamSession<std::vec::IntoIter<Job>, Vec<JobOutcome>>,
    /// Jobs the episode schedules: the trace's schedulable records.
    jobs: usize,
}

impl SchedSession {
    /// Start an episode over `trace`. Unschedulable records are dropped and
    /// the rest sanitized and clamped to the cluster size as they are
    /// admitted, so every job can run and `job_index` counts the jobs of
    /// `trace.sanitized()`.
    pub fn new(trace: &JobTrace, cfg: SimConfig) -> Result<Self, SimError> {
        let jobs = trace.jobs().iter().filter(|j| j.is_schedulable()).count();
        let inner = StreamSession::with_outcomes(
            trace.jobs().to_vec().into_iter(),
            trace.max_procs(),
            cfg,
            Vec::with_capacity(jobs),
        )?;
        Ok(SchedSession { inner, jobs })
    }

    /// Current virtual time (seconds from episode start).
    pub fn time(&self) -> f64 {
        self.inner.time()
    }

    /// Processors currently idle.
    pub fn free_procs(&self) -> u32 {
        self.inner.free_procs()
    }

    /// Total processors in the cluster.
    pub fn total_procs(&self) -> u32 {
        self.inner.total_procs()
    }

    /// True once every job has been started.
    pub fn done(&self) -> bool {
        self.inner.done()
    }

    /// Number of jobs currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    /// The waiting jobs as a policy would see them, in FCFS order, straight
    /// off the queue: walking them allocates nothing (observation encoders
    /// stream this into their buffers).
    pub fn waiting_jobs(&self) -> impl Iterator<Item = WaitingJob<'_>> + '_ {
        self.inner.waiting()
    }

    /// Schedule the waiting job at queue position `pos` (FCFS order view).
    ///
    /// On return the selected job has started; virtual time may have
    /// advanced past arrivals and completions, and (with EASY) other queued
    /// jobs may have been backfilled.
    pub fn step(&mut self, pos: usize) -> Result<(), SimError> {
        self.inner.step(pos)
    }

    /// Final metrics, outcomes in trace order; errors until
    /// [`SchedSession::done`].
    pub fn metrics(&self) -> Result<EpisodeMetrics, SimError> {
        if !self.done() {
            return Err(SimError::NotDone {
                scheduled: self.inner.outcomes().len(),
                total: self.jobs,
            });
        }
        Ok(trace_order_metrics(
            self.inner.outcomes(),
            self.total_procs(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_swf::Job;

    fn trace(jobs: Vec<Job>, procs: u32) -> JobTrace {
        JobTrace::new(jobs, procs)
    }

    /// Always schedule the head of the queue (FCFS).
    fn run_fcfs(t: &JobTrace, cfg: SimConfig) -> EpisodeMetrics {
        let mut s = SchedSession::new(t, cfg).unwrap();
        while !s.done() {
            s.step(0).unwrap();
        }
        s.metrics().unwrap()
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert_eq!(
            SchedSession::new(&trace(vec![], 4), SimConfig::default()).unwrap_err(),
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
        let mut s = SchedSession::new(&t, SimConfig::default()).unwrap();
        s.step(1).unwrap(); // schedule job 2 first
        s.step(0).unwrap();
        let m = s.metrics().unwrap();
        assert_eq!(m.outcomes()[1].start, 0.0);
        assert_eq!(m.outcomes()[0].start, 10.0);
    }

    #[test]
    fn step_errors() {
        let t = trace(vec![Job::new(1, 0.0, 10.0, 1, 10.0)], 4);
        let mut s = SchedSession::new(&t, SimConfig::default()).unwrap();
        assert!(matches!(
            s.step(3),
            Err(SimError::BadQueuePosition {
                pos: 3,
                queue_len: 1
            })
        ));
        s.step(0).unwrap();
        assert_eq!(s.step(0).unwrap_err(), SimError::EmptyQueue);
        assert!(s.metrics().is_ok());
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
        let mut s = SchedSession::new(&t, SimConfig::default()).unwrap();
        s.step(0).unwrap();
        assert!(matches!(
            s.metrics(),
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
        let mut s = SchedSession::new(&t, SimConfig::default()).unwrap();
        s.step(0).unwrap(); // big job takes everything at t=0
        let waiting: Vec<WaitingJob<'_>> = s.waiting_jobs().collect();
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
        let mut s = SchedSession::new(&t, SimConfig::with_backfill()).unwrap();
        s.step(0).unwrap(); // A starts
        s.step(0).unwrap(); // B reserved; during wait, C arrives & backfills
        assert!(s.done(), "C was started by the pass, not by a decision");
        let m = s.metrics().unwrap();
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
                let mut s = SchedSession::new(&t, cfg).unwrap();
                while !s.done() {
                    let pos = rng.gen_range(0..s.queue_len());
                    s.step(pos).unwrap();
                    assert!(s.free_procs() <= s.total_procs());
                }
                let m = s.metrics().unwrap();
                assert_eq!(m.outcomes().len(), n);
                for o in m.outcomes() {
                    assert!(o.start >= o.submit, "no job starts before submission");
                    assert!(o.end > o.start);
                }
            }
        }
    }
}
