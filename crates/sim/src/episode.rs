//! The episode driver: run one policy over one job sequence and report the
//! metrics of §II-A3. This is the evaluation primitive behind every table in
//! the paper (each table cell = mean over 10 sampled 1024-job episodes).

use rlsched_swf::JobTrace;

use crate::config::SimConfig;
use crate::error::EpisodeError;
use crate::metrics::EpisodeMetrics;
use crate::policy::Policy;
use crate::session::SchedSession;

/// Run `policy` over the whole `trace` and return the episode metrics:
/// attach the policy to the session, then pick and step until every job has
/// started. The replay engine runs the same loop with a clock around each
/// pick; this one carries none.
pub fn run_episode<P: Policy>(
    trace: &JobTrace,
    cfg: SimConfig,
    policy: &mut P,
) -> Result<EpisodeMetrics, EpisodeError<P::Error>> {
    let mut session = SchedSession::from_trace(trace, cfg)?;
    policy.attach(&mut session);
    while !session.done() {
        let pos = policy.pick(&mut session).map_err(EpisodeError::Policy)?;
        session.step(pos)?;
    }
    Ok(session.episode_metrics()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSession;
    use rlsched_swf::Job;
    use std::convert::Infallible;

    struct Fcfs;
    impl Policy for Fcfs {
        type Error = Infallible;
        fn pick<I: Iterator<Item = Job>>(
            &mut self,
            _: &mut StreamSession<I>,
        ) -> Result<usize, Infallible> {
            Ok(0)
        }
        fn name(&self) -> &str {
            "FCFS"
        }
    }

    /// Shortest-requested-time-first, implemented inline to keep this crate
    /// independent of the sched crate.
    struct Sjf;
    impl Policy for Sjf {
        type Error = Infallible;
        fn pick<I: Iterator<Item = Job>>(
            &mut self,
            session: &mut StreamSession<I>,
        ) -> Result<usize, Infallible> {
            Ok(session
                .waiting()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.job.time_bound().partial_cmp(&b.job.time_bound()).unwrap()
                })
                .map(|(i, _)| i)
                .unwrap())
        }
        fn name(&self) -> &str {
            "SJF"
        }
    }

    fn convoy_trace() -> JobTrace {
        // A classic convoy: one huge job and many tiny ones, all submitted
        // together so the scheduler's ordering choice matters. SJF must beat
        // FCFS on average waiting time.
        let mut jobs = vec![Job::new(1, 0.0, 1000.0, 4, 1000.0)];
        for i in 0..10 {
            jobs.push(Job::new(i + 2, 0.0, 10.0, 4, 10.0));
        }
        JobTrace::new(jobs, 4)
    }

    #[test]
    fn sjf_beats_fcfs_on_convoy() {
        let t = convoy_trace();
        let fcfs = run_episode(&t, SimConfig::default(), &mut Fcfs).unwrap();
        let sjf = run_episode(&t, SimConfig::default(), &mut Sjf).unwrap();
        assert!(
            sjf.avg_waiting_time() < fcfs.avg_waiting_time(),
            "SJF {} should beat FCFS {}",
            sjf.avg_waiting_time(),
            fcfs.avg_waiting_time()
        );
        assert!(sjf.avg_bounded_slowdown() < fcfs.avg_bounded_slowdown());
    }

    #[test]
    fn all_jobs_scheduled_exactly_once() {
        let t = convoy_trace();
        let m = run_episode(&t, SimConfig::default(), &mut Fcfs).unwrap();
        assert_eq!(m.outcomes().len(), t.len());
        let mut seen: Vec<usize> = m.outcomes().iter().map(|o| o.job_index).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), t.len());
    }

    #[test]
    fn deterministic_across_runs() {
        let t = convoy_trace();
        let a = run_episode(&t, SimConfig::with_backfill(), &mut Sjf).unwrap();
        let b = run_episode(&t, SimConfig::with_backfill(), &mut Sjf).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_propagates_error() {
        let t = JobTrace::new(vec![], 4);
        assert!(run_episode(&t, SimConfig::default(), &mut Fcfs).is_err());
    }
}
