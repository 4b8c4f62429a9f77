//! The policy abstraction: anything that can pick the next job to run.
//!
//! The heuristic priority schedulers (Table III of the paper), the trained
//! RLScheduler agent and the client of a serving tier all implement
//! [`Policy`], once each; the episode driver and the replay engine ask them
//! the same way, which is exactly how the paper compares them (Tables
//! V–XI). [`QueueView`] is plain data: a decision point copied out of a
//! session, for the callers whose input really is a snapshot (the wire, the
//! canary, the latency benches).

use rlsched_swf::Job;

use crate::stream::{Outcomes, StreamSession};

/// One waiting job as a policy sees it: the job's submit-time attributes
/// plus its current wait and whether it fits in the free processors.
#[derive(Debug, Clone, Copy)]
pub struct WaitingJob<'a> {
    /// The job record (schedulers must use `time_bound()`, never `run_time`).
    pub job: &'a Job,
    /// Index of the job in the episode trace.
    pub job_index: usize,
    /// How long the job has been waiting, in seconds.
    pub wait: f64,
    /// True when the job's processor request fits right now.
    pub can_run_now: bool,
}

/// A decision point: the waiting jobs (FCFS order) and the cluster state.
#[derive(Debug, Clone)]
pub struct QueueView<'a> {
    /// Current virtual time.
    pub time: f64,
    /// Idle processors.
    pub free_procs: u32,
    /// Cluster size.
    pub total_procs: u32,
    /// Waiting jobs in arrival order. Never empty when a policy is asked.
    pub waiting: Vec<WaitingJob<'a>>,
}

impl QueueView<'_> {
    /// Fraction of the cluster currently idle.
    pub fn free_fraction(&self) -> f64 {
        self.free_procs as f64 / self.total_procs as f64
    }
}

/// A scheduling policy: the decision head the event loop asks, at every
/// decision point, which waiting job starts next.
///
/// A head reads the session it is asked about — the free processors, the
/// wait queue ([`StreamSession::waiting`]), or an order it had the session
/// keep ([`StreamSession::rank_by`] in `attach`,
/// [`StreamSession::ranked_head`] in `pick`) — so nothing is copied out of
/// the queue to ask the question. The drivers ([`crate::run_episode`], the
/// replay engine) call `attach` once, then `pick` before every
/// [`StreamSession::step`].
pub trait Policy {
    /// Why a pick can fail. In-process heads never do
    /// ([`std::convert::Infallible`]); a head that decides over a wire does.
    type Error: std::error::Error;

    /// Called once, before the first `pick` on `session`: install whatever
    /// order the head reads. The default installs nothing.
    fn attach<I: Iterator<Item = Job>, O: Outcomes>(&mut self, _session: &mut StreamSession<I, O>) {
    }

    /// The queue rank (FCFS order, `< session.queue_len()`) to start next.
    /// Only called at decision points, where at least one job waits.
    fn pick<I: Iterator<Item = Job>, O: Outcomes>(
        &mut self,
        session: &mut StreamSession<I, O>,
    ) -> Result<usize, Self::Error>;

    /// Human-readable name for tables and logs.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_fraction() {
        let v = QueueView {
            time: 0.0,
            free_procs: 16,
            total_procs: 64,
            waiting: vec![],
        };
        assert!((v.free_fraction() - 0.25).abs() < 1e-12);
    }
}
