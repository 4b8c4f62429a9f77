//! The policy abstraction: anything that can pick the next job to run.
//!
//! The heuristic priority schedulers (Table III of the paper), the trained
//! RLScheduler agent and the client of a serving tier all implement
//! [`Policy`], once each; the episode driver and the replay engine ask them
//! the same way, which is exactly how the paper compares them (Tables
//! V–XI).

use rlsched_swf::Job;

use crate::stream::StreamSession;

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
    fn attach<I: Iterator<Item = Job>>(&mut self, _session: &mut StreamSession<I>) {}

    /// The queue rank (FCFS order, `< session.queue_len()`) to start next.
    /// Only called at decision points, where at least one job waits.
    fn pick<I: Iterator<Item = Job>>(
        &mut self,
        session: &mut StreamSession<I>,
    ) -> Result<usize, Self::Error>;

    /// Human-readable name for tables and logs.
    fn name(&self) -> &str;
}
