//! Error type for the simulator.

use std::fmt;

/// Errors raised by the sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `step` was called with no job waiting.
    EmptyQueue,
    /// `step` was called with a queue position past the end of the queue.
    BadQueuePosition {
        /// The offending position.
        pos: usize,
        /// Current queue length.
        queue_len: usize,
    },
    /// Metrics were requested before every job was scheduled.
    NotDone {
        /// Jobs scheduled so far.
        scheduled: usize,
        /// Total jobs in the episode.
        total: usize,
    },
    /// The episode trace has no jobs.
    EmptyTrace,
    /// A streaming trace yielded a job whose submit time precedes its
    /// predecessor's (or is NaN, which no order can place). One-pass
    /// replay relies on arrival order; sort the trace (SWF archives are
    /// sorted) or materialize it first.
    NonMonotoneArrival {
        /// Admission-order index (0-based) of the offending job.
        seq: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyQueue => write!(f, "step called with an empty wait queue"),
            SimError::BadQueuePosition { pos, queue_len } => {
                write!(
                    f,
                    "queue position {pos} out of range (queue has {queue_len} jobs)"
                )
            }
            SimError::NotDone { scheduled, total } => write!(
                f,
                "episode not finished: {scheduled}/{total} jobs scheduled"
            ),
            SimError::EmptyTrace => write!(f, "cannot simulate an empty trace"),
            SimError::NonMonotoneArrival { seq } => write!(
                f,
                "streaming job #{seq} submitted before its predecessor; one-pass replay needs submit-sorted traces"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Why [`crate::run_episode`] stopped short: the simulator refused the
/// trace or a step, or the policy could not pick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpisodeError<E> {
    /// The simulator's error.
    Sim(SimError),
    /// The policy's ([`crate::Policy::Error`]).
    Policy(E),
}

impl<E: fmt::Display> fmt::Display for EpisodeError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpisodeError::Sim(e) => e.fmt(f),
            EpisodeError::Policy(e) => write!(f, "policy failed mid-episode: {e}"),
        }
    }
}

impl<E: std::error::Error> std::error::Error for EpisodeError<E> {}

impl<E> From<SimError> for EpisodeError<E> {
    fn from(e: SimError) -> Self {
        EpisodeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_numbers() {
        let e = SimError::BadQueuePosition {
            pos: 9,
            queue_len: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
        let e = SimError::NotDone {
            scheduled: 2,
            total: 5,
        };
        assert!(e.to_string().contains("2/5"));
    }
}
