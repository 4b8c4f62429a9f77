//! SchedGym: the discrete-event HPC cluster simulator of the RLScheduler
//! paper (§IV-D), reimplemented as a Rust library.
//!
//! The simulator replays an SWF job trace against a homogeneous cluster of
//! `P` processors. Whenever at least one job is waiting, a *policy* (a
//! heuristic priority function or the RL agent) is asked to pick one; the
//! simulator then either starts the job immediately or — when resources are
//! insufficient — reserves it and advances virtual time, optionally
//! backfilling smaller jobs into the holes (EASY backfilling, §II-A4).
//!
//! There is one event loop, one way to ask a policy, and a driver:
//!
//! * [`StreamSession`] — the loop. It pulls jobs from any iterator as
//!   virtual time reaches them and folds each started job's outcome into
//!   running aggregates ([`StreamMetrics`]), so a trace-scale replay's
//!   memory does not grow with the trace; an optional outcome log keeps
//!   every outcome too. [`SchedSession`] names it over a materialized
//!   [`rlsched_swf::JobTrace`] with the log on, the session the RL trainer
//!   steps decision by decision and whose [`EpisodeMetrics`] — the same
//!   fold over the log in trace order — the paper's tables report.
//! * [`Policy`] — the decision head: `attach` once to a session (install an
//!   order over the wait queue, if the head reads one), then `pick` a queue
//!   rank at every decision point, reading the session's queue in place.
//!   Every heuristic, the agent and the serving tier's client implement it
//!   once, and every driver — [`run_episode`] here, the replay engine in
//!   `rlsched-replay` — asks through it.
//! * [`run_episode`] — the episode driver: runs a [`Policy`] over a
//!   `SchedSession` to the end and returns its metrics.
//!
//! Scheduling-relevant knowledge is strictly separated: policies observe
//! only submit-time attributes and the user's *requested* runtime
//! ([`rlsched_swf::Job::time_bound`]); actual runtimes drive completion
//! events inside the simulator only, mirroring §IV-D ("the accurate runtime
//! will not be available to the schedulers").

pub mod calendar;
pub mod config;
pub mod episode;
pub mod error;
pub mod metrics;
pub mod policy;
pub mod session;
pub mod stream;

pub use calendar::IndexedQueue;
pub use config::{BackfillMode, SimConfig};
pub use episode::run_episode;
pub use error::{EpisodeError, SimError};
pub use metrics::{EpisodeMetrics, JobOutcome, MetricKind, StreamMetrics, BSLD_THRESHOLD};
pub use policy::{Policy, WaitingJob};
pub use session::SchedSession;
pub use stream::StreamSession;
