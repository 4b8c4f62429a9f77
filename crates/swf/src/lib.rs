//! Standard Workload Format (SWF) substrate for the RLScheduler reproduction.
//!
//! The paper (Zhang et al., SC'20) drives both training and evaluation from
//! SWF job traces: real traces from the Parallel Workloads Archive and
//! synthetic traces from the Lublin–Feitelson model. This crate provides the
//! pieces every other crate builds on:
//!
//! * [`Job`] — the job record with the attributes of Table I of the paper
//!   (submit time, requested processors, requested time, user/group ids, …).
//! * [`parse`] / [`mod@write`] — a lossless SWF v2.2 reader and writer, including
//!   header comment handling.
//! * [`StreamReader`] — the one line loop every reader runs
//!   ([`parse_reader`] and [`parse_str`] collect it): records are scanned
//!   in place inside the source's buffer by a byte-level fast path with
//!   integer accumulation, and any line it declines (headers, blanks,
//!   anything unusual) falls back to [`parse::parse_line`], so values and
//!   errors are the seed parser's.
//! * [`JobTrace`] — an owned trace with slicing, windowing and random
//!   sequence-sampling used by the trainer and the evaluation harness.
//! * [`stats`] — the per-trace characteristics reported in Table II
//!   (processor count, mean interarrival, mean requested runtime, mean
//!   requested processors) plus per-user job counts used by the fairness
//!   experiments.

pub mod error;
pub mod job;
pub mod parse;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod write;

pub use error::SwfError;
pub use job::{Job, JobStatus};
pub use parse::{parse_reader, parse_str, SwfHeader};
pub use stats::TraceStats;
pub use stream::StreamReader;
pub use trace::{JobTrace, SequenceSampler};
pub use write::{write_jobs, write_string, write_writer};
