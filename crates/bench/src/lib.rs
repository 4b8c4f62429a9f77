//! Reproduction harness for the RLScheduler paper.
//!
//! Every table and figure of the evaluation section (§V + appendix) has a
//! generator here, dispatched by the `repro` binary:
//!
//! ```text
//! cargo run --release -p rlsched-bench --bin repro -- <experiment> [--full] [--seed N]
//! ```
//!
//! Two profiles are provided: the default **quick** profile shrinks traces,
//! training epochs and evaluation windows so the whole suite runs on a
//! laptop in minutes; `--full` restores the paper's scale (first 10K jobs,
//! 100 epochs × 100 × 256-job trajectories, 10 × 1024-job evaluations).
//! Shapes — who wins, by roughly what factor — are expected to hold in
//! both; absolute numbers are profile-dependent.
//!
//! The crate also holds the `schedsim` and `replay` CLIs. Neither writes
//! numbers to disk: the repository's committed, gated measurements come
//! from the `benchmark/` package.

pub mod alloc;
pub mod experiments;
pub mod profile;
pub mod report;

pub use profile::Profile;
pub use report::Report;
