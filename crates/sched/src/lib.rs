//! Heuristic batch-job schedulers: the baselines of the RLScheduler paper.
//!
//! Table III of the paper lists the priority functions evaluated against
//! RLScheduler. Each assigns every waiting job a *score*; the job with the
//! smallest score is scheduled next:
//!
//! | Name   | score(t)                                   |
//! |--------|--------------------------------------------|
//! | FCFS   | `s_t` (submit time)                        |
//! | SJF    | `r_t` (requested runtime)                  |
//! | WFP3   | `-(w_t / r_t)^3 * n_t`                     |
//! | UNICEP | `-w_t / (log2(n_t) * r_t)`                 |
//! | F1     | `log10(r_t) * n_t + 870 * log10(s_t)`      |
//!
//! where `w_t` is the current waiting time, `r_t` the requested runtime,
//! `n_t` the requested processors and `s_t` the submit time. WFP3 and
//! UNICEP favor jobs that wait long, run short and request few processors
//! (expert-tweaked priority families \[3\]); F1 is the best
//! simulation+regression scheduler from Carastan-Santos et al. \[4\].
//!
//! All of them implement [`rlsched_sim::Policy`], so they plug into the
//! same episode driver as the RL agent. A seeded [`RandomPolicy`] and two
//! extra heuristics (LJF, SmallestFirst) are included for tests and
//! ablations.

pub mod heuristics;
pub mod random;

pub use heuristics::{select_parts, select_streaming, HeuristicKind, PriorityScheduler};
pub use random::RandomPolicy;
