//! Workload substrates for the RLScheduler reproduction.
//!
//! The paper evaluates on six traces (Table II): four real traces from the
//! Parallel Workloads Archive (SDSC-SP2, HPC2N, PIK-IPLEX-2009, ANL
//! Intrepid) and two synthetic traces generated with the Lublin–Feitelson
//! model \[18\] (Lublin-1, Lublin-2). The real archives are not redistributed
//! here; instead this crate provides *trace-alike* generators calibrated to
//! the Table II statistics and to the qualitative properties the paper's
//! experiments depend on:
//!
//! * **PIK-IPLEX-2009** — extreme arrival burstiness, producing the
//!   heavy-tailed per-sequence slowdown distribution of Figs 3/7 that
//!   motivates trajectory filtering (§III-2, §IV-C);
//! * **HPC2N** — a dominant user submitting a large share of all jobs,
//!   which drives the fairness results of Table VIII (§V-F);
//! * **SDSC-SP2** — a small (128-proc) machine with relatively large
//!   requests, where scheduling order matters enormously (the trace on
//!   which RL beats every heuristic by >2× in Table V);
//! * **ANL Intrepid** — Blue Gene/P scale (163 840 cores, partition-sized
//!   allocations), used in the Table VII transfer study.
//!
//! [`tracealike`] is the machinery and [`named`] the per-trace parameters
//! and the calibration to Table II's moments. Every generator emits an
//! ordinary [`rlsched_swf::JobTrace`], so the rest of the system cannot
//! tell synthetic jobs from parsed ones.

pub mod dist;
pub mod lublin;
pub mod named;
pub mod tracealike;
pub mod users;

pub use lublin::{LublinModel, LublinParams};
pub use named::{NamedWorkload, Table2Targets};
pub use tracealike::{TraceAlikeModel, TraceAlikeParams};
pub use users::UserModel;
