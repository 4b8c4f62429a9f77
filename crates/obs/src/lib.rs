//! `rlsched-obs` — the repo's one set of instruments: a metrics
//! registry and a text exposition encoder, shared by the serve tier,
//! the trainer, the replay engine and the benchmark.
//!
//! Design contract, same discipline as the rest of the stack:
//!
//! * **Recording is free-ish.** Counter/gauge/histogram recording is
//!   one or two relaxed atomic RMWs. Zero steady-state allocations on
//!   every recording path — pinned by the workspace alloc-regression
//!   suite — and `crates/serve/tests/obs_overhead.rs` bounds the
//!   instrumented serve engine cycle within 2% of the uninstrumented
//!   baseline.
//! * **Telemetry never steers.** The clock reads that feed latency
//!   histograms and phase counters are never consumed by a decision
//!   path.
//! * **Scrapes never stop writers.** [`Registry::snapshot`] reads
//!   atomics; a histogram's reported total is derived from its bucket
//!   reads so `sum(buckets) == count` holds mid-race.
//!
//! # Metric naming
//!
//! `rlsched_<subsystem>_<what>[_total]` with snake_case names and
//! lowercase label keys: `rlsched_serve_served_total{shard="0"}`,
//! `rlsched_train_update_ns_total{phase="forward"}`,
//! `rlsched_replay_ticks_total{head="SJF"}`. Counters end in
//! `_total`; nanosecond histograms end in `_ns`. See
//! `crates/obs/README.md` for the full scheme and the exposition
//! grammar.
//!
//! # Pieces
//!
//! * [`Registry`] + [`Counter`]/[`Gauge`]/[`Histogram`] handles, and
//!   [`RegistrySnapshot`] — the scrape value that crosses the wire as
//!   `serve::Request::Metrics` and renders via [`encode_text`].
//! * [`LatencyHistogram`] — the single-owner log-linear histogram that
//!   grew up in `rlsched-serve` (still re-exported there) and now
//!   shares its bucket axis with the registry histograms.

pub mod histogram;
pub mod registry;

pub use histogram::{bucket_of, bucket_upper, LatencyHistogram};
pub use registry::{
    encode_text, global, Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue,
    Registry, RegistrySnapshot,
};
