//! `rlsched-obs` — the repo's unified telemetry layer: a metrics
//! registry, span tracing, and a text exposition encoder, shared by the
//! serve tier, the trainer, and the replay engine.
//!
//! Design contract, same discipline as the rest of the stack:
//!
//! * **Recording is free-ish.** Counter/gauge/histogram recording is
//!   one or two relaxed atomic RMWs; a disabled span is a cached load
//!   and a branch. Zero steady-state allocations on every recording
//!   path — pinned by the workspace alloc-regression suite — and
//!   `crates/serve/tests/obs_overhead.rs` bounds the instrumented serve
//!   engine cycle within 2% of the uninstrumented baseline.
//! * **Telemetry never steers.** Clock reads happen only inside span
//!   guards (and only when `RLSCHED_TRACE` is set) and latency
//!   recording; no decision path consumes them. All parity suites run
//!   bit-identical with tracing on.
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
//! * [`span!`] / [`trace`] — RAII spans, `RLSCHED_TRACE`-gated, drained
//!   as JSONL from a bounded ring.

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::{bucket_of, bucket_upper, LatencyHistogram};
pub use registry::{
    encode_text, global, Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue,
    Registry, RegistrySnapshot,
};
