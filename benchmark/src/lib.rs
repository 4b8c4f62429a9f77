//! # The repository's benchmark
//!
//! Seven workloads over the three things the system does — replay a trace,
//! serve decisions, train an agent — each measured two ways:
//!
//! * **end to end** (`run`, tracing off): only the top entry points are
//!   called (`ReplayEngine::run`, `ServeClient` / the public frame
//!   functions, `rlscheduler::train`) with library defaults, so a changed
//!   default is a measured change;
//! * **per layer** (`trace`): the same work driven from the benchmark's own
//!   files with a timer around every call into a layer, so a gain or a
//!   regression can be attributed.
//!
//! README.md next to this crate defines every metric and says why each
//! workload exists. The wider program API the traced runs need is confined
//! to `trace_replay.rs`, `trace_serve.rs` and `trace_train.rs`.

pub mod compare;
pub mod estimate;
pub mod hygiene;
pub mod inputs;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod trace_replay;
pub mod trace_serve;
pub mod trace_train;
pub mod train;

use serde_json::{json, Map, Value};

/// One named number with its unit, as it appears in a result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Name and unit of every end-to-end metric, in reporting order. Each
/// workload reports all of them; BENCHMARK.json fixes direction and bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Name and unit of every per-layer metric. A traced run reports all of
/// them; a layer the workload never enters reads 0 — that *is* the
/// measurement (the workload bypasses the layer).
///
/// Layer costs are reported as shares of the traced pass's blocking
/// quantity — wall time for replay and train, the client-seen median
/// round trip for serve — next to the counts they were measured over and
/// `trace.pass_wall_s`, so every absolute time can be recovered
/// (`busy = share × trace.pass_wall_s`) while no time-valued metric is
/// ever a constant zero. README.md § Per-layer metrics defines each one.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("swf.share", "ratio"),
    ("swf.jobs", "count"),
    ("sim.share", "ratio"),
    ("sim.decisions", "count"),
    ("sim.backfilled_share", "ratio"),
    ("sim.queue_depth_mean", "count"),
    ("sim.queue_depth_peak", "count"),
    ("sched.share", "ratio"),
    ("sched.jobs_scanned_per_decision", "count"),
    ("core.obs.share", "ratio"),
    ("core.env.share", "ratio"),
    ("nn.infer.share", "ratio"),
    ("nn.fused.forward_share", "ratio"),
    ("nn.fused.backward_share", "ratio"),
    ("nn.optim.share", "ratio"),
    ("rl.sampler.rollout_share", "ratio"),
    ("rl.sampler.transitions", "count"),
    ("rl.ppo.update_share", "ratio"),
    ("rl.ppo.gather_share", "ratio"),
    ("rl.ppo.unattributed_share", "ratio"),
    ("rl.ppo.pi_iters", "count"),
    ("rl.ppo.row_iters", "count"),
    ("serve.protocol.share", "ratio"),
    ("serve.protocol.json_over_binary", "ratio"),
    ("serve.transport.share", "ratio"),
    ("serve.server.shard_path_share", "ratio"),
    ("serve.server.wait_share", "ratio"),
    ("serve.server.tail_over_median", "ratio"),
    ("serve.server.batch_rows_mean", "count"),
    ("serve.server.batch_rows_max", "count"),
    ("serve.server.inbox_depth_max", "count"),
    ("serve.server.fallback_share", "ratio"),
    ("serve.server.shed_share", "ratio"),
    ("serve.engine.share", "ratio"),
    ("serve.engine.b8_over_b1", "ratio"),
    ("serve.client.tail_over_median", "ratio"),
    ("serve.gen.late_share", "ratio"),
    ("serve.gen.late_p99_share", "ratio"),
    ("replay.loop_self_share", "ratio"),
    ("train.epoch_self_share", "ratio"),
    ("trace.covered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.pass_wall_s", "s"),
];

/// The full per-layer row: `measured` where given, 0 everywhere else.
/// Panics on a name that is not in [`PER_LAYER`] — a typo must not
/// silently drop a measurement.
pub fn per_layer_row(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: [&str; 7] = [
    "replay_fcfs_shallow",
    "replay_sjf_scan",
    "replay_sjf_backfill",
    "replay_agent",
    "serve_closed",
    "serve_burst",
    "train_epochs",
];

/// Input sizes: `Full` is what BENCHMARK.json's numbers mean; `Smoke`
/// walks the same code in a fraction of a second for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Measured passes repeat until this much pass time has accumulated.
    pub seconds: f64,
    pub scale: Scale,
}

/// What one invocation produced: the driver's result object plus an info
/// object (raw per-pass values, sizes, machine shape) for people.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Value,
}

impl Outcome {
    /// The one-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            );
        }
        let row = json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&row).expect("a Value always serializes")
    }
}

/// What every measured pass reports, whatever the workload family.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Wall time of the pass's fixed work.
    pub wall_s: f64,
    /// Ops attempted in the pass (jobs, requests or transitions).
    pub ops: u64,
    /// Ops that did not complete correctly.
    pub failed: u64,
    /// Median latency of one op as its caller saw it, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs. Info only: on the sizing box it moved
    /// 20–28 % between two sets of runs of the same code, so it is not gated.
    pub p99_us: f64,
}

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 32;

/// Run `pass` until `seconds` of pass time has accumulated (at least
/// three passes, so a best-of has something to choose from).
pub fn measure_passes<T>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<T, String>,
    wall_s: impl Fn(&T) -> f64,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < MIN_PASSES || (spent < seconds && out.len() < MAX_PASSES) {
        let p = pass(out.len())?;
        spent += wall_s(&p);
        out.push(p);
    }
    Ok(out)
}

/// Fold set-up repeats and measured passes into the end-to-end
/// metrics (best pass for timings, median for set-up) plus the raw
/// per-pass values as info.
pub fn end_to_end(setups_s: &[f64], passes: &[PassStat]) -> (Vec<Metric>, Value) {
    use estimate::{best_max, best_min, median, noise};
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| (p.ops - p.failed) as f64 / p.wall_s)
        .collect();
    let p50s: Vec<f64> = passes.iter().map(|p| p.p50_us).collect();
    let p99s: Vec<f64> = passes.iter().map(|p| p.p99_us).collect();
    let values = [
        median(setups_s),
        best_max(&rates),
        best_min(&p50s),
        hygiene::peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let info = json!({
        "passes": passes.len(),
        "setup_s_repeats": setups_s,
        "pass_wall_s": passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        "pass_ops_per_s": rates,
        "pass_lat_p50_us": p50s,
        "pass_lat_p99_us": p99s,
        "noise_ops_per_s": noise(&rates, values[1]),
        "noise_lat_p50_us": noise(&p50s, values[2]),
        "lat_p99_us": best_min(&p99s),
    });
    (metrics, info)
}

/// Merge `extra`'s members into `base` (both JSON objects).
pub fn merge_info(base: &mut Value, extra: Value) {
    if let (Value::Object(b), Value::Object(e)) = (base, extra) {
        b.extend(e);
    }
}

/// `run <workload>`: the end-to-end row.
pub fn run_workload(name: &str, args: RunArgs) -> Result<Outcome, String> {
    if let Some(spec) = replay::spec(name, args.scale) {
        replay::run(&spec, args)
    } else if let Some(spec) = serve::spec(name, args.scale) {
        serve::run(&spec, args)
    } else if name == train::NAME {
        train::run(&train::spec(args.scale), args)
    } else {
        Err(unknown_workload(name))
    }
}

/// `trace <workload>`: the per-layer row.
pub fn trace_workload(name: &str, args: RunArgs) -> Result<Outcome, String> {
    if let Some(spec) = replay::spec(name, args.scale) {
        trace_replay::trace(&spec, args)
    } else if let Some(spec) = serve::spec(name, args.scale) {
        trace_serve::trace(&spec, args)
    } else if name == train::NAME {
        trace_train::trace(&train::spec(args.scale), args)
    } else {
        Err(unknown_workload(name))
    }
}

fn unknown_workload(name: &str) -> String {
    format!("unknown workload {name:?}; known: {}", WORKLOADS.join(", "))
}
