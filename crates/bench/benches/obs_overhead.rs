//! The telemetry layer's overhead contract, measured.
//!
//! Two groups back the two halves of the `rlsched-obs` contract:
//!
//! * `obs_primitives` — the per-record cost of each hot-path handle:
//!   counter increment, gauge `set_max`, histogram record, and a
//!   *disabled* `span!` guard (the shape every non-traced run pays).
//!   All are a handful of nanoseconds; none allocates (the
//!   alloc-regression suite pins that separately).
//! * `obs_engine` — the whole-cycle check the acceptance bar reads:
//!   a `ShardEngine` `push_snapshot`+flush cycle (the path a serving
//!   shard runs: encode each snapshot into the stack, one batched
//!   forward) uninstrumented versus the same cycle with registry
//!   handles attached. The instrumented arm adds
//!   four relaxed atomic RMWs to a batched forward that streams whole
//!   weight matrices, so the deltas should disappear into noise
//!   (≤ 2%).
//!
//! Run with `cargo bench -p rlsched-bench --bench obs_overhead`; the
//! medians are printed, not saved.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_obs::{Counter, Gauge, Histogram, Registry};
use rlsched_rl::PpoConfig;
use rlsched_serve::{EngineMetrics, ScorerSlot, ShardEngine};
use rlsched_sim::MetricKind;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob};

const MAX_OBSV: usize = 64;
const BATCH: usize = 8;

fn agent() -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: MAX_OBSV,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    })
}

fn request_snapshots(n: usize) -> Vec<QueueSnapshot> {
    (0..n)
        .map(|i| {
            let depth = 1 + (7 * i + 3) % MAX_OBSV;
            QueueSnapshot {
                free_procs: 16 + (i as u32 % 48),
                total_procs: 256,
                queue_len: depth as u32,
                jobs: (0..depth)
                    .map(|j| SnapshotJob {
                        wait: 30.0 * (1 + (i + j) % 100) as f64,
                        time_bound: 600.0 * (1 + (i * 13 + j * 7) % 200) as f64,
                        procs: 1 + ((i + 3 * j) % 64) as u32,
                        can_run_now: (i + j) % 3 != 0,
                    })
                    .collect(),
            }
        })
        .collect()
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");

    let counter = Counter::standalone();
    group.bench_function("counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            criterion::black_box(&counter);
        })
    });

    let gauge = Gauge::standalone();
    let mut x = 0u64;
    group.bench_function("gauge_set_max", |b| {
        b.iter(|| {
            x = (x + 7) % 512;
            gauge.set_max(x as f64);
            criterion::black_box(&gauge);
        })
    });

    let hist = Histogram::standalone();
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = (v.wrapping_mul(48271)) % 2_000_000 + 1;
            hist.record_value(v);
            criterion::black_box(&hist);
        })
    });

    // The guard every un-traced run pays: one cached atomic load and a
    // branch, no clock read, no allocation.
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            rlsched_obs::span!("bench.noop");
            criterion::black_box(0u8);
        })
    });

    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_engine");
    let agent = agent();
    let scorer = agent.scorer_snapshot();
    let encoder = *agent.encoder();
    let snapshots = request_snapshots(BATCH);

    // Baseline: the serve tier's push+flush cycle, no telemetry.
    let mut plain = ShardEngine::new(ScorerSlot::new(scorer.clone()), BATCH);
    group.bench_function("push_flush_plain", |b| {
        b.iter(|| {
            for snap in &snapshots {
                plain.push_snapshot(snap, &encoder);
            }
            criterion::black_box(plain.flush().len())
        })
    });

    // Instrumented: identical cycle with registry handles attached —
    // the configuration every production shard runs.
    let reg = Registry::new();
    let mut inst = ShardEngine::new(ScorerSlot::new(scorer), BATCH);
    inst.instrument(EngineMetrics {
        rows: reg.counter("bench_rows_total", &[]),
        batches: reg.counter("bench_batches_total", &[]),
        batch_rows: reg.histogram("bench_batch_rows", &[]),
        batch_max: reg.gauge("bench_batch_max", &[]),
    });
    group.bench_function("push_flush_instrumented", |b| {
        b.iter(|| {
            for snap in &snapshots {
                inst.push_snapshot(snap, &encoder);
            }
            criterion::black_box(inst.flush().len())
        })
    });

    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
criterion_group! {name = benches; config = config(); targets = bench_primitives, bench_engine}
criterion_main!(benches);
