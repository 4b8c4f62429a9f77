//! Serving throughput: coalesced batched scoring through the serve
//! tier's `ShardEngine` versus request-at-a-time scoring (the
//! `as_policy` single-decision loop a non-coalescing server would
//! run), at concurrency ∈ {1, 8, 32}.
//!
//! Each measured iteration scores `c` concurrent requests, so dividing
//! `median_ns` by `c` gives ns/decision. The expectation from the
//! decision-latency work: the flat MLPs win big from coalescing (their
//! weight stream is the cost, and one stacked forward pays it once per
//! batch instead of once per request), while the kernel policy's
//! weights are L1-resident so its win is dispatch amortization only.
//! The criterion shim emits `BENCH_serving.json` (the file is named
//! after this bench target; engine ids live under
//! `serving_throughput/`, end-to-end wire arms under `serving_wire/`).

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_rl::{greedy_batch, ActorScratch, PpoConfig};
use rlsched_serve::{ListenAddr, ScorerSlot, ServeConfig, Server, ShardEngine, WireProtocol};
use rlsched_sim::MetricKind;
use rlscheduler::{
    Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob, JOB_FEATURES,
};

const MAX_OBSV: usize = 128;

fn agent(kind: PolicyKind) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: MAX_OBSV,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    })
}

/// One pre-encoded request row (what a connection thread hands a shard).
struct Row {
    obs: Vec<f32>,
    mask: Vec<f32>,
    queue_len: usize,
}

/// Deterministic request rows from synthetic decision points of varying
/// queue depth — realistic masks, not all-live padding.
fn request_rows(agent: &Agent, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let depth = 1 + (7 * i + 3) % MAX_OBSV;
            let snap = QueueSnapshot {
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
            };
            let mut obs = Vec::with_capacity(MAX_OBSV * JOB_FEATURES);
            let mut mask = Vec::with_capacity(MAX_OBSV);
            agent
                .encoder()
                .encode_snapshot_extend(&snap, &mut obs, &mut mask);
            Row {
                obs,
                mask,
                queue_len: depth,
            }
        })
        .collect()
}

fn bench_serving_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_throughput");
    for (label, kind) in [
        ("kernel", PolicyKind::Kernel),
        ("mlp_v1", PolicyKind::MlpV1),
    ] {
        let agent = agent(kind);
        let scorer = agent.scorer_snapshot();
        let rows = request_rows(&agent, 32);
        for &conc in &[1usize, 8, 32] {
            // Coalesced: the serve tier's path — stack `conc` requests,
            // one batched forward, clamped actions out.
            let slot = ScorerSlot::new(scorer.clone());
            let mut engine = ShardEngine::new(slot, conc);
            group.bench_function(format!("{label}/coalesced_c{conc}"), |b| {
                b.iter(|| {
                    for r in &rows[..conc] {
                        engine.push_row(&r.obs, &r.mask, r.queue_len);
                    }
                    criterion::black_box(engine.flush().len())
                })
            });

            // Request-at-a-time: the same scorer, one rows=1 forward per
            // request — what serving without a coalescer costs.
            let mut scratch = ActorScratch::new();
            let mut actions = Vec::new();
            group.bench_function(format!("{label}/request_at_a_time_c{conc}"), |b| {
                b.iter(|| {
                    let mut sum = 0usize;
                    for r in &rows[..conc] {
                        greedy_batch(&scorer, &r.obs, &r.mask, 1, &mut scratch, &mut actions);
                        sum += actions[0].min(r.queue_len - 1);
                    }
                    criterion::black_box(sum)
                })
            });
        }
    }
    group.finish();
}

/// Wire-protocol cost in isolation: a synchronous score_raw round trip
/// against a live 1-shard server, for every {JSON, binary} × {TCP, UDS}
/// cell. A lone synchronous client never has a batch-mate, so each round
/// trip is wire + one rows=1 forward. The scoring work is identical in
/// every cell (same kernel scorer, same row), so the spread between
/// arms is encode + transport + decode — the thing the binary format
/// and the UDS front door exist to shrink.
type ListenerArm = (&'static str, fn() -> ListenAddr);

fn bench_serving_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_wire");
    let agent = agent(PolicyKind::Kernel);
    let rows = request_rows(&agent, 4);
    let row = &rows[2]; // a mid-depth queue, not degenerate
    let listeners: Vec<ListenerArm> = vec![
        ("tcp", || ListenAddr::Tcp("127.0.0.1:0".into())),
        #[cfg(unix)]
        ("uds", || ListenAddr::unix_temp("serving-bench")),
    ];
    for (transport, listen) in listeners {
        for proto in [WireProtocol::Json, WireProtocol::Binary] {
            let handle = Server::spawn(
                agent.scorer_snapshot(),
                *agent.encoder(),
                ServeConfig {
                    shards: 1,
                    addr: listen(),
                    ..ServeConfig::default()
                },
            )
            .expect("server spawns");
            let mut client = handle
                .connect()
                .expect("client connects")
                .with_protocol(proto);
            group.bench_function(format!("{}_{transport}", proto.name()), |b| {
                b.iter(|| {
                    let d = client
                        .score_raw(&row.obs, &row.mask, row.queue_len)
                        .expect("round trip");
                    criterion::black_box(d.action)
                })
            });
            drop(client);
            handle.shutdown();
        }
    }
    group.finish();
}

fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}
criterion_group! {name = benches; config = short_config(); targets = bench_serving_throughput, bench_serving_wire}
criterion_main!(benches);
