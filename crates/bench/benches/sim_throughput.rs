//! SchedGym throughput: full-episode simulation cost through `run_episode`
//! — the evaluation path of every `repro` table cell — with and without
//! EASY backfilling, per decision head, and workload generation across
//! workload shapes. Training cost (Table IX) is bounded below by this —
//! every trajectory is one simulated episode.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_sched::{HeuristicKind, PriorityScheduler};
use rlsched_sim::{run_episode, SimConfig};
use rlsched_workload::NamedWorkload;

fn bench_episode(c: &mut Criterion) {
    let trace = NamedWorkload::Lublin1.generate(512, 7);
    let window = trace.window(0, 256).expect("window");

    // Without backfilling every job is a decision over a queue that only
    // drains as fast as the cluster does, so the `*_nobf` rows price the
    // three ways a head finds its job: the front (FCFS), the ranked order
    // (SJF) and the scan (WFP3). The `*_easy` rows add the backfill pass.
    let (nobf, easy) = (SimConfig::no_backfill(), SimConfig::with_backfill());
    let mut group = c.benchmark_group("episode_256_jobs");
    for (name, kind, cfg) in [
        ("fcfs_nobf", HeuristicKind::Fcfs, nobf),
        ("sjf_nobf", HeuristicKind::Sjf, nobf),
        ("wfp3_nobf", HeuristicKind::Wfp3, nobf),
        ("fcfs_easy", HeuristicKind::Fcfs, easy),
        ("sjf_easy", HeuristicKind::Sjf, easy),
        ("f1_easy", HeuristicKind::F1, easy),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sched = PriorityScheduler::new(kind);
                std::hint::black_box(run_episode(&window, cfg, &mut sched).expect("episode"))
            })
        });
    }
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation_1k_jobs");
    for w in [
        NamedWorkload::Lublin1,
        NamedWorkload::PikIplex,
        NamedWorkload::AnlIntrepid,
    ] {
        group.bench_function(w.name(), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                std::hint::black_box(w.generate(1000, seed))
            })
        });
    }
    group.finish();
}

/// Short, CI-friendly measurement settings: these are latency gauges, not
/// regression-grade statistics.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
criterion_group! {name = benches; config = short_config(); targets = bench_episode, bench_workload_generation}
criterion_main!(benches);
