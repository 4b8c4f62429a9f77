//! Table IX microbenchmarks: scheduling-decision latency for 128 pending
//! jobs — SJF's sort-and-pick vs the RLScheduler DNN forward pass — plus
//! the MLP v1–v3 baselines for architecture comparison. Every network
//! decision runs the allocation-free inference fast path (`*_fast`,
//! `nn::infer` via `Agent::as_policy` buffers), one decision and a
//! 16-view `greedy_batch` (a serving shard's stacked forward) alike
//! through the `[in, out]` forward training runs.
//!
//! The queue-scaling group also prices one streaming SJF *tick* (a
//! decision and the `StreamSession::step` it feeds) at the same depths,
//! through the ranked head (`sjf_ranked_{n}`) and through the full
//! rescoring it replaced (`sjf_scan_{n}`, the base to read the ranked
//! rows against).

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_rl::{greedy_batch, ActorScratch};
use rlsched_sched::{select_streaming, HeuristicKind};
use rlsched_sim::{MetricKind, QueueView, SimConfig, StreamSession, WaitingJob};
use rlsched_swf::Job;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, RlPolicy};

/// The agent head's decision over a snapshot.
fn decide(policy: &mut RlPolicy<'_>, view: &QueueView<'_>) -> usize {
    policy.decide(
        view.free_procs,
        view.total_procs,
        view.waiting.len(),
        view.waiting.iter().copied(),
    )
}

fn decision_view(jobs: &[Job]) -> QueueView<'_> {
    QueueView {
        time: 5000.0,
        free_procs: 64,
        total_procs: 256,
        waiting: jobs
            .iter()
            .enumerate()
            .map(|(i, job)| WaitingJob {
                job,
                job_index: i,
                wait: 5000.0 - job.submit_time,
                can_run_now: job.procs() <= 64,
            })
            .collect(),
    }
}

fn pending_jobs(n: usize) -> Vec<Job> {
    (0..n as u32)
        .map(|i| {
            Job::new(
                i + 1,
                i as f64,
                30.0 + (i % 37) as f64 * 120.0,
                1 + i % 16,
                60.0 + (i % 29) as f64 * 180.0,
            )
        })
        .collect()
}

fn agent_of(kind: PolicyKind) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: 128,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        seed: 1,
        ..AgentConfig::paper_default()
    })
}

fn bench_decisions(c: &mut Criterion) {
    let jobs = pending_jobs(128);
    let view = decision_view(&jobs);

    let mut group = c.benchmark_group("decision_128_jobs");
    group.bench_function("sjf_sort_pick", |b| {
        b.iter(|| {
            std::hint::black_box(select_streaming(
                HeuristicKind::Sjf,
                view.waiting.iter().copied(),
            ))
        })
    });

    // One decision through the agent head, then 16 concurrent scheduling
    // requests through one `greedy_batch` forward over their stacked
    // encodings, amortizing the weight stream (divide the batch median by
    // 16 for the per-decision cost).
    for (kind, name) in [
        (PolicyKind::Kernel, "kernel"),
        (PolicyKind::MlpV1, "mlp_v1"),
        (PolicyKind::MlpV2, "mlp_v2"),
        (PolicyKind::MlpV3, "mlp_v3"),
    ] {
        let agent = agent_of(kind);
        group.bench_function(format!("rl_{name}_dnn_fast"), |b| {
            let mut policy = agent.as_policy();
            b.iter(|| std::hint::black_box(decide(&mut policy, &view)))
        });
        group.bench_function(format!("rl_{name}_greedy_batch16"), |b| {
            let (mut obs, mut mask) = (Vec::new(), Vec::new());
            for _ in 0..16 {
                agent.encoder().encode_extend(&view, &mut obs, &mut mask);
            }
            let mut scratch = ActorScratch::new();
            let mut actions = Vec::new();
            b.iter(|| {
                greedy_batch(
                    &agent.ppo().policy,
                    &obs,
                    &mask,
                    16,
                    &mut scratch,
                    &mut actions,
                );
                std::hint::black_box(actions.len())
            })
        });
    }
    group.finish();
}

fn bench_queue_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_decision_vs_queue_len");
    let kernel = agent_of(PolicyKind::Kernel);
    for n in [16usize, 64, 128, 256] {
        let jobs = pending_jobs(n);
        let view = decision_view(&jobs);
        // Past MAX_OBSV (128) the cost must plateau: extra jobs are cut off.
        group.bench_function(format!("queue_{n}"), |b| {
            let mut policy = kernel.as_policy();
            b.iter(|| std::hint::black_box(decide(&mut policy, &view)))
        });
    }
    // One streaming SJF tick at a stationary queue depth of n: the head's
    // share is the order's push (in admission), the pop of the previous
    // pick and one ordinal→rank lookup for `sjf_ranked`, a rescoring of
    // all n waiting jobs for `sjf_scan`; the rest of the tick is the same
    // `step`.
    for n in [16usize, 64, 128, 256] {
        for ranked in [true, false] {
            let mut s = StreamSession::new(backlog_of(n), 1, SimConfig::no_backfill())
                .expect("the stream is never empty");
            let arm = if ranked {
                s.rank_by(
                    HeuristicKind::Sjf
                        .static_key()
                        .expect("SJF ranks statically"),
                );
                "sjf_ranked"
            } else {
                "sjf_scan"
            };
            group.bench_function(format!("{arm}_{n}"), |b| {
                b.iter(|| {
                    let pos = if ranked {
                        s.ranked_head()
                    } else {
                        select_streaming(HeuristicKind::Sjf, s.waiting())
                    }
                    .expect("the backlog never drains");
                    s.step(pos).expect("the stream is submit-sorted");
                    std::hint::black_box(pos)
                })
            });
        }
    }
    group.finish();
}

/// An endless stream that holds a one-processor cluster's queue at `n`:
/// `n` jobs at time zero, then one arrival per second against one
/// one-second job started per decision.
fn backlog_of(n: usize) -> impl Iterator<Item = Job> {
    (0u32..).map(move |i| {
        let submit = i.saturating_sub(n as u32) as f64;
        Job::new(i + 1, submit, 1.0, 1, 60.0 + (i % 29) as f64 * 180.0)
    })
}

/// Short, CI-friendly measurement settings: these are latency gauges, not
/// regression-grade statistics.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
criterion_group! {name = benches; config = short_config(); targets = bench_decisions, bench_queue_scaling}
criterion_main!(benches);
