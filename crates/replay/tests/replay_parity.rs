//! A replay and an evaluation episode of the same jobs under the same
//! policy end in the same per-job outcomes, bit for bit.
//!
//! Both sides run one event loop and ask one head — `run_episode` and
//! `ReplayEngine::run` reach `PriorityScheduler`, `RlPolicy` and
//! `RemotePolicy` through the same `Policy` trait — so these tests do not
//! compare decision heads, and they cannot see a fault in the loop (the
//! reference simulator in `rlsched-sim`'s tests does that; the ranked head
//! answers to the scan in `ranked_head_prop.rs`). What they still compare:
//!
//! * a materialized episode (`SchedSession`, whose outcome log
//!   `from_trace` turns on, read in trace order) against a streaming
//!   replay's outcome log (`StreamSession::with_outcome_log`);
//! * `LublinModel::stream`, which the replays pull from, against
//!   `LublinModel::generate`, which built the materialized trace;
//! * a served replay against the in-process agent (the serving tier's own
//!   parity guarantee composes);
//! * and that the report's counts add up (decisions + backfilled = jobs).

use rlsched_replay::{collect_timed_requests, ReplayEngine, ReplayPolicy};
use rlsched_sched::{HeuristicKind, PriorityScheduler};
use rlsched_serve::{RemotePolicy, ServeConfig, Server};
use rlsched_sim::{run_episode, BackfillMode, MetricKind, SimConfig};
use rlsched_workload::{LublinModel, LublinParams};
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind};

fn lublin() -> LublinModel {
    LublinModel::new(LublinParams::lublin1())
}

fn small_agent(seed: u64) -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: Default::default(),
        seed,
    })
}

#[test]
fn heuristic_replay_matches_materialized_episode() {
    let model = lublin();
    let trace = model.generate(400, 11);
    for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
        // Table III plus the two ablation kinds: every head the engine
        // has (front, ranked, scan) under every key it can rank by.
        let ablations = [HeuristicKind::Ljf, HeuristicKind::SmallestFirst];
        for kind in HeuristicKind::table3().into_iter().chain(ablations) {
            let want = run_episode(&trace, cfg, &mut PriorityScheduler::new(kind)).unwrap();
            let mut engine = ReplayEngine::new(model.stream(400, 11), trace.max_procs(), cfg)
                .unwrap()
                .with_outcome_log();
            let mut policy: ReplayPolicy = ReplayPolicy::Heuristic(kind);
            let report = engine.run(&mut policy).unwrap();
            assert_eq!(
                engine.log_metrics().unwrap(),
                want,
                "{} diverged under {cfg:?}",
                kind.name()
            );
            // Backfill starts jobs without consulting the policy, so
            // decisions ≤ jobs; every job must still start and finish.
            assert_eq!(report.metrics.count(), trace.len() as u64);
            assert!(report.decisions <= trace.len() as u64);
            assert_eq!(report.decisions + report.backfilled(), trace.len() as u64);
            if cfg.backfill == BackfillMode::None {
                assert_eq!(report.backfilled(), 0, "every start is a decision");
            }
            assert_eq!(report.hist.count(), report.decisions);
            assert!(report.peak_queue < trace.len());
        }
    }
}

#[test]
fn agent_replay_matches_as_policy_episode() {
    let model = lublin();
    let trace = model.generate(250, 5);
    let agent = small_agent(5);
    let cfg = SimConfig::with_backfill();
    let want = run_episode(&trace, cfg, &mut agent.as_policy()).unwrap();
    let mut engine = ReplayEngine::new(model.stream(250, 5), trace.max_procs(), cfg)
        .unwrap()
        .with_outcome_log();
    let mut policy: ReplayPolicy = ReplayPolicy::Agent(agent.as_policy());
    let report = engine.run(&mut policy).unwrap();
    assert_eq!(engine.log_metrics().unwrap(), want);
    assert_eq!(report.metrics.count(), trace.len() as u64);
}

#[test]
fn served_replay_matches_in_process_agent() {
    let model = lublin();
    let trace = model.generate(150, 23);
    let agent = small_agent(23);
    let cfg = SimConfig::with_backfill();
    let window = 16;

    // In-process arm.
    let mut local = ReplayEngine::new(model.stream(150, 23), trace.max_procs(), cfg)
        .unwrap()
        .with_outcome_log();
    let mut local_policy: ReplayPolicy = ReplayPolicy::Agent(agent.as_policy());
    local.run(&mut local_policy).unwrap();

    // Over-the-wire arm against a live server with the same weights.
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig::default(),
    )
    .unwrap();
    let client = handle.connect().unwrap();
    let mut remote = ReplayEngine::new(model.stream(150, 23), trace.max_procs(), cfg)
        .unwrap()
        .with_outcome_log();
    let mut policy = ReplayPolicy::Remote(
        RemotePolicy::new(client, window).with_local_fallback(HeuristicKind::Sjf),
    );
    let report = remote.run(&mut policy).unwrap();
    handle.shutdown();

    assert_eq!(remote.log_metrics().unwrap(), local.log_metrics().unwrap());
    let ReplayPolicy::Remote(dec) = policy else {
        unreachable!()
    };
    assert_eq!(dec.local_decisions(), 0, "no decision fell back locally");
    assert_eq!(dec.remote_fallbacks(), 0);
    assert_eq!(report.metrics.count(), trace.len() as u64);
}

#[test]
fn replayed_arrivals_become_timed_requests() {
    let model = lublin();
    let trace = model.generate(60, 7);
    let requests = collect_timed_requests(
        model.stream(60, 7),
        trace.max_procs(),
        SimConfig::with_backfill(),
        HeuristicKind::Fcfs,
        16,
    )
    .unwrap();
    assert!(!requests.is_empty() && requests.len() <= 60);
    assert!(requests.windows(2).all(|w| w[0].offset <= w[1].offset));
    // Each one is a request the serving tier accepts: a non-empty queue,
    // truncated to the window.
    assert!(requests.iter().all(|r| {
        let jobs = r.snapshot.jobs.len();
        (1..=16).contains(&jobs) && r.snapshot.queue_len() >= jobs
    }));
}
