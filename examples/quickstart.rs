//! Quickstart: train a small RLScheduler agent on a synthetic Lublin
//! workload, then compare it against the classic heuristics on held-out
//! job sequences.
//!
//! ```text
//! cargo run --release --example quickstart                     # ~a minute
//! cargo run --release --example quickstart -- --tiny           # seconds (CI smoke)
//! cargo run --release --example quickstart -- --tiny --serve   # + serving-tier demo
//! cargo run --release --example quickstart -- --threads 1      # one-core training
//! ```
//!
//! `--threads N` caps the worker threads training may use (default: the
//! machine's core count):
//! rollout collection fans the epoch's seed schedule out over per-range
//! env groups and the PPO update runs its forward/backward over fixed
//! 64-row chunks. The cap never changes a result — every `--threads`
//! value reproduces the same curve and checkpoint bit for bit (see
//! crates/compat/README.md for the threading model).
//!
//! With `--serve`, the trained agent is additionally stood up behind the
//! sharded `rlsched-serve` tier and every held-out window is scheduled
//! by a concurrent remote client — first as newline-JSON over TCP, then
//! again as binary frames over a unix domain socket. A lone decision on
//! an idle shard is scored on the connection thread that read it, and a
//! backlog coalesces into batches on the shards; either way it must come
//! back bit-identical to in-process scoring on both wire stacks.

use rlsched_repro::core::prelude::*;
use rlsched_repro::core::{build_policy, CanaryBatch, ScorerSnapshot};
use rlsched_repro::sched::{HeuristicKind, PriorityScheduler};
use rlsched_repro::serve::{
    ListenAddr, RemotePolicy, ServeClient, ServeConfig, Server, ServerAddr, WireProtocol,
};
use rlsched_repro::workload::NamedWorkload;

/// Problem sizes for the two run modes: the default "see it learn" scale
/// and a `--tiny` smoke scale CI uses to prove the binary still drives
/// the whole train→eval→checkpoint pipeline after API changes.
struct Scale {
    jobs: usize,
    max_obsv: usize,
    epochs: usize,
    trajectories: usize,
    seq_len: usize,
    eval_windows: usize,
    eval_len: usize,
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let serve = std::env::args().any(|a| a == "--serve");
    let threads = {
        let mut args = std::env::args();
        args.find(|a| a == "--threads")
            .and_then(|_| args.next())
            .map(|v| v.parse().expect("--threads takes a worker count"))
            .unwrap_or(TrainConfig::default().n_threads)
    };
    let scale = if tiny {
        Scale {
            jobs: 400,
            max_obsv: 16,
            epochs: 2,
            trajectories: 4,
            seq_len: 32,
            eval_windows: 2,
            eval_len: 64,
        }
    } else {
        Scale {
            jobs: 1500,
            max_obsv: 32,
            epochs: 10,
            trajectories: 12,
            seq_len: 128,
            eval_windows: 5,
            eval_len: 256,
        }
    };

    // 1. A workload: jobs from the Lublin-Feitelson model, calibrated to
    //    the paper's Table II moments (256-processor cluster).
    let trace = NamedWorkload::Lublin1.generate(scale.jobs, 42);
    println!(
        "workload: {} jobs on {} processors",
        trace.len(),
        trace.max_procs()
    );

    // 2. An agent: the paper's kernel-based policy network, shrunk a little
    //    so this example runs in ~a minute (or seconds with --tiny).
    let mut cfg = AgentConfig::paper_default();
    cfg.obs.max_obsv = scale.max_obsv;
    cfg.ppo.train_pi_iters = 15;
    cfg.ppo.train_v_iters = 15;
    cfg.ppo.minibatch = Some(512);
    let mut agent = Agent::new(cfg);
    println!(
        "policy parameters: {} (<1000, §IV-B1)",
        agent.policy_param_count()
    );

    // 3. Train toward minimizing average bounded slowdown. Collection
    //    steps 8 env slots in lockstep, scoring every live trajectory
    //    through one stacked policy forward per simulator tick.
    let train_cfg = TrainConfig {
        epochs: scale.epochs,
        trajectories_per_epoch: scale.trajectories,
        seq_len: scale.seq_len,
        sim: SimConfig::default(),
        filter: FilterMode::Off,
        seed: 7,
        n_envs: 8,
        n_threads: threads,
    };
    println!(
        "\ntraining ({} epochs{})…",
        train_cfg.epochs,
        if threads >= 2 {
            format!(", {threads} worker threads")
        } else {
            String::new()
        }
    );
    let curve = train(&mut agent, &trace, &train_cfg);
    for e in &curve {
        println!("  epoch {:>2}: mean bsld {:>10.2}", e.epoch, e.mean_metric);
    }

    // 4. Evaluate on held-out sequences — the *same* sequences for every
    //    scheduler, as the paper's protocol requires. The RL agent is
    //    evaluated through its `Policy` head, asked by the episode driver
    //    at every decision exactly as a heuristic's is.
    let windows = sample_eval_windows(&trace, scale.eval_windows, scale.eval_len, 99);
    println!(
        "\nscheduling {} held-out sequences of {} jobs (avg bounded slowdown):",
        windows.len(),
        windows[0].len()
    );
    for kind in HeuristicKind::table3() {
        let mut sched = PriorityScheduler::new(kind);
        let results = evaluate_policy(&windows, SimConfig::default(), &mut sched);
        println!(
            "  {:<10} {:>10.2}",
            kind.name(),
            mean_metric(&results, MetricKind::BoundedSlowdown)
        );
    }
    let results = evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy());
    println!(
        "  {:<10} {:>10.2}",
        "RL",
        mean_metric(&results, MetricKind::BoundedSlowdown)
    );

    // 5. Persist the trained model (Table VII transfer-style usage).
    let json = agent.save_json();
    let restored = Agent::load_json(&json).expect("checkpoint is valid");
    let again = evaluate_policy(&windows, SimConfig::default(), &mut restored.as_policy());
    assert_eq!(
        mean_metric(&results, MetricKind::BoundedSlowdown),
        mean_metric(&again, MetricKind::BoundedSlowdown),
        "restored model schedules identically"
    );
    println!("\ncheckpoint round-trip OK ({} bytes of JSON)", json.len());

    // 6. (--serve) Stand the trained agent up behind the sharded,
    //    request-coalescing serving tier and schedule every held-out
    //    window through a concurrent remote client — once per wire
    //    stack. The decisions cross the wire as queue snapshots, are
    //    scored inline or coalesced into batches on the shards, and must
    //    match in-process scoring bit for bit on both stacks.
    if serve {
        // JSON over TCP: the `nc`-able, greppable stack.
        let handle = Server::spawn(
            agent.scorer_snapshot(),
            *agent.encoder(),
            ServeConfig {
                shards: 2,
                addr: ListenAddr::Tcp("127.0.0.1:0".into()),
                ..ServeConfig::default()
            },
        )
        .expect("serving tier binds a local port");
        println!(
            "\nserving tier up on tcp:{} (JSON frames, 2 shards, {} held-out windows as \
             concurrent clients)…",
            handle.addr(),
            windows.len()
        );
        let addr = handle.addr();
        let window = agent.encoder().cfg.max_obsv;
        let (remote_results, client_decisions): (Vec<_>, Vec<u64>) = std::thread::scope(|s| {
            let handles: Vec<_> = windows
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    s.spawn(move || {
                        let client = ServeClient::connect(addr)
                            .expect("client connects")
                            .with_protocol(WireProtocol::Json)
                            .with_id_base(1 + 10_000 * i as u64);
                        let mut policy = RemotePolicy::new(client, window);
                        let m = evaluate_policy(
                            std::slice::from_ref(w),
                            SimConfig::default(),
                            &mut policy,
                        );
                        assert_eq!(policy.sheds(), 0, "no shedding at demo load");
                        (
                            m.into_iter().next().expect("one window, one result"),
                            policy.remote_decisions(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("remote scheduling thread"))
                .unzip()
        });
        assert_eq!(
            mean_metric(&results, MetricKind::BoundedSlowdown),
            mean_metric(&remote_results, MetricKind::BoundedSlowdown),
            "remote coalesced decisions must match in-process scoring"
        );

        // Scrape the tier's telemetry registry over the wire
        // (`Request::Metrics`) and reconcile it against what the clients
        // counted themselves: the server's decision counters must equal
        // the requests the clients know they sent — telemetry that
        // can't survive that cross-check isn't telemetry.
        let sent: u64 = client_decisions.iter().sum();
        let mut probe = ServeClient::connect(addr).expect("metrics probe connects");
        let scrape = probe.metrics().expect("metrics round trip");
        drop(probe);
        let served = scrape.counter_sum("rlsched_serve_served_total");
        let fallbacks = scrape.counter_sum("rlsched_serve_fallbacks_total");
        let latency = scrape.histogram_merged("rlsched_serve_latency_ns");
        println!(
            "registry scrape: {} metrics — served {} (+{} fallback) across {} batches \
             (largest {}), decision p50 {:.0} µs / p99 {:.0} µs",
            scrape.metrics.len(),
            served,
            fallbacks,
            scrape.counter_sum("rlsched_serve_batches_total"),
            scrape.histogram_merged("rlsched_serve_batch_rows").max_ns,
            latency.quantile_ns(0.5) as f64 / 1e3,
            latency.quantile_ns(0.99) as f64 / 1e3,
        );
        assert_eq!(
            served + fallbacks,
            sent,
            "server decision counters must equal the client-side request count"
        );
        assert_eq!(
            scrape.counter_sum("rlsched_serve_shed_total"),
            0,
            "demo load must not shed"
        );
        assert_eq!(
            latency.count, served,
            "every model-served decision carries one latency sample"
        );

        // Binary frames over a unix domain socket: the zero-copy stack
        // the load benches prefer. Same weights, same coalescing tier —
        // the decisions (and therefore the metrics) must be identical.
        #[cfg(unix)]
        {
            let uds = Server::spawn(
                agent.scorer_snapshot(),
                *agent.encoder(),
                ServeConfig {
                    shards: 2,
                    addr: ListenAddr::unix_temp("quickstart"),
                    ..ServeConfig::default()
                },
            )
            .expect("serving tier binds a unix socket");
            let ServerAddr::Unix(path) = uds.server_addr().clone() else {
                unreachable!("a unix listener binds a unix address")
            };
            println!(
                "serving tier up on unix:{} (binary frames)…",
                path.display()
            );
            let uds_results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = windows
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        let path = path.clone();
                        s.spawn(move || {
                            let client = ServeClient::connect_uds(&path)
                                .expect("client connects over UDS")
                                .with_protocol(WireProtocol::Binary)
                                .with_id_base(1 + 10_000 * i as u64);
                            let mut policy = RemotePolicy::new(client, window);
                            let m = evaluate_policy(
                                std::slice::from_ref(w),
                                SimConfig::default(),
                                &mut policy,
                            );
                            assert_eq!(policy.sheds(), 0, "no shedding at demo load");
                            m.into_iter().next().expect("one window, one result")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("remote scheduling thread"))
                    .collect()
            });
            uds.shutdown();
            assert_eq!(
                mean_metric(&results, MetricKind::BoundedSlowdown),
                mean_metric(&uds_results, MetricKind::BoundedSlowdown),
                "binary-over-UDS decisions must match in-process scoring"
            );
            println!("binary-UDS remote scheduling matches in-process scoring too");
        }
        // Checkpoint lifecycle: propose → validate → commit. The canary
        // probe carries expected decisions from in-process scoring, so
        // the restored weights must reproduce them bit for bit before
        // they are allowed to serve — and a poisoned checkpoint is
        // rejected without ever touching the serving weights.
        let canary = CanaryBatch::probe(&agent, 8, 42);
        let generation = handle
            .propose_scorer(restored.scorer_snapshot(), &canary)
            .expect("the restored checkpoint passes validation");
        println!("validated checkpoint committed (generation {generation})");
        let poisoned = {
            let mut net = build_policy(PolicyKind::Kernel, scale.max_obsv, 99);
            for v in net.params_mut().last().expect("net has params").data_mut() {
                *v = f32::NAN;
            }
            ScorerSnapshot::new(&net)
        };
        assert!(
            handle.propose_scorer(poisoned, &canary).is_err(),
            "a NaN-poisoned checkpoint must be rejected"
        );
        let mut probe = ServeClient::connect(addr).expect("probe connects");
        let stats = probe.stats().expect("stats round trip");
        drop(probe);
        let final_stats = handle.shutdown();
        println!(
            "served {} decisions in {} batches (mean batch {:.1}, max {}), \
             latency p50 {:.0} µs / p99 {:.0} µs / max {:.0} µs, {} hot-swap",
            final_stats.served,
            final_stats.batches,
            final_stats.mean_batch(),
            final_stats.max_batch,
            final_stats.p50_us,
            final_stats.p99_us,
            final_stats.max_us,
            final_stats.swaps,
        );
        assert_eq!(stats.shed, 0, "demo load must not shed");
        assert!(final_stats.served >= stats.served);
        println!("remote scheduling matches in-process scoring — serving tier OK");
    }

    // Emit any buffered trace spans (no-op unless RLSCHED_TRACE is set).
    let _ = rlsched_repro::obs::trace::flush();
}
