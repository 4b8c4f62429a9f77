//! `replay` — trace-scale streaming replay benchmark.
//!
//! Generates a deterministic synthetic SWF trace (Lublin model) on disk,
//! streams it back through the one-pass [`rlsched_replay::ReplayEngine`],
//! and reports per-policy job and decision throughput (jobs/s, sim-ticks/s),
//! the share of jobs EASY backfilled without a decision, decision latency
//! quantiles (p50/p99), and the peak queue depth that bounds the replay's
//! resident memory.
//!
//! ```text
//! replay                         # full run: 1,000,000 jobs, FCFS + SJF (+ agent at 1/20 scale)
//! replay --jobs 200000 --seed 7  # custom scale
//! replay --smoke                 # small trace, all three heads: heuristic + agent + served
//! replay --smoke --metrics-dump  # also print both telemetry registries: the serve tier's
//!                                # (scraped over the wire via Request::Metrics) and the
//!                                # process-global replay registry, in exposition text format
//! ```
//!
//! The trace is replayed on the model's own arrivals. The calibrated
//! Lublin model offers a load of about 1, so the backlog grows with the
//! trace (FCFS peaks at a queue of ~226 000 over a million jobs): that is
//! the regime the engine is meant to survive: neither the decision head
//! (FCFS, SJF and F1 pick from a kept order, O(log n)) nor EASY
//! backfilling (one first-fit descent per started job,
//! `IndexedQueue::first_fit`) walks the queue.
//!
//! The generated traces live in `std::env::temp_dir()` for the length of
//! the run and are removed on every exit path, errors included. Results
//! go to stdout only.

use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use rlsched_replay::{open_swf, ReplayEngine, ReplayMetrics, ReplayPolicy, ReplayReport};
use rlsched_sched::HeuristicKind;
use rlsched_serve::{RemotePolicy, ServeConfig, Server, Transport};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::{LublinModel, LublinParams};
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind};

struct Args {
    jobs: usize,
    seed: u64,
    smoke: bool,
    backfill: bool,
    metrics_dump: bool,
}

const USAGE: &str =
    "usage: replay [--jobs N] [--seed N] [--smoke] [--no-backfill] [--metrics-dump]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 1_000_000,
        seed: 1,
        smoke: false,
        backfill: true,
        metrics_dump: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--jobs" => {
                args.jobs = next("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--no-backfill" => args.backfill = false,
            "--metrics-dump" => args.metrics_dump = true,
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if args.smoke {
        args.jobs = args.jobs.min(2_000);
    }
    Ok(args)
}

/// A generated trace file, deleted when dropped.
struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Write the trace once, streaming straight to disk — the generator side
/// never materializes it either. The guard exists before the file does,
/// so a failed write leaves nothing behind.
fn write_trace(jobs: usize, seed: u64) -> std::io::Result<TempTrace> {
    let trace = TempTrace(std::env::temp_dir().join(format!("rlsched_replay_{jobs}_{seed}.swf")));
    let params = LublinParams::lublin1();
    let cluster = params.cluster_size;
    let model = LublinModel::new(params);
    let file = std::fs::File::create(&trace.0)?;
    let mut header = rlsched_swf::SwfHeader::default();
    header
        .fields
        .insert("MaxProcs".to_string(), cluster.to_string());
    rlsched_swf::write_jobs(
        &header,
        cluster,
        model.stream(jobs, seed),
        BufWriter::new(file),
    )
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(trace)
}

fn replay_arm<S: Transport>(
    path: &std::path::Path,
    cfg: SimConfig,
    head: &str,
    policy: &mut ReplayPolicy<'_, S>,
) -> Result<ReplayReport, String> {
    let src = open_swf(path).map_err(|e| e.to_string())?;
    let mut engine = ReplayEngine::new(src.jobs, src.max_procs, cfg).map_err(|e| e.to_string())?;
    engine.instrument(ReplayMetrics::register(rlsched_obs::global(), head));
    let report = engine.run(policy).map_err(|e| e.to_string())?;
    if let Some(e) = src.errors.take() {
        return Err(format!("trace cut short: {e}"));
    }
    Ok(report)
}

fn print_report(label: &str, r: &ReplayReport) {
    println!(
        "{label:>10}: {:>9} jobs, {:>8} decisions, {:>5.1}% backfilled, {:>9.0} jobs/s, \
         {:>9.0} ticks/s, p50 {:>7} ns, p99 {:>8} ns, peak queue {:>6}, \
         peak running {:>5}, bsld {:.3}, util {:.3}",
        r.metrics.count(),
        r.decisions,
        100.0 * r.backfilled() as f64 / r.metrics.count().max(1) as f64,
        r.jobs_per_sec(),
        r.decisions_per_sec(),
        r.p50_ns(),
        r.p99_ns(),
        r.peak_queue,
        r.peak_running,
        r.metrics.avg_bounded_slowdown(),
        r.metrics.utilization(),
    );
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

fn run(args: Args) -> Result<(), String> {
    let cfg = if args.backfill {
        SimConfig::with_backfill()
    } else {
        SimConfig::no_backfill()
    };
    println!(
        "generating {} Lublin jobs (seed {}) to a temporary SWF…",
        args.jobs, args.seed
    );
    let trace = write_trace(args.jobs, args.seed).map_err(|e| e.to_string())?;

    // Heuristic arms: the full trace, one pass each.
    for kind in [HeuristicKind::Fcfs, HeuristicKind::Sjf] {
        let mut policy: ReplayPolicy = ReplayPolicy::Heuristic(kind);
        let r = replay_arm(&trace.0, cfg, kind.name(), &mut policy)?;
        print_report(kind.name(), &r);
    }

    // Agent arm: in-process RL decisions. Scoring cost grows with queue
    // depth, so a large run replays a 1/20 slice (at least 1 000 jobs,
    // never more than the trace) to keep the bench minutes-scale; smoke
    // replays the whole (tiny) trace.
    let agent_jobs = if args.smoke {
        args.jobs
    } else {
        (args.jobs / 20).max(1_000).min(args.jobs)
    };
    let agent_trace = if agent_jobs == args.jobs {
        None
    } else {
        Some(write_trace(agent_jobs, args.seed).map_err(|e| e.to_string())?)
    };
    let agent_path = &agent_trace.as_ref().unwrap_or(&trace).0;
    let agent = small_agent(args.seed);
    let mut agent_policy: ReplayPolicy = ReplayPolicy::Agent(agent.as_policy());
    let r = replay_arm(agent_path, cfg, "RL-agent", &mut agent_policy)?;
    print_report("RL-agent", &r);

    // Served arm (smoke only): decisions cross the wire to a live
    // sharded server built from the same weights, over the library
    // defaults (loopback TCP, binary frames).
    if args.smoke {
        let handle = Server::spawn(
            agent.scorer_snapshot(),
            *agent.encoder(),
            ServeConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let client = handle.connect().map_err(|e| e.to_string())?;
        let mut policy = ReplayPolicy::Remote(
            RemotePolicy::new(client, 16).with_local_fallback(HeuristicKind::Sjf),
        );
        let r = replay_arm(agent_path, cfg, "RL-served", &mut policy)?;
        print_report("RL-served", &r);
        if args.metrics_dump {
            // Scrape the server's own registry over the wire before it
            // goes down — the shard/latency counters for the run above.
            let mut probe = handle.connect().map_err(|e| e.to_string())?;
            let scrape = probe.metrics().map_err(|e| e.to_string())?;
            println!("--- serve registry (Request::Metrics) ---");
            print!("{}", rlsched_obs::encode_text(&scrape));
        }
        handle.shutdown();
    }

    if args.metrics_dump {
        // The process-global registry: per-head replay ticks, decision
        // latency, throughput and peak-queue gauges.
        println!("--- replay registry ---");
        print!(
            "{}",
            rlsched_obs::encode_text(&rlsched_obs::global().snapshot())
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let code = match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    };
    // Spans buffer in-process; emit them on the way out (no-op unless
    // RLSCHED_TRACE is set).
    let _ = rlsched_obs::trace::flush();
    code
}
