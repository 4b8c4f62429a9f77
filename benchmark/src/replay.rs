//! The four replay workloads, end to end: a synthetic SWF trace on disk
//! goes through `open_swf` → `ReplayEngine::run` under one decision head.
//!
//! They share every layer (`swf`, `sim`, `sched`/`core`+`nn`) and differ in
//! which one does the work — see README.md § Workloads.

use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

use rlsched_replay::{open_swf, ReplayEngine, ReplayPolicy, ReplayReport};
use rlsched_rl::PpoConfig;
use rlsched_sched::{HeuristicKind, PriorityScheduler};
use rlsched_sim::{run_episode, EpisodeMetrics, SimConfig, StreamMetrics};
use rlsched_swf::{Job, JobTrace};
use rlscheduler::Agent;

use crate::estimate::quantile_interp;
use crate::inputs::Arrivals;
use crate::{
    end_to_end, inputs, measure_passes, merge_info, Outcome, PassStat, RunArgs, Scale,
    SETUP_REPEATS,
};

/// Which decision head a replay workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    Fcfs,
    Sjf,
    /// In-process kernel@128 agent (`StreamDecider`).
    Agent,
}

/// One replay workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    pub name: &'static str,
    /// Jobs in the measured trace: the ops of one pass.
    pub jobs: usize,
    /// Jobs in the set-up trace (a prefix of the same stream).
    pub setup_jobs: usize,
    pub arrivals: Arrivals,
    pub backfill: bool,
    pub head: Head,
}

/// Jobs replayed a second time through the materialized simulator and
/// compared outcome for outcome.
pub const PARITY_JOBS: usize = 2_000;

pub const TRACE_FILE: &str = "trace.swf";
pub const SETUP_FILE: &str = "setup.swf";

/// The replay workload called `name`, if there is one. Full sizes were
/// tuned on a 2-core 2.1 GHz Xeon so one pass takes about a second.
pub fn spec(name: &str, scale: Scale) -> Option<ReplaySpec> {
    let full = scale == Scale::Full;
    let size = |full_n: usize, smoke_n: usize| if full { full_n } else { smoke_n };
    Some(match name {
        "replay_fcfs_shallow" => ReplaySpec {
            name: "replay_fcfs_shallow",
            jobs: size(409_600, 1_536),
            setup_jobs: size(20_480, 256),
            arrivals: Arrivals::Batches { size: 128 },
            backfill: true,
            head: Head::Fcfs,
        },
        "replay_sjf_scan" => ReplaySpec {
            name: "replay_sjf_scan",
            jobs: size(60_000, 1_500),
            setup_jobs: size(2_000, 300),
            arrivals: Arrivals::Batches {
                size: size(2_000, 300),
            },
            backfill: false,
            head: Head::Sjf,
        },
        "replay_sjf_backfill" => ReplaySpec {
            name: "replay_sjf_backfill",
            jobs: size(24_000, 1_500),
            setup_jobs: size(1_000, 300),
            arrivals: Arrivals::Batches {
                size: size(1_000, 300),
            },
            backfill: true,
            head: Head::Sjf,
        },
        "replay_agent" => ReplaySpec {
            name: "replay_agent",
            jobs: size(128_000, 512),
            setup_jobs: size(7_680, 128),
            arrivals: Arrivals::Batches { size: 256 },
            backfill: false,
            head: Head::Agent,
        },
        _ => return None,
    })
}

impl ReplaySpec {
    pub fn sim(&self) -> SimConfig {
        if self.backfill {
            SimConfig::with_backfill()
        } else {
            SimConfig::no_backfill()
        }
    }

    pub fn heuristic(&self) -> Option<HeuristicKind> {
        match self.head {
            Head::Fcfs => Some(HeuristicKind::Fcfs),
            Head::Sjf => Some(HeuristicKind::Sjf),
            Head::Agent => None,
        }
    }

    /// A fresh agent when the head needs one. Built inside set-up and
    /// inside every pass's construction, never shared between passes.
    pub fn fresh_agent(&self) -> Option<Agent> {
        (self.head == Head::Agent).then(|| inputs::kernel_agent(PpoConfig::default()))
    }

    fn sizes(&self) -> Value {
        json!({
            "jobs": self.jobs, "setup_jobs": self.setup_jobs, "arrivals": format!("{:?}", self.arrivals),
            "backfill": self.backfill, "head": format!("{:?}", self.head),
            "parity_jobs": PARITY_JOBS.min(self.jobs),
        })
    }
}

/// The decision head for `spec`, borrowing `agent` when it is the agent's.
pub fn policy<'a>(spec: &ReplaySpec, agent: &'a Option<Agent>) -> ReplayPolicy<'a> {
    match spec.heuristic() {
        Some(kind) => ReplayPolicy::Heuristic(kind),
        None => ReplayPolicy::Agent(
            agent
                .as_ref()
                .expect("agent head comes with an agent")
                .stream_decider(),
        ),
    }
}

/// `StreamMetrics` has no equality (it holds a per-user map); its eight
/// public aggregates, bit for bit, stand in for it.
pub fn fingerprint(m: &StreamMetrics) -> [u64; 8] {
    [
        m.count(),
        m.avg_waiting_time().to_bits(),
        m.avg_turnaround().to_bits(),
        m.avg_slowdown().to_bits(),
        m.avg_bounded_slowdown().to_bits(),
        m.makespan().to_bits(),
        m.utilization().to_bits(),
        m.max_user_bounded_slowdown().to_bits(),
    ]
}

/// What a pass must reproduce exactly, pass after pass and traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayIdentity {
    pub decisions: u64,
    pub peak_queue: usize,
    pub metrics: [u64; 8],
    /// The mid-stream SWF error, if the source hit one.
    pub swf_error: Option<String>,
}

/// One end-to-end replay over `path`.
pub struct ReplayPass {
    /// Opening the source and building engine, agent and decider.
    pub construct_s: f64,
    pub stat: PassStat,
    pub identity: ReplayIdentity,
    pub avg_bounded_slowdown: f64,
}

/// Write the measured trace and the set-up trace; return the parity jobs.
pub fn synthesize(spec: &ReplaySpec, seed: u64) -> Result<Vec<Job>, String> {
    let (model, cluster) = inputs::lublin1();
    let jobs = |n| inputs::lublin_jobs(&model, n, seed, spec.arrivals);
    inputs::write_swf(Path::new(TRACE_FILE), cluster, jobs(spec.jobs))?;
    inputs::write_swf(Path::new(SETUP_FILE), cluster, jobs(spec.setup_jobs))?;
    Ok(jobs(PARITY_JOBS.min(spec.jobs)).collect())
}

/// Open `path`, build fresh program objects, replay to the end.
pub fn replay_once(
    spec: &ReplaySpec,
    path: &str,
    expect_jobs: usize,
) -> Result<ReplayPass, String> {
    let t0 = Instant::now();
    let agent = spec.fresh_agent();
    let src = open_swf(path).map_err(|e| format!("{path}: {e}"))?;
    let mut engine =
        ReplayEngine::new(src.jobs, src.max_procs, spec.sim()).map_err(|e| e.to_string())?;
    let mut head = policy(spec, &agent);
    let construct_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let report: ReplayReport = engine.run(&mut head).map_err(|e| e.to_string())?;
    let wall_s = t1.elapsed().as_secs_f64();

    let replayed = report.metrics.count();
    Ok(ReplayPass {
        construct_s,
        stat: PassStat {
            wall_s,
            ops: expect_jobs as u64,
            failed: (expect_jobs as u64).abs_diff(replayed),
            p50_us: quantile_interp(&report.hist, 0.5) / 1e3,
            p99_us: quantile_interp(&report.hist, 0.99) / 1e3,
        },
        identity: ReplayIdentity {
            decisions: report.decisions,
            peak_queue: report.peak_queue,
            metrics: fingerprint(&report.metrics),
            swf_error: src.errors.take().map(|e| e.to_string()),
        },
        avg_bounded_slowdown: report.metrics.avg_bounded_slowdown(),
    })
}

/// Replay `jobs` through the streaming engine with an outcome log and
/// through the materialized `SchedSession` under the equivalent `Policy`;
/// true when every job's outcome agrees.
pub fn parity_holds(spec: &ReplaySpec, jobs: &[Job]) -> Result<bool, String> {
    let (_, cluster) = inputs::lublin1();
    let agent = spec.fresh_agent();
    let mut engine = ReplayEngine::new(jobs.iter().cloned(), cluster, spec.sim())
        .map_err(|e| e.to_string())?
        .with_outcome_log();
    engine
        .run(&mut policy(spec, &agent))
        .map_err(|e| e.to_string())?;
    let streamed: EpisodeMetrics = engine.log_metrics().expect("outcome log was enabled");

    let trace = JobTrace::new(jobs.to_vec(), cluster);
    let materialized = match (spec.heuristic(), &agent) {
        (Some(kind), _) => run_episode(&trace, spec.sim(), &mut PriorityScheduler::new(kind)),
        (None, Some(agent)) => run_episode(&trace, spec.sim(), &mut agent.as_policy()),
        (None, None) => unreachable!("agent head comes with an agent"),
    }
    .map_err(|e| e.to_string())?;
    Ok(streamed == materialized)
}

/// `run <replay workload>`.
pub fn run(spec: &ReplaySpec, args: RunArgs) -> Result<Outcome, String> {
    let t = Instant::now();
    let parity_jobs = synthesize(spec, args.seed)?;
    let input_gen_s = t.elapsed().as_secs_f64();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let p = replay_once(spec, SETUP_FILE, spec.setup_jobs)?;
        setups.push(p.construct_s + p.stat.wall_s);
    }

    let passes = measure_passes(
        args.seconds,
        |_| replay_once(spec, TRACE_FILE, spec.jobs),
        |p| p.stat.wall_s,
    )?;
    let parity_ok = parity_holds(spec, &parity_jobs)?;

    let first = &passes[0].identity;
    let repeatable = passes.iter().all(|p| p.identity == *first);
    let stats: Vec<PassStat> = passes.iter().map(|p| p.stat.clone()).collect();
    let parity_failed = if parity_ok {
        0
    } else {
        parity_jobs.len() as u64
    };
    let attempted = stats.iter().map(|s| s.ops).sum::<u64>() + parity_jobs.len() as u64;
    let failed = stats.iter().map(|s| s.failed).sum::<u64>() + parity_failed;

    let (metrics, mut info) = end_to_end(&setups, &stats);
    merge_info(
        &mut info,
        json!({
            "workload": spec.name, "seed": args.seed, "sizes": spec.sizes(),
            "input_gen_s": input_gen_s,
            "construct_s": passes.iter().map(|p| p.construct_s).collect::<Vec<_>>(),
            "decisions": first.decisions, "peak_queue": first.peak_queue,
            "avg_bounded_slowdown": passes[0].avg_bounded_slowdown,
            "swf_error": first.swf_error,
            "passes_bit_equal": repeatable, "parity_with_materialized_sim": parity_ok,
        }),
    );
    Ok(Outcome {
        correct: failed == 0 && repeatable && parity_ok && first.swf_error.is_none(),
        attempted,
        failed,
        metrics,
        info,
    })
}
