//! The two serve workloads, end to end: a fresh `Server::spawn` with
//! `ServeConfig::default()` (apart from `addr`) answers decision-point
//! snapshots replayed from a Lublin trace.
//!
//! * `serve_closed` — Unix socket, two `ServeClient`s with one request in
//!   flight each (closed loop): per-request overhead with batch size ≈ 1.
//! * `serve_burst` — TCP, two connections each firing a pipelined burst of
//!   16 `Request::Score` frames on a fixed seeded schedule (open loop at
//!   burst granularity): the only workload where coalescing, inbox depth
//!   and the stacked forward matter. `ServeClient` cannot pipeline, so this
//!   one speaks the public frame functions directly.

use std::io::{BufReader, Write};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use rlsched_replay::collect_timed_requests;
use rlsched_rl::{ActorScratch, PpoConfig};
use rlsched_sched::HeuristicKind;
use rlsched_serve::protocol::{encode_binary_frame, read_frame_any_into};
use rlsched_serve::{
    AnyStream, LatencyHistogram, ListenAddr, Request, Response, ServeClient, ServeConfig,
    ServeStats, ServedBy, Server, ServerAddr, ServerHandle, Transport, WireFrame, WireProtocol,
};
use rlsched_sim::SimConfig;
use rlscheduler::{Agent, QueueSnapshot};

use crate::estimate::quantile_interp;
use crate::{
    end_to_end, inputs, measure_passes, merge_info, Outcome, PassStat, RunArgs, Scale,
    SETUP_REPEATS,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// One request in flight per connection; the next is sent when the
    /// reply arrives, so a slower server receives less load.
    Closed,
    /// Bursts fire when they are due whether or not the server kept up.
    Burst,
}

/// One serve workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub mode: Loop,
    pub conns: usize,
    /// Requests each connection sends in one pass.
    pub requests_per_conn: usize,
    /// Requests each connection sends during set-up.
    pub warm_requests: usize,
    /// Distinct decision-point snapshots the connections cycle through.
    pub pool: usize,
    /// Jobs of the Lublin trace the snapshots are taken from.
    pub source_jobs: usize,
    /// Frames per pipelined burst (`Burst` only).
    pub burst: usize,
    /// Nominal time between a connection's bursts (`Burst` only).
    pub period_ns: u64,
}

/// A burst sent later than this after it was due counts as late.
const LATE_SLACK: Duration = Duration::from_micros(100);

/// The generator sleeps to this far before a burst is due, then spins:
/// a sleep alone overshoots by the timer slack, which would be charged to
/// every request of the burst as server latency.
const SPIN_MARGIN: Duration = Duration::from_micros(150);

pub fn spec(name: &str, scale: Scale) -> Option<ServeSpec> {
    let full = scale == Scale::Full;
    let base = ServeSpec {
        name: "",
        mode: Loop::Closed,
        conns: 2,
        requests_per_conn: if full { 6_400 } else { 96 },
        warm_requests: if full { 256 } else { 8 },
        pool: if full { 1_024 } else { 32 },
        source_jobs: if full { 8_000 } else { 512 },
        burst: 16,
        period_ns: 4_000_000,
    };
    Some(match name {
        "serve_closed" => ServeSpec {
            name: "serve_closed",
            ..base
        },
        "serve_burst" => ServeSpec {
            name: "serve_burst",
            mode: Loop::Burst,
            ..base
        },
        _ => return None,
    })
}

impl ServeSpec {
    fn listen(&self) -> ListenAddr {
        match self.mode {
            // Relative: the process sits in its scratch directory.
            Loop::Closed => ListenAddr::Unix("serve.sock".into()),
            Loop::Burst => ListenAddr::Tcp("127.0.0.1:0".into()),
        }
    }

    pub fn bursts_per_conn(&self) -> usize {
        self.requests_per_conn / self.burst
    }

    fn sizes(&self) -> Value {
        json!({
            "mode": format!("{:?}", self.mode), "connections": self.conns,
            "requests_per_conn": self.requests_per_conn, "warm_requests": self.warm_requests,
            "snapshot_pool": self.pool, "source_jobs": self.source_jobs,
            "burst": self.burst, "period_ns": self.period_ns,
        })
    }
}

/// The request list: snapshots and, for each, the action the in-process
/// agent picks — the answer every served reply is checked against.
pub struct RequestPool {
    pub snapshots: Vec<QueueSnapshot>,
    pub expected: Vec<usize>,
}

/// The agent every server of a run serves. Fresh per server, same bits.
pub fn serving_agent() -> Agent {
    inputs::kernel_agent(PpoConfig::default())
}

/// Decision points of a no-backfill FCFS replay at stretch 2.5 (queue
/// stationary around 270 deep, so every snapshot fills the 128-job
/// window), skipping the ramp-up quarter and striding evenly to `pool`.
pub fn synthesize(spec: &ServeSpec, seed: u64) -> Result<RequestPool, String> {
    let (model, cluster) = inputs::lublin1();
    let agent = serving_agent();
    let window = agent.encoder().cfg.max_obsv;
    let points = collect_timed_requests(
        inputs::lublin_jobs(
            &model,
            spec.source_jobs,
            seed,
            inputs::Arrivals::Batches { size: 256 },
        ),
        cluster,
        SimConfig::no_backfill(),
        HeuristicKind::Fcfs,
        window,
    )
    .map_err(|e| e.to_string())?;
    let skip = points.len() / 4;
    let stride = ((points.len() - skip) / spec.pool).max(1);
    let snapshots: Vec<QueueSnapshot> = points
        .into_iter()
        .skip(skip)
        .step_by(stride)
        .take(spec.pool)
        .map(|r| r.snapshot)
        .collect();
    if snapshots.len() < spec.pool {
        return Err(format!(
            "only {} decision points for a pool of {}",
            snapshots.len(),
            spec.pool
        ));
    }
    let (mut obs, mut mask, mut scratch) = (Vec::new(), Vec::new(), ActorScratch::new());
    let expected = snapshots
        .iter()
        .map(|snap| {
            obs.clear();
            mask.clear();
            agent
                .encoder()
                .encode_snapshot_extend(snap, &mut obs, &mut mask);
            agent
                .score(&obs, &mask, &mut scratch)
                .min(snap.queue_len().saturating_sub(1))
        })
        .collect();
    Ok(RequestPool {
        snapshots,
        expected,
    })
}

/// A fresh server for `spec`: library defaults apart from the address.
pub fn spawn(spec: &ServeSpec) -> Result<ServerHandle, String> {
    let agent = serving_agent();
    Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: spec.listen(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("spawn: {e}"))
}

pub fn connect(addr: &ServerAddr, conn: usize) -> Result<ServeClient<AnyStream>, String> {
    Ok(ServeClient::connect_any(addr)
        .map_err(|e| format!("connect: {e}"))?
        .with_protocol(WireProtocol::Binary)
        .with_id_base((conn as u64) << 32))
}

/// What one connection saw during one pass.
pub struct ConnResult {
    pub hist: LatencyHistogram,
    pub failed: u64,
    pub started: Instant,
    pub ended: Instant,
    /// Bursts sent more than `LATE_SLACK` after they were due.
    pub late_bursts: u64,
    /// How late each burst was sent.
    pub lateness: LatencyHistogram,
}

/// Which pool entry connection `conn` sends as its `seq`-th request: the
/// connections walk the pool from different offsets.
pub fn pool_index(spec: &ServeSpec, conn: usize, seq: usize) -> usize {
    (conn * spec.requests_per_conn + seq) % spec.pool
}

fn closed_loop(
    spec: &ServeSpec,
    pool: &RequestPool,
    client: &mut ServeClient<AnyStream>,
    conn: usize,
    requests: usize,
) -> ConnResult {
    let mut hist = LatencyHistogram::new();
    let mut failed = 0;
    let started = Instant::now();
    for seq in 0..requests {
        let k = pool_index(spec, conn, seq);
        let t = Instant::now();
        let reply = client.score_snapshot(&pool.snapshots[k]);
        hist.record(t.elapsed());
        match reply {
            Ok(d) if d.served_by == ServedBy::Model && d.action == pool.expected[k] => {}
            _ => failed += 1,
        }
    }
    ConnResult {
        hist,
        failed,
        started,
        ended: Instant::now(),
        late_bursts: 0,
        lateness: LatencyHistogram::new(),
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        let Some(left) = due.checked_duration_since(now).filter(|d| !d.is_zero()) else {
            return;
        };
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A pipelining connection: the public stream and frame functions, since
/// `ServeClient` keeps one request in flight.
pub struct BurstLink {
    writer: AnyStream,
    reader: BufReader<AnyStream>,
}

pub fn dial_burst(addr: &ServerAddr) -> Result<BurstLink, String> {
    let io = |e: std::io::Error| format!("burst connection: {e}");
    let writer = AnyStream::dial(addr).map_err(io)?;
    writer.tune();
    let reader = BufReader::new(writer.try_clone().map_err(io)?);
    Ok(BurstLink { writer, reader })
}

/// One connection of the open loop. Each burst is encoded when it is due,
/// written in one call, and every reply is timed from the due time: a
/// burst that fires late (the previous one's replies were still coming)
/// fires at once and its requests carry the wait.
fn burst_loop(
    spec: &ServeSpec,
    pool: &RequestPool,
    link: &mut BurstLink,
    conn: usize,
    schedule: &[u64],
) -> Result<ConnResult, String> {
    let io = |e: std::io::Error| format!("burst connection {conn}: {e}");
    let (mut wire, mut frame, mut payload, mut line) =
        (Vec::new(), Vec::new(), Vec::new(), String::new());
    let mut resp = Response::scratch();
    let mut hist = LatencyHistogram::new();
    let mut lateness = LatencyHistogram::new();
    let (mut failed, mut late_bursts) = (0, 0);

    let started = Instant::now();
    for (b, &due_ns) in schedule.iter().enumerate() {
        let due = started + Duration::from_nanos(due_ns);
        wait_until(due);
        let late_by = Instant::now().saturating_duration_since(due);
        lateness.record(late_by);
        if late_by > LATE_SLACK {
            late_bursts += 1;
        }
        wire.clear();
        for j in 0..spec.burst {
            let seq = b * spec.burst + j;
            let request = Request::Score {
                id: (conn as u64) << 32 | seq as u64,
                snapshot: pool.snapshots[pool_index(spec, conn, seq)].clone(),
            };
            encode_binary_frame(&request, &mut frame);
            wire.extend_from_slice(&frame);
        }
        link.writer.write_all(&wire).map_err(io)?;
        for _ in 0..spec.burst {
            let got = read_frame_any_into(&mut link.reader, &mut payload, &mut line, &mut resp)
                .map_err(io)?;
            hist.record(Instant::now().saturating_duration_since(due));
            let ok = got.is_some()
                && matches!(&resp, Response::Action { id, action, served_by, .. }
                    if *served_by == ServedBy::Model
                        && *action as usize
                            == pool.expected[pool_index(spec, conn, (*id & 0xFFFF_FFFF) as usize)]);
            if !ok {
                failed += 1;
            }
        }
    }
    Ok(ConnResult {
        hist,
        failed,
        started,
        ended: Instant::now(),
        late_bursts,
        lateness,
    })
}

/// One measured pass and what the server said about it afterwards.
pub struct ServePass {
    pub stat: PassStat,
    pub stats: ServeStats,
    pub late_share: f64,
    pub late_p99_us: f64,
    /// Client-side latency of every request of the pass.
    pub hist: LatencyHistogram,
}

/// Drive one pass of `spec` against the running server `handle`: every
/// connection is opened first, then all start together.
pub fn drive(
    spec: &ServeSpec,
    pool: &RequestPool,
    seed: u64,
    handle: &ServerHandle,
) -> Result<Vec<ConnResult>, String> {
    let addr = handle.server_addr();
    let start = Barrier::new(spec.conns);
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..spec.conns)
            .map(|conn| {
                let start = &start;
                s.spawn(move || match spec.mode {
                    Loop::Closed => {
                        let client = connect(addr, conn);
                        start.wait();
                        Ok(closed_loop(
                            spec,
                            pool,
                            &mut client?,
                            conn,
                            spec.requests_per_conn,
                        ))
                    }
                    Loop::Burst => {
                        let link = dial_burst(addr);
                        let schedule = inputs::burst_schedule(
                            seed,
                            conn,
                            spec.bursts_per_conn(),
                            spec.period_ns,
                        );
                        start.wait();
                        burst_loop(spec, pool, &mut link?, conn, &schedule)
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect()
}

/// Fold the connections' results into the pass's numbers.
pub fn fold(spec: &ServeSpec, conns: &[ConnResult], stats: ServeStats) -> ServePass {
    let mut hist = LatencyHistogram::new();
    let mut lateness = LatencyHistogram::new();
    for c in conns {
        hist.merge(&c.hist);
        lateness.merge(&c.lateness);
    }
    let started = conns
        .iter()
        .map(|c| c.started)
        .min()
        .expect("at least one connection");
    let ended = conns
        .iter()
        .map(|c| c.ended)
        .max()
        .expect("at least one connection");
    let ops = (spec.conns * spec.requests_per_conn) as u64;
    let bursts = (spec.conns * spec.bursts_per_conn()) as f64;
    ServePass {
        stat: PassStat {
            wall_s: (ended - started).as_secs_f64(),
            ops,
            failed: conns.iter().map(|c| c.failed).sum::<u64>().min(ops),
            p50_us: quantile_interp(&hist, 0.5) / 1e3,
            p99_us: quantile_interp(&hist, 0.99) / 1e3,
        },
        stats,
        late_share: conns.iter().map(|c| c.late_bursts).sum::<u64>() as f64 / bursts,
        late_p99_us: quantile_interp(&lateness, 0.99) / 1e3,
        hist,
    }
}

/// True when the server answered everything itself: no shed, fallback,
/// expired deadline or shard restart.
pub fn clean(stats: &ServeStats) -> bool {
    stats.shed == 0 && stats.fallbacks == 0 && stats.deadlines == 0 && stats.restarts == 0
}

fn pass(spec: &ServeSpec, pool: &RequestPool, seed: u64) -> Result<ServePass, String> {
    let handle = spawn(spec)?;
    let conns = drive(spec, pool, seed, &handle);
    let stats = handle.shutdown();
    Ok(fold(spec, &conns?, stats))
}

/// Spawn, connect every client, answer the warm-up requests; the server
/// comes down again outside the timed region.
fn setup_once(spec: &ServeSpec, pool: &RequestPool) -> Result<f64, String> {
    let t0 = Instant::now();
    let handle = spawn(spec)?;
    let outcome = (|| {
        let mut clients = (0..spec.conns)
            .map(|c| connect(handle.server_addr(), c))
            .collect::<Result<Vec<_>, _>>()?;
        let mut failed = 0;
        for (conn, client) in clients.iter_mut().enumerate() {
            failed += closed_loop(spec, pool, client, conn, spec.warm_requests).failed;
        }
        Ok::<_, String>((t0.elapsed().as_secs_f64(), failed))
    })();
    handle.shutdown();
    match outcome? {
        (elapsed, 0) => Ok(elapsed),
        (_, failed) => Err(format!("{failed} warm-up requests were answered wrongly")),
    }
}

/// `run <serve workload>`.
pub fn run(spec: &ServeSpec, args: RunArgs) -> Result<Outcome, String> {
    let t = Instant::now();
    let pool = synthesize(spec, args.seed)?;
    let input_gen_s = t.elapsed().as_secs_f64();

    let setups = (0..SETUP_REPEATS)
        .map(|_| setup_once(spec, &pool))
        .collect::<Result<Vec<_>, _>>()?;
    let passes = measure_passes(
        args.seconds,
        |_| pass(spec, &pool, args.seed),
        |p| p.stat.wall_s,
    )?;

    let stats: Vec<PassStat> = passes.iter().map(|p| p.stat.clone()).collect();
    let served_all = passes
        .iter()
        .all(|p| clean(&p.stats) && p.stats.served == p.stat.ops);
    let attempted = stats.iter().map(|s| s.ops).sum();
    let failed = stats.iter().map(|s| s.failed).sum();
    let (metrics, mut info) = end_to_end(&setups, &stats);
    merge_info(
        &mut info,
        json!({
            "workload": spec.name, "seed": args.seed, "sizes": spec.sizes(),
            "input_gen_s": input_gen_s,
            "batch_rows_mean": passes.iter().map(|p| p.stats.mean_batch()).collect::<Vec<_>>(),
            "late_share": passes.iter().map(|p| p.late_share).collect::<Vec<_>>(),
            "late_p99_us": passes.iter().map(|p| p.late_p99_us).collect::<Vec<_>>(),
            "server_answered_everything_itself": served_all,
        }),
    );
    Ok(Outcome {
        correct: failed == 0 && served_all,
        attempted,
        failed,
        metrics,
        info,
    })
}
