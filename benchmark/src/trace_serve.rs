//! Per-layer trace of the serve workloads.
//!
//! A served request crosses threads and a socket, so its layers are
//! measured from outside, each by the cheapest means that isolates it, and
//! reported as shares of the client-seen median round trip of the traced
//! pass:
//!
//! * `serve.protocol` — isolated loops over the workload's own request
//!   list time the public frame functions (binary, and JSON for contrast);
//! * `serve.engine` — an in-process `ShardEngine` scores the same
//!   snapshots at the batch sizes the server used;
//! * `serve.transport` — `ServeClient::stats` round trips: socket, reader
//!   and writer threads, no shard;
//! * `serve.server` — the program's own registry, scraped over the wire
//!   (`Request::Metrics`) after the traced pass: shard-path latency
//!   histogram (inbox + coalesce wait + forward), batch counters, and the
//!   inbox-depth gauges sampled while the pass runs.
//!
//! This file is the only place the benchmark touches `ShardEngine`,
//! `ScorerSlot`, the registry's metric names and the JSON frame functions;
//! retarget it when those move.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde_json::json;

use rlsched_obs::RegistrySnapshot;
use rlsched_serve::protocol::{encode_binary_frame, encode_json_frame, read_frame_any_into};
use rlsched_serve::{
    LatencyHistogram, Request, Response, ScorerSlot, ServeConfig, ServedBy, ServerHandle,
    ShardEngine, WireFrame,
};

use crate::estimate::{best_min, quantile_interp, quantile_interp_with};
use crate::serve::{
    clean, connect, drive, fold, serving_agent, spawn, synthesize, RequestPool, ServePass,
    ServeSpec,
};
use crate::{measure_passes, per_layer_row, Outcome, RunArgs};

/// Mean nanoseconds of one call of `op` over `rounds` sweeps of `n` items.
fn ns_per_call(n: usize, rounds: usize, mut op: impl FnMut(usize)) -> f64 {
    let sweep = |op: &mut dyn FnMut(usize)| {
        let t = Instant::now();
        for i in 0..n {
            op(i);
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    sweep(&mut op); // warm buffers and caches
    best_min(&(0..rounds).map(|_| sweep(&mut op)).collect::<Vec<_>>())
}

/// Cost of each frame function on the workload's own requests.
struct ProtocolCosts {
    encode_req_ns: f64,
    decode_req_ns: f64,
    encode_resp_ns: f64,
    decode_resp_ns: f64,
    json_encode_req_ns: f64,
    json_decode_req_ns: f64,
}

fn protocol_costs(pool: &RequestPool) -> Result<ProtocolCosts, String> {
    let n = pool.snapshots.len();
    let requests: Vec<Request> = pool
        .snapshots
        .iter()
        .enumerate()
        .map(|(i, s)| Request::Score {
            id: i as u64,
            snapshot: s.clone(),
        })
        .collect();
    let responses: Vec<Response> = pool
        .expected
        .iter()
        .enumerate()
        .map(|(i, &a)| Response::Action {
            id: i as u64,
            action: a as u64,
            shard: (i % 2) as u64,
            served_by: ServedBy::Model,
        })
        .collect();
    fn frames<T>(items: &[T], encode: impl Fn(&T, &mut Vec<u8>)) -> Vec<Vec<u8>> {
        items
            .iter()
            .map(|item| {
                let mut f = Vec::new();
                encode(item, &mut f);
                f
            })
            .collect()
    }
    let req_frames = frames(&requests, encode_binary_frame);
    let resp_frames = frames(&responses, encode_binary_frame);
    let json_frames = frames(&requests, |r, f| {
        encode_json_frame(r, f).expect("a request always serializes")
    });

    let rounds = 5;
    let mut wire = Vec::new();
    let (mut payload, mut line) = (Vec::new(), String::new());
    let mut req = Request::scratch();
    let mut resp = Response::scratch();
    let mut decode_failures = 0;
    let costs = ProtocolCosts {
        encode_req_ns: ns_per_call(n, rounds, |i| encode_binary_frame(&requests[i], &mut wire)),
        encode_resp_ns: ns_per_call(n, rounds, |i| encode_binary_frame(&responses[i], &mut wire)),
        json_encode_req_ns: ns_per_call(n, rounds, |i| {
            encode_json_frame(&requests[i], &mut wire).expect("a request always serializes")
        }),
        decode_req_ns: ns_per_call(n, rounds, |i| {
            let ok =
                read_frame_any_into(&mut &req_frames[i][..], &mut payload, &mut line, &mut req);
            decode_failures += usize::from(!matches!(ok, Ok(Some(_))));
        }),
        decode_resp_ns: ns_per_call(n, rounds, |i| {
            let ok =
                read_frame_any_into(&mut &resp_frames[i][..], &mut payload, &mut line, &mut resp);
            decode_failures += usize::from(!matches!(ok, Ok(Some(_))));
        }),
        json_decode_req_ns: ns_per_call(n, rounds, |i| {
            let ok =
                read_frame_any_into(&mut &json_frames[i][..], &mut payload, &mut line, &mut req);
            decode_failures += usize::from(!matches!(ok, Ok(Some(_))));
        }),
    };
    if decode_failures > 0 {
        return Err(format!("{decode_failures} frames did not decode"));
    }
    Ok(costs)
}

/// Nanoseconds per row of an in-process `ShardEngine` scoring the pool in
/// batches of `batch` (`push_snapshot` × batch, then `flush`), and whether
/// every action matched the expected one.
fn engine_row_ns(pool: &RequestPool, batch: usize) -> (f64, bool) {
    let agent = serving_agent();
    let encoder = *agent.encoder();
    let mut engine = ShardEngine::new(ScorerSlot::new(agent.scorer_snapshot()), batch);
    let n = pool.snapshots.len() / batch;
    let mut all_match = true;
    let ns_per_batch = ns_per_call(n, 5, |b| {
        for snap in &pool.snapshots[b * batch..(b + 1) * batch] {
            engine.push_snapshot(snap, &encoder);
        }
        all_match &= engine.flush() == &pool.expected[b * batch..(b + 1) * batch];
    });
    (ns_per_batch / batch as f64, all_match)
}

/// Median `ServeClient::stats` round trip against an idle server, µs.
fn stats_rtt_us(handle: &ServerHandle, rounds: usize) -> Result<f64, String> {
    let mut client = connect(handle.server_addr(), 7)?;
    let mut hist = LatencyHistogram::new();
    for _ in 0..rounds {
        let t = Instant::now();
        client.stats().map_err(|e| format!("stats: {e}"))?;
        hist.record(t.elapsed());
    }
    Ok(quantile_interp(&hist, 0.5) / 1e3)
}

/// How often the inbox-depth gauges are read during a traced pass. On two
/// cores a faster sampler is itself a load: at 200 µs it added 15 % to the
/// burst workload's median.
const SAMPLE_PERIOD: Duration = Duration::from_millis(1);

/// One traced pass: the end-to-end pass plus what the server recorded.
struct TracedServe {
    pass: ServePass,
    scrape: RegistrySnapshot,
    inbox_depth_max: f64,
    stats_rtt_us: f64,
}

fn traced_pass(spec: &ServeSpec, pool: &RequestPool, seed: u64) -> Result<TracedServe, String> {
    let handle = spawn(spec)?;
    let measured = (|| {
        let stats_rtt_us = stats_rtt_us(&handle, 1_000.min(spec.requests_per_conn))?;
        // The inbox-depth gauges only say how deep the inboxes are *now*;
        // their peak is sampled while the pass runs. Registration is
        // idempotent: these are handles to the server's own gauges.
        let registry = handle.registry();
        let gauges: Vec<_> = (0..ServeConfig::default().shards)
            .map(|s| registry.gauge("rlsched_serve_inbox_depth", &[("shard", &s.to_string())]))
            .collect();
        let running = AtomicBool::new(true);
        let (conns, inbox_depth_max) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut peak = 0.0f64;
                while running.load(Ordering::Relaxed) {
                    peak = peak.max(gauges.iter().map(|g| g.get()).fold(0.0, f64::max));
                    std::thread::sleep(SAMPLE_PERIOD);
                }
                peak
            });
            let conns = drive(spec, pool, seed, &handle);
            running.store(false, Ordering::Relaxed);
            (conns, sampler.join().unwrap_or(0.0))
        });
        let scrape = connect(handle.server_addr(), 8)?
            .metrics()
            .map_err(|e| format!("metrics scrape: {e}"))?;
        Ok::<_, String>((conns?, scrape, inbox_depth_max, stats_rtt_us))
    })();
    let stats = handle.shutdown();
    let (conns, scrape, inbox_depth_max, stats_rtt_us) = measured?;
    Ok(TracedServe {
        pass: fold(spec, &conns, stats),
        scrape,
        inbox_depth_max,
        stats_rtt_us,
    })
}

/// `trace <serve workload>`.
pub fn trace(spec: &ServeSpec, args: RunArgs) -> Result<Outcome, String> {
    let pool = synthesize(spec, args.seed)?;
    let third = args.seconds / 3.0;

    let proto = protocol_costs(&pool)?;
    let (row_ns_b1, b1_ok) = engine_row_ns(&pool, 1);
    let (row_ns_b8, b8_ok) = engine_row_ns(&pool, 8);

    // Reference passes with nothing watching.
    let plain = measure_passes(
        third,
        |_| {
            let handle = spawn(spec)?;
            let conns = drive(spec, &pool, args.seed, &handle);
            let stats = handle.shutdown();
            Ok(fold(spec, &conns?, stats))
        },
        |p: &ServePass| p.stat.wall_s,
    )?;
    let plain_p50 = best_min(&plain.iter().map(|p| p.stat.p50_us).collect::<Vec<_>>());

    let traced = measure_passes(
        third,
        |_| traced_pass(spec, &pool, args.seed),
        |t| t.pass.stat.wall_s,
    )?;
    let t = traced
        .iter()
        .min_by(|a, b| a.pass.stat.p50_us.total_cmp(&b.pass.stat.p50_us))
        .expect("at least three traced passes ran");

    let p50_us = t.pass.stat.p50_us;
    let shard_path = t.scrape.histogram_merged("rlsched_serve_latency_ns");
    let shard_quantile_us = |q| {
        let h = &shard_path;
        quantile_interp_with(h.count, h.max_ns, |q| h.quantile_ns(q), q) / 1e3
    };
    let (shard_p50_us, shard_p99_us) = (shard_quantile_us(0.5), shard_quantile_us(0.99));
    let served = t.scrape.counter_sum("rlsched_serve_served_total") as f64;
    let batches = t.scrape.counter_sum("rlsched_serve_batches_total") as f64;
    let batch_rows_mean = served / batches.max(1.0);
    let batch_rows_max = (0..ServeConfig::default().shards)
        .filter_map(|s| {
            t.scrape
                .gauge("rlsched_serve_batch_max_rows", &[("shard", &s.to_string())])
        })
        .fold(0.0, f64::max);
    // A request waits for its whole batch to be scored: engine time on its
    // path is the flush of a batch of the size the server actually formed.
    let row_ns = if batch_rows_mean < 4.0 {
        row_ns_b1
    } else {
        row_ns_b8
    };
    let flush_us = batch_rows_mean * row_ns / 1e3;
    let protocol_us =
        (proto.encode_req_ns + proto.decode_req_ns + proto.encode_resp_ns + proto.decode_resp_ns)
            / 1e3;
    let ops = t.pass.stat.ops as f64;

    let metrics = per_layer_row(&[
        ("serve.protocol.share", protocol_us / p50_us),
        (
            "serve.protocol.json_over_binary",
            (proto.json_encode_req_ns + proto.json_decode_req_ns)
                / (proto.encode_req_ns + proto.decode_req_ns),
        ),
        ("serve.transport.share", t.stats_rtt_us / p50_us),
        ("serve.server.shard_path_share", shard_p50_us / p50_us),
        (
            "serve.server.wait_share",
            (shard_p50_us - flush_us) / p50_us,
        ),
        ("serve.server.tail_over_median", shard_p99_us / shard_p50_us),
        ("serve.server.batch_rows_mean", batch_rows_mean),
        ("serve.server.batch_rows_max", batch_rows_max),
        ("serve.server.inbox_depth_max", t.inbox_depth_max),
        (
            "serve.server.fallback_share",
            t.pass.stats.fallbacks as f64 / ops,
        ),
        ("serve.server.shed_share", t.pass.stats.shed as f64 / ops),
        ("serve.engine.share", flush_us / p50_us),
        ("serve.engine.b8_over_b1", row_ns_b8 / row_ns_b1),
        ("serve.client.tail_over_median", t.pass.stat.p99_us / p50_us),
        ("serve.gen.late_share", t.pass.late_share),
        ("serve.gen.late_p99_share", t.pass.late_p99_us / p50_us),
        // The round trip minus the shard is what a stats request pays; the
        // two together should account for the client-seen median.
        (
            "trace.covered_share",
            (t.stats_rtt_us + shard_p50_us) / p50_us,
        ),
        ("trace.overhead_share", p50_us / plain_p50 - 1.0),
        ("trace.pass_wall_s", t.pass.stat.wall_s),
    ]);

    let all: Vec<&ServePass> = traced.iter().map(|t| &t.pass).collect();
    let answered = all
        .iter()
        .all(|p| clean(&p.stats) && p.stats.served == p.stat.ops);
    let attempted = all.iter().map(|p| p.stat.ops).sum();
    let failed = all.iter().map(|p| p.stat.failed).sum();
    let info = json!({
        "workload": spec.name, "seed": args.seed,
        "lat_p50_us": p50_us, "lat_p99_us": t.pass.stat.p99_us, "untraced_lat_p50_us": plain_p50,
        "serve.protocol.encode_req_ns": proto.encode_req_ns,
        "serve.protocol.decode_req_ns": proto.decode_req_ns,
        "serve.protocol.encode_resp_ns": proto.encode_resp_ns,
        "serve.protocol.decode_resp_ns": proto.decode_resp_ns,
        "serve.protocol.json_encode_req_ns": proto.json_encode_req_ns,
        "serve.protocol.json_decode_req_ns": proto.json_decode_req_ns,
        "serve.transport.stats_rtt_us": t.stats_rtt_us,
        "serve.server.shard_path_p50_us": shard_p50_us,
        "serve.server.shard_path_p99_us": shard_p99_us,
        "serve.server.wait_us": shard_p50_us - flush_us,
        "serve.engine.row_ns_b1": row_ns_b1, "serve.engine.row_ns_b8": row_ns_b8,
        "serve.gen.late_p99_us": t.pass.late_p99_us,
        "engine_matches_expected_actions": b1_ok && b8_ok,
        "server_answered_everything_itself": answered,
    });
    Ok(Outcome {
        correct: failed == 0 && answered && b1_ok && b8_ok,
        attempted,
        failed,
        metrics,
        info,
    })
}
