//! The overload curve. Two open-loop connections drive a two-shard tier
//! (the shape of the benchmark's `serve_burst`: bursts of 16 pipelined
//! `Score` frames, 8 000 requests/s in all) at 1×, 2×, 4× and 8× that
//! rate, then, once every reply is in, at 1× again. A scripted stall
//! before every batch sets the service time (1 ms per batch of at most
//! 8 rows, so the tier saturates near 2×), so the machine's speed does not
//! decide the shares.
//!
//! Four things must hold:
//! * the share of answers the model did not give (fallback, deadline or
//!   shed) never falls as the rate rises;
//! * at 2×, where the two shards' scripted capacity (8 rows per 1 ms
//!   each) just meets the rate, that share stays under
//!   [`MAX_SHARE_AT_2X`]: the curve's level, not only its shape;
//! * every connection keeps getting replies in every phase: no thread
//!   starves its own client while it scores others' rows;
//! * the closing 1× phase is answered by the model alone: the tier
//!   recovers.
//!
//! The test prints the curve (`--nocapture`). Its bounds mean something
//! only in an optimised build, so it is ignored in debug builds:
//! `cargo test --release -p rlsched-serve --test overload -- --nocapture`.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rlsched_rl::PpoConfig;
use rlsched_serve::protocol::{encode_binary_frame, read_frame, Request, Response};
use rlsched_serve::{FaultPlan, ListenAddr, ServeConfig, ServedBy, Server};
use rlsched_sim::MetricKind;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob};

const CONNS: usize = 2;
const BURST: usize = 16;
/// One connection's time between bursts at 1×: 2 × 16 frames per 4 ms
/// is 8 000 requests/s.
const BASE_PERIOD: Duration = Duration::from_millis(4);
const PHASE: Duration = Duration::from_millis(400);
/// Rate multiples of the driven phases, then the closing phase's.
const RATES: [u32; 5] = [1, 2, 4, 8, 1];
/// The most of the 2× phase the model may leave to fallback, deadline or
/// shed. On a 2-vCPU Xeon VM the tier read 0.009–0.334 over 44 release
/// runs (the top under a concurrent release build, ≤ 0.167 beside two
/// busy loops), and a tier whose connection threads never score from an
/// inbox (every queued row waits for the one drainer: half the
/// capacity) read 0.505–0.546 over 13. The bound sits 0.086 above the
/// first spread and 0.085 below the second.
const MAX_SHARE_AT_2X: f64 = 0.42;

fn agent() -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 131,
    })
}

fn snapshot(depth: usize) -> QueueSnapshot {
    QueueSnapshot {
        free_procs: 2,
        total_procs: 4,
        queue_len: depth as u32,
        jobs: (0..depth as u32)
            .map(|i| SnapshotJob {
                wait: 30.0 + 45.0 * i as f64,
                time_bound: 600.0 + 300.0 * i as f64,
                procs: 1 + i % 3,
                can_run_now: i % 3 < 2,
            })
            .collect(),
    }
}

/// A request id: the phase, the connection and a sequence number.
fn request_id(phase: usize, conn: usize, seq: u64) -> u64 {
    (phase as u64) << 48 | (conn as u64) << 40 | seq
}

fn phase_of(id: u64) -> usize {
    (id >> 48) as usize
}

/// Send bursts on `stream` for each of `phases`, starting together at
/// `t0`, open loop: a burst is due every `BASE_PERIOD / rate` whatever
/// has been answered, and a late one goes out at once. Phase
/// `RATES.len()` is the warm-up: one burst.
fn drive(
    mut stream: TcpStream,
    conn: usize,
    phases: std::ops::Range<usize>,
    t0: Instant,
    sent: &AtomicU64,
) -> TcpStream {
    let (mut wire, mut frame) = (Vec::new(), Vec::new());
    let mut seq = 0u64;
    for (i, phase) in phases.enumerate() {
        let start = t0 + PHASE * i as u32;
        let (period, end) = match RATES.get(phase) {
            Some(&rate) => (BASE_PERIOD / rate, start + PHASE),
            None => (BASE_PERIOD, start + BASE_PERIOD),
        };
        let mut due = start;
        while due < end {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            wire.clear();
            for _ in 0..BURST {
                let id = request_id(phase, conn, seq);
                let snapshot = snapshot(1 + seq as usize % 3);
                encode_binary_frame(&Request::Score { id, snapshot }, &mut frame);
                wire.extend_from_slice(&frame);
                seq += 1;
            }
            stream.write_all(&wire).expect("the tier reads on");
            sent.fetch_add(BURST as u64, Ordering::SeqCst);
            due += period;
        }
    }
    stream
}

/// Every reply on `stream` until the server closes it: when it arrived,
/// its id and who answered.
fn collect(stream: TcpStream, got: &AtomicU64) -> Vec<(Instant, u64, Option<ServedBy>)> {
    let mut reader = BufReader::new(stream);
    let mut payload = Vec::new();
    let mut replies = Vec::new();
    while let Some(resp) = read_frame::<Response, _>(&mut reader, &mut payload).expect("a reply") {
        let (id, by) = match resp {
            Response::Action { id, served_by, .. } => (id, Some(served_by)),
            Response::Shed { id } => (id, None),
            other => panic!("unexpected response: {other:?}"),
        };
        replies.push((Instant::now(), id, by));
        got.fetch_add(1, Ordering::SeqCst);
    }
    replies
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bounds hold only in release builds")]
fn the_overload_curve_never_falls_starves_no_client_and_recovers() {
    let agent = agent();
    let faults = Arc::new(FaultPlan::new());
    for shard in 0..2 {
        faults.stall_batches(shard, 0, u64::MAX, Duration::from_millis(1));
    }
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            shards: 2,
            batch_cap: 8,
            queue_depth: 256,
            queue_deadline: Some(Duration::from_millis(100)),
            faults: Some(faults),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");

    let sent: Vec<AtomicU64> = (0..CONNS).map(|_| AtomicU64::new(0)).collect();
    let got: Vec<AtomicU64> = (0..CONNS).map(|_| AtomicU64::new(0)).collect();
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    let (windows, replies) = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .zip(&got)
            .map(|(s, got)| {
                let s = s.try_clone().unwrap();
                scope.spawn(move || collect(s, got))
            })
            .collect();
        let mut windows = Vec::new();
        let mut writers = streams;
        let driven = RATES.len() - 1;
        // A warm-up burst per connection, answered before the curve
        // starts, so every connection thread is running when it does.
        let warm_up = RATES.len()..RATES.len() + 1;
        for phases in [warm_up, 0..driven, driven..RATES.len()] {
            let t0 = Instant::now() + Duration::from_millis(5);
            windows.extend(phases.clone().filter(|&i| i < RATES.len()).map(|i| {
                let start = t0 + PHASE * (i - phases.start) as u32;
                (start, start + PHASE)
            }));
            let handles: Vec<_> = writers
                .into_iter()
                .zip(&sent)
                .enumerate()
                .map(|(conn, (s, sent))| {
                    let phases = phases.clone();
                    scope.spawn(move || drive(s, conn, phases, t0, sent))
                })
                .collect();
            writers = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Every reply is in before the next phase starts.
            let waited = Instant::now();
            while sent
                .iter()
                .zip(&got)
                .any(|(s, g)| g.load(Ordering::SeqCst) < s.load(Ordering::SeqCst))
            {
                assert!(
                    waited.elapsed() < Duration::from_secs(20),
                    "the tier never caught up"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for s in &writers {
            s.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let replies: Vec<_> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        (windows, replies)
    });
    let stats = handle.shutdown();

    let mut shares = Vec::new();
    println!("rate  requests  model  fallback  shed  share   replies in window per conn  max gap ms per conn");
    for (phase, (&rate, &(start, end))) in RATES.iter().zip(&windows).enumerate() {
        let mut counts = [0u64; 3];
        let mut in_window = [0u64; CONNS];
        let mut max_gap = [Duration::ZERO; CONNS];
        for (conn, conn_replies) in replies.iter().enumerate() {
            let mut last = start;
            for &(at, id, by) in conn_replies {
                if phase_of(id) == phase {
                    counts[match by {
                        Some(ServedBy::Model) => 0,
                        Some(ServedBy::Fallback) => 1,
                        None => 2,
                    }] += 1;
                }
                if at >= start && at < end {
                    in_window[conn] += 1;
                    max_gap[conn] = max_gap[conn].max(at - last);
                    last = at;
                }
            }
        }
        let total: u64 = counts.iter().sum();
        let share = (counts[1] + counts[2]) as f64 / total.max(1) as f64;
        let gaps: Vec<_> = max_gap
            .iter()
            .map(|g| format!("{:.1}", g.as_secs_f64() * 1e3))
            .collect();
        println!(
            "{rate}x    {total:>8}  {:>5}  {:>8}  {:>4}  {share:.3}   {in_window:?}  {gaps:?}",
            counts[0], counts[1], counts[2]
        );
        assert!(
            in_window.iter().all(|&n| n > 0),
            "phase {phase} ({rate}x): a connection got no reply: {in_window:?}"
        );
        shares.push((rate, share, counts));
    }
    let answered: u64 = replies.iter().map(|r| r.len() as u64).sum();
    let requested: u64 = sent.iter().map(|s| s.load(Ordering::SeqCst)).sum();
    let ids: std::collections::HashSet<u64> = replies.iter().flatten().map(|r| r.1).collect();
    assert_eq!(answered, requested, "every request is answered");
    assert_eq!(ids.len() as u64, answered, "and answered once");
    println!(
        "served {} in {} batches, fallbacks {} deadlines {} shed {}",
        stats.served, stats.batches, stats.fallbacks, stats.deadlines, stats.shed
    );
    let driven = &shares[..RATES.len() - 1];
    for pair in driven.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "the non-model share fell from {}x to {}x: {:.3} -> {:.3}",
            pair[0].0,
            pair[1].0,
            pair[0].1,
            pair[1].1
        );
    }
    let (rate, at_2x, counts) = shares[1];
    assert!(
        at_2x <= MAX_SHARE_AT_2X,
        "the tier lost capacity: {at_2x:.3} of the {rate}x phase was not the model's \
         (bound {MAX_SHARE_AT_2X}): {counts:?}"
    );
    let (_, closing, counts) = shares[RATES.len() - 1];
    assert_eq!(
        closing, 0.0,
        "the closing 1x phase is all model: {counts:?}"
    );
}
