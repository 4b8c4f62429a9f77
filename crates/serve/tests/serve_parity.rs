//! The serving parity suite: decisions scored through the sharded,
//! request-coalescing server are **bit-identical** to sequential
//! in-process `Agent::as_policy` decisions — for every `PolicyKind`, at
//! any shard count, under concurrent traffic that perturbs batch
//! composition.
//!
//! The guarantee composes from: shared snapshot/view encoding, exact
//! float round-trips through both wire formats (JSON via
//! shortest-round-trip formatting, binary via `to_le_bytes` verbatim),
//! `ScorerSnapshot` scoring through the network and forward `as_policy`
//! runs, and the forward kernels' row-count invariance. Equal
//! `EpisodeMetrics` is the strongest possible check here: a single
//! different decision anywhere in an episode cascades into different
//! schedules and metrics.
//!
//! Most tests bind the default loopback TCP port and connect through
//! `ServerHandle::connect`, which speaks binary frames; tests that write
//! JSON on a raw `TcpStream` cover that corner, and the matrix test
//! below pins every {JSON, binary} × {TCP, UDS} combination explicitly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rlsched_rl::PpoConfig;
use rlsched_serve::{
    ClientError, FaultPlan, ListenAddr, RemotePolicy, ServeClient, ServeConfig, ServedBy, Server,
    ServerAddr, WireFrame, WireProtocol,
};
use rlsched_sim::{run_episode, MetricKind, SimConfig};
use rlsched_swf::{Job, JobTrace};
use rlscheduler::{
    Agent, AgentConfig, CanaryBatch, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob,
};

/// Write `frame` as one JSON line, as a raw `nc`-style client would.
fn send_json<T: serde::Serialize>(w: &mut impl std::io::Write, frame: &T) {
    let mut line = Vec::new();
    rlsched_serve::protocol::encode_json_frame(frame, &mut line).unwrap();
    w.write_all(&line).unwrap();
}

/// Read the next frame, asserting the server answered in JSON.
fn recv_json<T: WireFrame>(r: &mut impl std::io::BufRead) -> T {
    let (frame, proto) =
        rlsched_serve::protocol::read_frame_any(r, &mut Vec::new(), &mut String::new())
            .unwrap()
            .expect("a frame");
    assert_eq!(proto, WireProtocol::Json);
    frame
}

/// A toy trace with enough queue contention that policies differ.
fn toy_trace() -> JobTrace {
    let jobs = (0..40u32)
        .map(|i| {
            Job::new(
                i + 1,
                i as f64 * 15.0,
                60.0 + (i % 5) as f64 * 150.0,
                1 + (i % 4),
                900.0 + (i % 3) as f64 * 600.0,
            )
        })
        .collect();
    JobTrace::new(jobs, 4)
}

fn agent_for(kind: PolicyKind, seed: u64) -> Agent {
    // LeNet needs max_obsv % 4 == 0 and >= 64; everyone else runs a
    // small window for speed.
    let max_obsv = if kind == PolicyKind::LeNet { 64 } else { 16 };
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed,
    })
}

/// A valid decision point: `depth` waiting jobs on a 4-processor
/// cluster with 2 free.
fn small_snapshot(depth: usize) -> QueueSnapshot {
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

/// Background clients hammering the server with valid requests, so
/// the foreground episode's decisions land in batches of varying
/// composition. Returns a stop flag and the join handles.
fn spawn_noise(
    addr: ServerAddr,
    n_threads: usize,
) -> (Arc<AtomicBool>, Vec<std::thread::JoinHandle<()>>) {
    let stop = Arc::new(AtomicBool::new(false));
    let handles = (0..n_threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_any(&addr)
                    .expect("noise client connects")
                    .with_id_base(1_000_000 * (t as u64 + 1));
                let snap = small_snapshot(3);
                while !stop.load(Ordering::Relaxed) {
                    match client.score_snapshot(&snap) {
                        Ok(d) => assert!(d.action < 3, "noise action in range"),
                        Err(ClientError::Shed) => {}
                        Err(_) => break, // server shut down under us
                    }
                }
            })
        })
        .collect();
    (stop, handles)
}

/// The tentpole guarantee, end to end over TCP: same trace, same
/// weights — remote coalesced decisions == in-process sequential
/// decisions, exactly, for every architecture, while concurrent noise
/// traffic reshapes every coalesced batch.
#[test]
fn served_decisions_are_bit_identical_to_as_policy_all_kinds() {
    let trace = toy_trace();
    for kind in PolicyKind::all() {
        let agent = agent_for(kind, 11);
        let expected = run_episode(&trace, SimConfig::default(), &mut agent.as_policy()).unwrap();

        let handle = Server::spawn(
            agent.scorer_snapshot(),
            *agent.encoder(),
            ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        )
        .expect("server spawns");
        let (stop, noise) = spawn_noise(handle.server_addr().clone(), 2);

        let client = handle.connect().expect("client connects");
        let mut policy = RemotePolicy::new(client, agent.encoder().cfg.max_obsv);
        let remote = run_episode(&trace, SimConfig::default(), &mut policy).unwrap();
        assert_eq!(
            policy.sheds(),
            0,
            "{}: nothing shed at this load",
            kind.name()
        );
        assert_eq!(
            policy.remote_fallbacks(),
            0,
            "{}: every decision came from the model arm",
            kind.name()
        );
        assert_eq!(
            expected,
            remote,
            "{}: remote episode must match as_policy exactly",
            kind.name()
        );

        stop.store(true, Ordering::Relaxed);
        let stats = handle.shutdown();
        for h in noise {
            h.join().expect("noise thread exits cleanly");
        }
        assert!(stats.served > 0, "{}: server did work", kind.name());
        assert!(
            stats.max_batch >= 1,
            "{}: batches were dispatched",
            kind.name()
        );
    }
}

/// Shard count must never change a decision: routing only picks *where*
/// a row is scored, and every shard's replica computes the same bits.
#[test]
fn decisions_are_invariant_across_shard_counts() {
    let trace = toy_trace();
    let agent = agent_for(PolicyKind::Kernel, 23);
    let expected = run_episode(&trace, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();
    for shards in [1usize, 4] {
        let handle = Server::spawn(
            agent.scorer_snapshot(),
            *agent.encoder(),
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .expect("server spawns");
        let client = handle
            .connect()
            .expect("client connects")
            // Distinct id streams route to distinct shards.
            .with_id_base(7919 * shards as u64);
        let mut policy = RemotePolicy::new(client, agent.encoder().cfg.max_obsv);
        let remote = run_episode(&trace, SimConfig::with_backfill(), &mut policy).unwrap();
        assert_eq!(expected, remote, "{shards}-shard episode diverged");
        handle.shutdown();
    }
}

/// Hot swap: in-flight traffic keeps being answered, the swap is
/// atomic per batch, and post-swap decisions are the new agent's bits.
#[test]
fn hot_swap_serves_new_weights_without_dropping_requests() {
    let trace = toy_trace();
    let agent_a = agent_for(PolicyKind::MlpV2, 5);
    let agent_b = agent_for(PolicyKind::MlpV2, 6); // different weights
    let expect_b = run_episode(&trace, SimConfig::default(), &mut agent_b.as_policy()).unwrap();

    let handle = Server::spawn(
        agent_a.scorer_snapshot(),
        *agent_a.encoder(),
        ServeConfig::default(),
    )
    .expect("server spawns");
    let (stop, noise) = spawn_noise(handle.server_addr().clone(), 2);
    // Let A serve some traffic, then swap under load.
    std::thread::sleep(Duration::from_millis(20));
    handle.swap_scorer(agent_b.scorer_snapshot());

    let client = handle.connect().expect("client connects");
    let mut policy = RemotePolicy::new(client, agent_b.encoder().cfg.max_obsv);
    let remote = run_episode(&trace, SimConfig::default(), &mut policy).unwrap();
    assert_eq!(expect_b, remote, "post-swap decisions are agent B's");

    stop.store(true, Ordering::Relaxed);
    let stats = handle.shutdown();
    for h in noise {
        h.join().expect("noise thread exits");
    }
    assert_eq!(stats.swaps, 1);
    assert!(stats.served > 0);
}

/// Backpressure: a depth-1 inbox behind a busy shard must shed — and
/// every request still gets exactly one response.
#[test]
fn full_inboxes_shed_and_every_request_is_answered() {
    use rlsched_serve::protocol::{Request, Response};
    use std::io::BufReader;

    let agent = agent_for(PolicyKind::Kernel, 31);
    // The shard sits in a scripted stall with its first batch while the
    // burst arrives, so the depth-1 inbox must overflow however fast or
    // slowly the reader decodes the frames behind it.
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(100));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            shards: 1,
            batch_cap: 4,
            queue_depth: 1,
            // No fallback: this test pins the bare-shed semantics.
            fallback: None,
            faults: Some(faults),
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");

    // Fire-and-forget burst on a raw connection, then drain replies.
    const N: u64 = 256;
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let snapshot = small_snapshot(1);
    // One write of more frames than `batch_cap`: each run fills to the
    // cap with frames still behind it (or finds a busy shard) and queues
    // for the stalled shard.
    let mut burst = Vec::new();
    for id in 0..N {
        let snapshot = snapshot.clone();
        send_json(&mut burst, &Request::Score { id, snapshot });
    }
    std::io::Write::write_all(&mut writer, &burst).unwrap();
    let mut actions = 0u64;
    let mut sheds = 0u64;
    let mut seen = vec![false; N as usize];
    for _ in 0..N {
        match recv_json::<Response>(&mut reader) {
            Response::Action { id, action, .. } => {
                actions += 1;
                assert_eq!(action, 0, "single-job queue has one valid action");
                assert!(!std::mem::replace(&mut seen[id as usize], true));
            }
            Response::Shed { id } => {
                sheds += 1;
                assert!(!std::mem::replace(&mut seen[id as usize], true));
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(actions + sheds, N, "every request answered exactly once");
    assert!(sheds > 0, "depth-1 inbox under burst load must shed");
    let stats = handle.shutdown();
    assert_eq!(stats.served, actions);
    assert_eq!(stats.shed, sheds);
    assert!(stats.p99_us >= stats.p50_us);
    assert!(stats.max_us > 0.0);
}

/// A shard never sleeps for companions, yet a backlog still batches:
/// the shard scores what is already waiting, in stacked batches
/// of at most `batch_cap` rows. One request occupies the shard (a
/// scripted stall, standing in for a slow forward) while nine more queue
/// behind it; they come back as 1 + 4 + 4 + 1, each row carrying the
/// in-process agent's action whatever batch it rode in.
#[test]
fn a_backlog_is_scored_in_capped_batches_with_no_timer() {
    use rlsched_serve::protocol::{Request, Response};
    use std::io::BufReader;

    const N: usize = 10;
    let agent = agent_for(PolicyKind::Kernel, 71);
    let canary = CanaryBatch::probe(&agent, N, 73);
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(200));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            shards: 1,
            batch_cap: 4,
            faults: Some(faults),
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let score = |id: usize| Request::Score {
        id: id as u64,
        snapshot: canary.row(id).0.clone(),
    };

    // Request 0 and the first scrape in one write: the scrape cuts
    // request 0's run, so it queues for the shard instead of scoring
    // inline.
    let mut first = Vec::new();
    send_json(&mut first, &score(0));
    send_json(&mut first, &Request::Metrics { id: 100 });
    std::io::Write::write_all(&mut writer, &first).unwrap();
    // Scrape on the same connection: its reader handles frames in order,
    // so every scrape sees request 0 enqueued, and an inbox depth of 0
    // means the shard has taken it — into batch 0, which stalls.
    loop {
        let Response::Metrics { metrics, .. } = recv_json(&mut reader) else {
            panic!("request 0 was answered before the backlog could be sent");
        };
        if metrics.gauge("rlsched_serve_inbox_depth", &[("shard", "0")]) == Some(0.0) {
            break;
        }
        send_json(&mut writer, &Request::Metrics { id: 100 });
    }
    for id in 1..N {
        send_json(&mut writer, &score(id));
    }

    let mut seen = [false; N];
    for _ in 0..N {
        match recv_json::<Response>(&mut reader) {
            Response::Action {
                id,
                action,
                served_by,
                ..
            } => {
                assert!(!std::mem::replace(&mut seen[id as usize], true));
                let (_, expected) = canary.row(id as usize);
                assert_eq!(
                    (action as usize, served_by),
                    (expected, ServedBy::Model),
                    "id {id}: batch composition must not change a bit"
                );
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let batch_max = handle
        .registry()
        .gauge("rlsched_serve_batch_max_rows", &[("shard", "0")]);
    assert_eq!(batch_max.get(), 4.0, "batches stop at batch_cap");
    let stats = handle.shutdown();
    assert_eq!(stats.served, N as u64);
    assert_eq!(stats.batches, 4, "1 + 4 + 4 + 1: the backlog was stacked");
}

/// Protocol robustness, over JSON and binary frames on one raw
/// connection: garbage and the retired client-encoded row request
/// (`{"ScoreRaw":…}`, binary tag 2) are reported as unparseable (id 0);
/// a snapshot the encoder cannot read is rejected with the request's id
/// instead of being scored; and after all of it the same connection
/// still scores.
#[test]
fn malformed_frames_report_errors_and_resync() {
    use rlsched_serve::protocol::{
        encode_binary_frame, read_frame_any, Request, Response, BINARY_MAGIC, BINARY_VERSION,
    };
    use std::io::{BufReader, Write};

    let agent = agent_for(PolicyKind::Kernel, 41);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());
    // Replies come back in their request's format (a frame that does
    // not decode is answered in the last good frame's), so read either.
    let mut reply = || -> Response {
        read_frame_any(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply")
            .0
    };
    let assert_error = |resp: Response, want_id: u64, what: &str| {
        assert!(
            matches!(resp, Response::Error { id, .. } if id == want_id),
            "{what}: want an error for id {want_id}, got {resp:?}"
        );
    };

    writer.write_all(b"this is not json\n").unwrap();
    assert_error(reply(), 0, "garbage line");

    // The retired request, in both formats: unknown, so unparseable.
    writer
        .write_all(b"{\"ScoreRaw\":{\"id\":5,\"obs\":[0.5],\"mask\":[0.0],\"queue_len\":1}}\n")
        .unwrap();
    assert_error(reply(), 0, "retired JSON request");
    let mut retired = vec![BINARY_MAGIC, BINARY_VERSION];
    retired.extend_from_slice(&9u32.to_le_bytes());
    retired.push(2);
    retired.extend_from_slice(&6u64.to_le_bytes());
    writer.write_all(&retired).unwrap();
    assert_error(reply(), 0, "retired binary tag 2");

    let mut frame = Vec::new();
    let mut send = |req: &Request, binary: bool| {
        if binary {
            encode_binary_frame(req, &mut frame);
            writer.write_all(&frame).unwrap();
        } else {
            send_json(&mut writer, req);
        }
    };
    type Edit = fn(&mut QueueSnapshot);
    let unreadable: [(&str, Edit); 10] = [
        ("empty snapshot", |s| s.jobs.clear()),
        ("total_procs 0", |s| (s.free_procs, s.total_procs) = (0, 0)),
        ("free_procs > total_procs", |s| s.free_procs = 5),
        ("negative wait", |s| s.jobs[1].wait = -1.0),
        ("NaN wait", |s| s.jobs[1].wait = f64::NAN),
        ("infinite wait", |s| s.jobs[1].wait = f64::INFINITY),
        ("zero time_bound", |s| s.jobs[1].time_bound = 0.0),
        ("negative time_bound", |s| s.jobs[1].time_bound = -60.0),
        ("infinite time_bound", |s| {
            s.jobs[1].time_bound = f64::INFINITY
        }),
        ("NaN time_bound", |s| s.jobs[1].time_bound = f64::NAN),
    ];
    for (i, (what, edit)) in unreadable.into_iter().enumerate() {
        let mut snapshot = small_snapshot(2);
        edit(&mut snapshot);
        // JSON has no non-finite numbers: the shim writes them as `null`,
        // which does not parse, so over JSON those report id 0.
        let finite = snapshot
            .jobs
            .iter()
            .all(|j| j.wait.is_finite() && j.time_bound.is_finite());
        for (id, binary) in [(10 + 2 * i as u64, false), (11 + 2 * i as u64, true)] {
            let snapshot = snapshot.clone();
            send(&Request::Score { id, snapshot }, binary);
            assert_error(reply(), if finite || binary { id } else { 0 }, what);
        }
    }

    // The same connection still scores, in both formats, with the
    // in-process agent's action.
    let snapshot = small_snapshot(3);
    let (mut obs, mut mask) = (Vec::new(), Vec::new());
    agent
        .encoder()
        .encode_snapshot_extend(&snapshot, &mut obs, &mut mask);
    let expected = agent.score(&obs, &mask, &mut rlsched_rl::ActorScratch::new()) as u64;
    for (id, binary) in [(100u64, false), (101, true)] {
        let snapshot = snapshot.clone();
        send(&Request::Score { id, snapshot }, binary);
        match reply() {
            Response::Action {
                id: got,
                action,
                served_by,
                ..
            } => assert_eq!((got, action, served_by), (id, expected, ServedBy::Model)),
            other => panic!("the connection must still score: {other:?}"),
        }
    }
    handle.shutdown();
}

/// A line nested far past the JSON depth cap, which once overflowed
/// the connection thread's stack and aborted the whole server, is a
/// reported bad frame in either format, and the same connection still
/// scores afterwards.
#[test]
fn deeply_nested_frames_are_errors_and_the_connection_still_scores() {
    use rlsched_serve::protocol::{
        encode_binary_frame, read_frame_any, Request, Response, BINARY_MAGIC, BINARY_VERSION,
    };
    use std::io::{BufReader, Write};

    const DEPTH: usize = 100_000;
    let agent = agent_for(PolicyKind::Kernel, 43);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig::default(),
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());

    let mut deep_line = "[".repeat(DEPTH).into_bytes();
    deep_line.push(b'\n');
    writer.write_all(&deep_line).unwrap();
    let mut body = b"{\"Stats\":".to_vec();
    body.extend_from_slice("[".repeat(DEPTH).as_bytes());
    let mut deep_frame = vec![BINARY_MAGIC, BINARY_VERSION];
    deep_frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    deep_frame.extend_from_slice(&body);
    writer.write_all(&deep_frame).unwrap();
    for what in [
        "100 000-deep JSON line",
        "binary frame with a 100 000-deep body",
    ] {
        let (resp, _) = read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply");
        assert!(
            matches!(resp, Response::Error { id: 0, .. }),
            "{what}: {resp:?}"
        );
    }

    let snapshot = small_snapshot(3);
    let (mut obs, mut mask) = (Vec::new(), Vec::new());
    agent
        .encoder()
        .encode_snapshot_extend(&snapshot, &mut obs, &mut mask);
    let expected = agent.score(&obs, &mask, &mut rlsched_rl::ActorScratch::new()) as u64;
    let mut frame = Vec::new();
    encode_binary_frame(&Request::Score { id: 7, snapshot }, &mut frame);
    writer.write_all(&frame).unwrap();
    match read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
        .unwrap()
        .expect("a reply")
    {
        (
            Response::Action {
                id,
                action,
                served_by,
                ..
            },
            WireProtocol::Binary,
        ) => assert_eq!((id, action, served_by), (7, expected, ServedBy::Model)),
        other => panic!("the connection must still score: {other:?}"),
    }
    handle.shutdown();
}

/// Each reply leaves in its own request's format. A binary `Score`
/// held by a stalled shard is overtaken by a JSON `Stats` on the same
/// connection, and its `Action` still comes back binary.
#[test]
fn each_reply_goes_out_in_its_requests_format() {
    use rlsched_serve::protocol::{encode_binary_frame, read_frame_any, Request, Response};
    use std::io::{BufReader, Write};

    let agent = agent_for(PolicyKind::Kernel, 47);
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(200));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            shards: 1,
            faults: Some(faults),
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    let snapshot = small_snapshot(3);
    // One write: the `Stats` cuts the `Score`'s run, so the `Score`
    // queues for the stalled shard instead of scoring inline.
    encode_binary_frame(&Request::Score { id: 1, snapshot }, &mut frame);
    send_json(&mut frame, &Request::Stats { id: 2 });
    writer.write_all(&frame).unwrap();

    let (mut payload, mut line) = (Vec::new(), String::new());
    let mut read = || {
        read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply")
    };
    let (stats, stats_proto) = read();
    assert!(matches!(stats, Response::Stats { id: 2, .. }), "{stats:?}");
    assert_eq!(stats_proto, WireProtocol::Json);
    let (action, action_proto) = read();
    assert!(
        matches!(action, Response::Action { id: 1, .. }),
        "{action:?}"
    );
    assert_eq!(
        action_proto,
        WireProtocol::Binary,
        "a binary request's reply is binary, whatever came after it"
    );
    handle.shutdown();
}

/// The stats round trip over the wire, and the histogram's sanity.
#[test]
fn stats_are_queryable_over_the_wire() {
    let agent = agent_for(PolicyKind::Kernel, 51);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig::default(),
    )
    .expect("server spawns");
    let mut client = handle.connect().unwrap();
    let snapshot = small_snapshot(1);
    for _ in 0..10 {
        client.score_snapshot(&snapshot).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.served, 10);
    assert_eq!(stats.shed, 0);
    assert_eq!(
        stats.batches, 10,
        "one synchronous client never has a companion"
    );
    assert!(stats.mean_batch() >= 1.0);
    assert!(stats.p50_us > 0.0 && stats.p50_us <= stats.p99_us);
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.served, 10);
}

/// The headline invariant of the wire-format work: served decisions are
/// bit-identical across {JSON, binary} × {TCP, UDS} × shard count. The
/// transport moves bytes and the format arranges them; neither may
/// change a single decision. Every cell replays the same episode and
/// must equal the in-process `as_policy` metrics exactly.
#[test]
fn decisions_are_identical_across_protocols_and_transports() {
    let trace = toy_trace();
    let agent = agent_for(PolicyKind::Kernel, 61);
    let expected = run_episode(&trace, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();

    type ListenerArm = (&'static str, fn() -> ListenAddr);
    let listeners: Vec<ListenerArm> = vec![
        ("tcp", || ListenAddr::Tcp("127.0.0.1:0".into())),
        #[cfg(unix)]
        ("uds", || ListenAddr::unix_temp("parity-matrix")),
    ];
    for (transport, listen) in listeners {
        for shards in [1usize, 3] {
            let handle = Server::spawn(
                agent.scorer_snapshot(),
                *agent.encoder(),
                ServeConfig {
                    shards,
                    addr: listen(),
                    ..ServeConfig::default()
                },
            )
            .expect("server spawns");
            for proto in [WireProtocol::Json, WireProtocol::Binary] {
                let client = handle
                    .connect()
                    .expect("client connects")
                    .with_protocol(proto)
                    // Distinct id streams per cell perturb shard routing.
                    .with_id_base(1000 * shards as u64);
                let mut policy = RemotePolicy::new(client, agent.encoder().cfg.max_obsv);
                let remote = run_episode(&trace, SimConfig::with_backfill(), &mut policy).unwrap();
                assert_eq!(
                    expected,
                    remote,
                    "{}/{transport}/{shards}-shard episode diverged",
                    proto.name()
                );
                assert_eq!(policy.remote_fallbacks(), 0);
                assert_eq!(policy.sheds(), 0);
            }
            handle.shutdown();
        }
    }
}

/// Where rows are scored, as `rlsched_serve_inline_total` counts them:
/// every decision of a closed-loop client on an idle tier is scored on
/// the connection thread that read it, and a backlog queued behind a
/// stalled shard is scored entirely on the shard's thread.
#[test]
fn lone_frames_score_inline_and_a_backlog_scores_on_the_shard_thread() {
    use rlsched_serve::protocol::{Request, Response};
    use std::io::{BufReader, Write};

    let agent = agent_for(PolicyKind::Kernel, 83);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig::default(),
    )
    .expect("server spawns");
    let mut client = handle.connect().unwrap();
    for depth in 1..=20 {
        let d = client.score_snapshot(&small_snapshot(depth)).unwrap();
        assert_eq!(d.served_by, ServedBy::Model);
    }
    let scrape = handle.registry().snapshot();
    assert_eq!(scrape.counter_sum("rlsched_serve_served_total"), 20);
    assert_eq!(
        scrape.counter_sum("rlsched_serve_inline_total"),
        20,
        "a closed loop is scored entirely inline"
    );
    assert_eq!(scrape.counter_sum("rlsched_serve_batches_total"), 20);
    handle.shutdown();

    const N: u64 = 10;
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(200));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            shards: 1,
            batch_cap: 4,
            faults: Some(faults),
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // One write of more frames than `batch_cap`: the runs that fill to
    // the cap with frames behind them queue, and the last, short run
    // finds the inbox holding the rows past the stalled batch's cap.
    let mut burst = Vec::new();
    for id in 0..N {
        let snapshot = small_snapshot(3);
        send_json(&mut burst, &Request::Score { id, snapshot });
    }
    writer.write_all(&burst).unwrap();
    for _ in 0..N {
        let resp: Response = recv_json(&mut reader);
        assert!(
            matches!(
                resp,
                Response::Action {
                    served_by: ServedBy::Model,
                    ..
                }
            ),
            "{resp:?}"
        );
    }
    let scrape = handle.registry().snapshot();
    assert_eq!(scrape.counter_sum("rlsched_serve_served_total"), N);
    assert_eq!(
        scrape.counter_sum("rlsched_serve_inline_total"),
        0,
        "a backlog is scored entirely on the shard thread"
    );
    handle.shutdown();
}

/// A client may pipeline more frames than the socket buffers hold and
/// read nothing until its write returns. The connection thread must keep
/// reading through such a burst: no reply it makes may wait on the
/// socket, so the write completes and every frame is answered. Behind a
/// stalled shard with a depth-4 inbox almost every frame is a full-inbox
/// fallback made on the connection thread, and their replies alone
/// overflow the Unix socket's send buffer before the client reads.
#[test]
fn a_burst_larger_than_the_socket_buffers_is_read_before_any_reply_is() {
    use rlsched_serve::protocol::{encode_binary_frame, read_frame_any, Request, Response};
    use rlsched_serve::{AnyStream, Transport};
    use std::io::{BufReader, Write};

    let agent = agent_for(PolicyKind::Kernel, 89);
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(300));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: ListenAddr::unix_temp("burst"),
            shards: 1,
            batch_cap: 4,
            queue_depth: 4,
            faults: Some(faults),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    const N: u64 = 20_000;
    let stream = AnyStream::dial(handle.server_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A server that stops reading fails the write here instead of
    // hanging the suite.
    writer
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut burst = Vec::new();
    let mut frame = Vec::new();
    for id in 0..N {
        let snapshot = small_snapshot(1 + id as usize % 3);
        encode_binary_frame(&Request::Score { id, snapshot }, &mut frame);
        burst.extend_from_slice(&frame);
    }
    writer
        .write_all(&burst)
        .expect("the server reads the whole burst before the client reads a reply");
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());
    let mut seen = vec![false; N as usize];
    let mut fallbacks = 0;
    for _ in 0..N {
        let (resp, _) = read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply per frame");
        let Response::Action { id, served_by, .. } = resp else {
            panic!("unexpected response: {resp:?}");
        };
        assert!(
            !std::mem::replace(&mut seen[id as usize], true),
            "id {id} twice"
        );
        fallbacks += u64::from(served_by == ServedBy::Fallback);
    }
    let stats = handle.shutdown();
    assert_eq!((stats.served, stats.fallbacks), (N - fallbacks, fallbacks));
    assert!(
        fallbacks > 0,
        "the depth-4 inbox behind the stall overflowed"
    );
}

/// The same for replies scored on the connection thread: a client that
/// sends frames one at a time, far enough apart that each arrives alone
/// on an idle shard, and reads nothing until it has sent them all. Its
/// unread inline replies overflow the socket's send buffer; the rest of
/// each then waits for the writer thread, and the connection thread
/// keeps reading.
#[test]
fn unread_inline_replies_never_stall_the_connection_thread() {
    use rlsched_serve::protocol::{encode_binary_frame, read_frame_any, Request, Response};
    use rlsched_serve::{AnyStream, Transport};
    use std::io::{BufReader, Write};

    const N: u64 = 3_000;
    let agent = agent_for(PolicyKind::Kernel, 97);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: ListenAddr::unix_temp("unread"),
            shards: 1,
            // An inbox that holds every frame: on a loaded box the shard
            // thread may fall behind a reader that keeps reading, and
            // what it owes is a late model answer, not a fallback.
            queue_depth: N as usize,
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = AnyStream::dial(handle.server_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = Vec::new();
    for id in 0..N {
        let snapshot = small_snapshot(1 + id as usize % 3);
        encode_binary_frame(&Request::Score { id, snapshot }, &mut frame);
        writer
            .write_all(&frame)
            .expect("the server keeps reading while its replies go unread");
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());
    let mut seen = vec![false; N as usize];
    for _ in 0..N {
        let (resp, _) = read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply per frame");
        let Response::Action { id, served_by, .. } = resp else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(served_by, ServedBy::Model);
        assert!(
            !std::mem::replace(&mut seen[id as usize], true),
            "id {id} twice"
        );
    }
    let inline = handle
        .registry()
        .snapshot()
        .counter_sum("rlsched_serve_inline_total");
    assert!(inline > 0, "the first frame at least arrived alone");
    assert_eq!(handle.shutdown().served, N);
}

/// `N` binary `Score` frames for canary rows `0..N`, ids `0..N`, as one
/// buffer a client sends in one write.
fn binary_burst(canary: &CanaryBatch, n: usize) -> Vec<u8> {
    use rlsched_serve::protocol::{encode_binary_frame, Request};
    let (mut burst, mut frame) = (Vec::new(), Vec::new());
    for id in 0..n {
        let snapshot = canary.row(id).0.clone();
        let request = Request::Score {
            id: id as u64,
            snapshot,
        };
        encode_binary_frame(&request, &mut frame);
        burst.extend_from_slice(&frame);
    }
    burst
}

/// Send `burst` in one write on a fresh Unix-socket connection and read
/// replies until `n` actions have come back, checking each against the
/// canary's in-process bits (a `Stats` reply is passed over). Returns how
/// many of them each shard scored.
fn score_burst(
    handle: &rlsched_serve::ServerHandle,
    canary: &CanaryBatch,
    burst: &[u8],
    n: usize,
) -> Vec<u64> {
    use rlsched_serve::protocol::{read_frame_any, Response};
    use rlsched_serve::{AnyStream, Transport};
    use std::io::{BufReader, Write};

    let stream = AnyStream::dial(handle.server_addr()).unwrap();
    stream.try_clone().unwrap().write_all(burst).unwrap();
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());
    let mut on_shard = vec![0u64; handle.stats().shards.len()];
    let mut seen = vec![false; n];
    while seen.iter().any(|&s| !s) {
        let (resp, proto) = read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply per frame");
        assert_eq!(proto, WireProtocol::Binary);
        let Response::Action {
            id,
            action,
            shard,
            served_by,
        } = resp
        else {
            assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
            continue;
        };
        assert!(!std::mem::replace(&mut seen[id as usize], true));
        let (_, expected) = canary.row(id as usize);
        assert_eq!((action as usize, served_by), (expected, ServedBy::Model));
        on_shard[shard as usize] += 1;
    }
    on_shard
}

/// A pipelined burst of at most `batch_cap` frames, sent in one write to
/// an idle two-shard tier, is one run: it is scored entirely on the
/// connection thread that read it, one batch per shard its ids route to,
/// each row still on its routed shard with the in-process bits.
#[test]
fn a_burst_within_batch_cap_is_scored_inline_one_batch_per_shard() {
    const N: usize = 12;
    let agent = agent_for(PolicyKind::Kernel, 101);
    let canary = CanaryBatch::probe(&agent, N, 103);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: ListenAddr::unix_temp("inline-burst"),
            shards: 2,
            batch_cap: 16,
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let on_shard = score_burst(&handle, &canary, &binary_burst(&canary, N), N);
    let routed = on_shard.iter().filter(|&&n| n > 0).count() as u64;
    assert_eq!(routed, 2, "ids 0..{N} route to both shards: {on_shard:?}");
    let scrape = handle.registry().snapshot();
    assert_eq!(scrape.counter_sum("rlsched_serve_served_total"), N as u64);
    assert_eq!(
        scrape.counter_sum("rlsched_serve_inline_total"),
        N as u64,
        "the whole burst was scored on its connection thread"
    );
    assert_eq!(
        scrape.counter_sum("rlsched_serve_batches_total"),
        routed,
        "one batch per shard the burst routes to"
    );
    handle.shutdown();
}

/// A pipelined burst larger than `batch_cap` is cut into runs of the cap;
/// each run that fills with bytes still buffered behind it is queued for
/// the shard thread, even on an idle tier, so a flood still stacks into
/// batches, ages and sheds there. Only the last, short run can be scored
/// inline. A `Stats` frame cuts a run too, and the cut run is queued.
#[test]
fn runs_cut_by_batch_cap_or_a_stats_frame_are_queued() {
    use rlsched_serve::protocol::{encode_binary_frame, Request};

    const CAP: usize = 4;
    const N: usize = 2 * CAP + 1;
    let agent = agent_for(PolicyKind::Kernel, 107);
    let canary = CanaryBatch::probe(&agent, N, 109);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            addr: ListenAddr::unix_temp("queued-burst"),
            shards: 1,
            batch_cap: CAP,
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let inline = || {
        let scrape = handle.registry().snapshot();
        scrape.counter_sum("rlsched_serve_inline_total")
    };
    let on_shard = score_burst(&handle, &canary, &binary_burst(&canary, N), N);
    assert_eq!(on_shard, vec![N as u64]);
    let leading = inline();
    assert!(
        leading <= (N - 2 * CAP) as u64,
        "{leading} rows inline: the two full leading runs must queue"
    );

    // The shard is idle again: a short burst with a `Stats` frame behind
    // it would be one inline run but for the cut.
    let mut burst = binary_burst(&canary, CAP - 1);
    let mut frame = Vec::new();
    encode_binary_frame(&Request::Stats { id: 99 }, &mut frame);
    burst.extend_from_slice(&frame);
    score_burst(&handle, &canary, &burst, CAP - 1);
    assert_eq!(
        inline(),
        leading,
        "the run the `Stats` frame cut was queued"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.served, (N + CAP - 1) as u64);
}

/// A blank keep-alive line behind a `Score` frame is no frame: the
/// connection thread must answer the `Score` before it blocks for the
/// client's next bytes, or a closed-loop client that ends its frames
/// with an extra newline waits for an answer that never comes.
#[test]
fn a_frame_with_blank_lines_behind_it_is_answered_at_once() {
    use rlsched_serve::protocol::{Request, Response};
    use std::io::{BufReader, Write};

    let agent = agent_for(PolicyKind::Kernel, 113);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        ServeConfig {
            // Raw TcpStream below: pin TCP.
            addr: ListenAddr::Tcp("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server spawns");
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (id, blank) in [(1u64, "\n"), (2, "\n \t\r\n\n"), (3, "  ")] {
        let mut frame = Vec::new();
        let snapshot = small_snapshot(id as usize);
        send_json(&mut frame, &Request::Score { id, snapshot });
        frame.extend_from_slice(blank.as_bytes());
        writer.write_all(&frame).unwrap();
        match recv_json::<Response>(&mut reader) {
            Response::Action {
                id: got, served_by, ..
            } => {
                assert_eq!(got, id);
                assert_eq!(served_by, ServedBy::Model);
            }
            other => panic!("expected an action for frame {id}, got {other:?}"),
        }
    }
    drop(writer);
    let stats = handle.shutdown();
    assert_eq!(stats.served, 3);
}
