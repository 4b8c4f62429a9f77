//! The chaos suite: scripted faults against a live serving tier.
//!
//! Every test drives the production supervision/fallback/validation
//! machinery through [`FaultPlan`] — a deterministic script, so each
//! failure sequence replays identically — and asserts the fault-model
//! invariants end to end over a live listener. `chaos_config` binds a
//! Unix socket and clients connect through `ServerHandle::connect`, so
//! most of the suite runs binary frames over UDS; tests that write JSON
//! on a raw `TcpStream` pin TCP explicitly and cover that corner.
//!
//! The invariants:
//!
//! * **Exactly one resolution per request**: a model decision, a
//!   fallback decision, or a typed client error. Never silence, never
//!   a duplicate — and under `run_episode` the typed error is the
//!   driver's `Err`, never an unwind.
//! * **Model answers stay bit-identical** to in-process scoring even
//!   while the tier is degrading and recovering around them (canary
//!   rows carry their expected actions).
//! * **Fallback answers are the heuristic's bits**: the configured
//!   `ServeConfig::fallback` kind's `select_parts` pick over the
//!   request's snapshot, for every fallback whatever its cause — pinned
//!   row by row for a panicked batch, an expired deadline and a failed
//!   shard, and by a whole-episode `PriorityScheduler` equality below.
//! * **The tier returns to healthy** after the script runs dry, and a
//!   poisoned checkpoint can never take it down: propose → validate →
//!   commit, with generation rollback.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rlsched_rl::PpoConfig;
use rlsched_sched::{select_parts, HeuristicKind, PriorityScheduler};
use rlsched_serve::protocol::{encode_json_frame, read_frame_any, Request, Response};
use rlsched_serve::{
    ClientConfig, ClientError, FaultPlan, ListenAddr, ProposeError, RemotePolicy, ServeClient,
    ServeConfig, ServedBy, Server, ServerHandle, ShardState, Transport, WireFrame, WireProtocol,
};
use rlsched_sim::{
    run_episode, EpisodeError, MetricKind, Outcomes, Policy, SimConfig, StreamSession,
};
use rlsched_swf::{Job, JobTrace};
use rlscheduler::{
    build_policy, Agent, AgentConfig, CanaryBatch, CanaryError, ObsConfig, PolicyKind,
    QueueSnapshot, ScorerSnapshot, SnapshotJob,
};

/// Write `frame` as one JSON line, as a raw `nc`-style peer would.
fn send_json<T: serde::Serialize>(w: &mut impl std::io::Write, frame: &T) {
    let mut line = Vec::new();
    encode_json_frame(frame, &mut line).unwrap();
    w.write_all(&line).unwrap();
}

/// Read the next frame, asserting the peer spoke JSON.
fn recv_json<T: WireFrame>(r: &mut impl std::io::BufRead) -> T {
    let (frame, proto) = read_frame_any(r, &mut Vec::new(), &mut String::new())
        .unwrap()
        .expect("a frame");
    assert_eq!(proto, WireProtocol::Json);
    frame
}

fn agent_for(window: usize, seed: u64) -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: window,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed,
    })
}

/// A toy trace with enough queue contention that policies differ. The
/// queue never grows past the 64-slot window, so snapshot truncation
/// cannot blur the fallback-equivalence comparison.
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

/// What every `served_by: Fallback` answer to `snap` must be: the
/// configured kind's pick over the request's own snapshot.
fn fallback_pick(kind: HeuristicKind, snap: &QueueSnapshot) -> u64 {
    let parts = snap.jobs.iter().map(|j| (j.wait, j.time_bound, j.procs));
    select_parts(kind, parts).expect("a scored snapshot has jobs") as u64
}

/// A `Score` request for canary row `id % rows`, with correlation id `id`.
fn score_request(canary: &CanaryBatch, id: u64) -> Request {
    let (snapshot, _) = canary.row(id as usize % canary.rows());
    Request::Score {
        id,
        snapshot: snapshot.clone(),
    }
}

/// One-shard config tuned for fast, deterministic chaos runs, on a
/// fresh Unix socket.
fn chaos_config(faults: Arc<FaultPlan>) -> ServeConfig {
    ServeConfig {
        addr: ListenAddr::unix_temp("chaos"),
        shards: 1,
        batch_cap: 4,
        queue_depth: 512,
        fallback: Some(HeuristicKind::Sjf),
        restart_budget: 3,
        restart_backoff: Duration::from_millis(1),
        restart_backoff_cap: Duration::from_millis(20),
        queue_deadline: None,
        faults: Some(faults),
        ..ServeConfig::default()
    }
}

/// Zero lost requests through a mid-burst shard panic: the panicked
/// batch is answered by the configured SJF fallback over each request's
/// snapshot, the worker respawns, and every later model answer carries
/// the exact in-process bits — asserted row by row against the canary.
#[test]
fn shard_panic_recovers_with_zero_lost_requests() {
    let agent = agent_for(16, 3);
    let canary = CanaryBatch::probe(&agent, 8, 17);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1); // the first coalesced batch dies
    let mut cfg = chaos_config(faults);
    // Raw TcpStream below: pin TCP over the suite's Unix socket.
    cfg.addr = ListenAddr::Tcp("127.0.0.1:0".into());
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");

    const N: u64 = 64;
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    for id in 0..N {
        send_json(&mut writer, &score_request(&canary, id));
    }
    let mut seen = vec![false; N as usize];
    let mut model = 0u64;
    let mut fallback = 0u64;
    for _ in 0..N {
        match recv_json::<Response>(&mut reader) {
            Response::Action {
                id,
                action,
                served_by,
                ..
            } => {
                assert!(
                    !std::mem::replace(&mut seen[id as usize], true),
                    "duplicate resolution for id {id}"
                );
                let (snap, expected) = canary.row(id as usize % canary.rows());
                match served_by {
                    ServedBy::Model => {
                        model += 1;
                        assert_eq!(
                            action as usize, expected,
                            "model answer for id {id} must be the in-process bits"
                        );
                    }
                    ServedBy::Fallback => {
                        fallback += 1;
                        assert_eq!(
                            action,
                            fallback_pick(HeuristicKind::Sjf, snap),
                            "panicked-batch fallback for id {id} is SJF over its snapshot"
                        );
                    }
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every request resolved");
    assert!(fallback >= 1, "the panicked batch took the fallback arm");
    assert!(model >= 1, "the respawned worker served the rest");
    let stats = handle.shutdown();
    assert_eq!(stats.served, model);
    assert_eq!(stats.fallbacks, fallback);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.shards[0].panics, 1);
    assert_eq!(stats.shards[0].state, ShardState::Healthy);
    assert_eq!(stats.shed, 0, "fallback replaces bare sheds");
}

/// Restart-budget exhaustion parks the shard in `Failed`, where it
/// answers everything through the fallback — and a *validated* weight
/// swap (propose → canary → commit) revives it back to model serving on
/// the very next request, with no delay and no retry.
#[test]
fn budget_exhaustion_fails_over_and_validated_swap_revives() {
    let agent = agent_for(16, 5);
    let canary = CanaryBatch::probe(&agent, 8, 23);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1);
    let mut cfg = chaos_config(faults);
    cfg.restart_budget = 0; // one strike and the shard is out
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let mut client = handle.connect().unwrap();

    // Every decision while Failed is the configured fallback's decision.
    for i in 0..8 {
        let (snap, _) = canary.row(i % canary.rows());
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!(
            (d.action as u64, d.served_by),
            (fallback_pick(HeuristicKind::Sjf, snap), ServedBy::Fallback),
            "request {i} while failed"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.shards[0].state, ShardState::Failed);
    assert_eq!(stats.served, 0);
    assert_eq!(stats.fallbacks, 8);

    // A validated swap is the revival signal.
    let gen = handle
        .propose_scorer(agent.scorer_snapshot(), &canary)
        .expect("a healthy checkpoint commits");
    assert_eq!(gen, 1);
    // The parked shard checks the generation on every arrival: the first
    // request after the commit revives it and is scored on the fresh
    // engine, with exact bits.
    let (snap, expected) = canary.row(0);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!(
        (d.action, d.served_by),
        (expected, ServedBy::Model),
        "the first request after the commit is model-served with the canary's bits"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.shards[0].state, ShardState::Healthy);
    assert!(stats.restarts >= 1);
    assert_eq!(stats.swaps, 1);
}

/// The fallback arm IS `PriorityScheduler`: an episode scheduled
/// entirely through a failed tier produces exactly the metrics of the
/// in-process heuristic with the configured kind.
#[test]
fn failed_tier_fallback_equals_priority_scheduler_episode() {
    let trace = toy_trace();
    let kind = HeuristicKind::Wfp3;
    let expected = run_episode(
        &trace,
        SimConfig::default(),
        &mut PriorityScheduler::new(kind),
    )
    .unwrap();

    let agent = agent_for(64, 7);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1);
    let mut cfg = chaos_config(faults);
    cfg.restart_budget = 0;
    cfg.fallback = Some(kind);
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let client = handle.connect().unwrap();
    let mut policy = RemotePolicy::new(client, 64);
    let remote = run_episode(&trace, SimConfig::default(), &mut policy).unwrap();
    assert_eq!(
        expected, remote,
        "fallback-served episode must equal PriorityScheduler::{kind:?} exactly"
    );
    assert!(
        policy.remote_fallbacks() > 0,
        "the tier was failed throughout"
    );
    assert_eq!(policy.sheds(), 0, "fallback, not shed");
    handle.shutdown();
}

/// A head that takes the serving tier down once it has answered `after`
/// decisions: what `run_episode` sees when the tier dies mid-episode.
struct TierGoesDown<S: Transport> {
    head: RemotePolicy<S>,
    after: u64,
    handle: Option<ServerHandle>,
}

impl<S: Transport> Policy for TierGoesDown<S> {
    type Error = ClientError;

    fn pick<I: Iterator<Item = Job>, O: Outcomes>(
        &mut self,
        session: &mut StreamSession<I, O>,
    ) -> Result<usize, ClientError> {
        if self.head.remote_decisions() == self.after {
            if let Some(handle) = self.handle.take() {
                handle.shutdown();
            }
        }
        self.head.pick(session)
    }

    fn name(&self) -> &str {
        self.head.name()
    }
}

/// A tier that becomes unreachable mid-episode, with no local fallback
/// to decide instead, ends `run_episode` with the client's error — the
/// driver returns it; nothing unwinds.
#[test]
fn tier_lost_mid_episode_is_an_error_from_the_driver_not_a_panic() {
    let trace = toy_trace();
    let agent = agent_for(64, 7);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        chaos_config(Arc::new(FaultPlan::new())),
    )
    .expect("server spawns");
    let client = handle.connect().unwrap().with_config(ClientConfig {
        max_retries: 1,
        backoff: Duration::from_millis(1),
        ..ClientConfig::default()
    });
    let mut policy = TierGoesDown {
        head: RemotePolicy::new(client, 64),
        after: 5,
        handle: Some(handle),
    };
    let err = run_episode(&trace, SimConfig::default(), &mut policy)
        .expect_err("no tier, no fallback: the episode cannot go on");
    assert!(
        matches!(err, EpisodeError::Policy(ClientError::Io(_))),
        "{err}"
    );
    assert!(policy.handle.is_none(), "the tier went down on schedule");
    assert_eq!(policy.head.remote_decisions(), 5);
    assert_eq!(policy.head.local_decisions(), 0);
}

/// Checkpoint validation: a NaN-poisoned snapshot and a wrong-agent
/// snapshot are both rejected without touching the serving weights,
/// and the tier keeps answering with the incumbent's exact bits.
#[test]
fn poisoned_checkpoints_are_rejected_and_bits_unchanged() {
    let agent = agent_for(16, 3);
    let canary = CanaryBatch::probe(&agent, 12, 29);
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        chaos_config(Arc::new(FaultPlan::new())),
    )
    .expect("server spawns");

    // NaN in the output layer: caught by the all-finite walk.
    let mut poisoned = build_policy(PolicyKind::Kernel, 16, 3);
    for v in poisoned.params_mut().last().unwrap().data_mut() {
        *v = f32::NAN;
    }
    let poisoned = ScorerSnapshot::new(&poisoned);
    assert_eq!(
        handle.propose_scorer(poisoned, &canary),
        Err(ProposeError::NonFinite)
    );
    assert_eq!(handle.generation(), 0, "rejection leaves the weights alone");

    // A checkpoint from the wrong training run: caught by the canary.
    let impostor = agent_for(16, 4);
    let err = handle
        .propose_scorer(impostor.scorer_snapshot(), &canary)
        .expect_err("wrong weights must trip the canary");
    assert!(
        matches!(err, ProposeError::Canary(CanaryError::Mismatch { .. })),
        "{err}"
    );
    assert_eq!(handle.generation(), 0);

    // A wrong-window checkpoint: caught before scoring anything.
    let narrow = agent_for(8, 3);
    let err = handle
        .propose_scorer(narrow.scorer_snapshot(), &canary)
        .expect_err("dims mismatch must be rejected");
    assert!(matches!(err, ProposeError::Dims { .. }), "{err}");

    // The tier never served anything but the incumbent's bits.
    let mut client = handle.connect().unwrap();
    for i in 0..canary.rows() {
        let (snap, expected) = canary.row(i);
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!((d.action, d.served_by), (expected, ServedBy::Model));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.rollbacks, 3, "every rejection is counted");
    assert_eq!(stats.swaps, 0);
}

/// The post-deployment guard: a committed checkpoint whose live eval
/// metric regresses past tolerance is rolled back to the previous
/// generation, and serving returns to the incumbent's exact bits.
#[test]
fn eval_regression_rolls_back_to_the_previous_generation() {
    let agent_a = agent_for(16, 3);
    let agent_b = agent_for(16, 4);
    let canary_a = CanaryBatch::probe(&agent_a, 10, 31);
    let canary_b = CanaryBatch::probe(&agent_b, 10, 31);
    let handle = Server::spawn(
        agent_a.scorer_snapshot(),
        *agent_a.encoder(),
        chaos_config(Arc::new(FaultPlan::new())),
    )
    .expect("server spawns");

    assert!(!handle.record_eval(1.0), "first eval sets the baseline");
    assert_eq!(
        handle.propose_scorer(agent_b.scorer_snapshot(), &canary_b),
        Ok(1),
        "B validates against its own canary"
    );
    // B's bits serve…
    let mut client = handle.connect().unwrap();
    let (snap, expected_b) = canary_b.row(0);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!((d.action, d.served_by), (expected_b, ServedBy::Model));

    // …until the probe metric regresses (lower is better; 2.0 ≫ 1.1).
    assert!(handle.record_eval(2.0), "regression triggers rollback");
    assert_eq!(handle.generation(), 2, "rollback is a new generation");
    // Shards re-read the slot at the next batch: A's bits again.
    let mut back = false;
    for _ in 0..200 {
        let (snap, expected_a) = canary_a.row(0);
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!(d.served_by, ServedBy::Model);
        if d.action == expected_a {
            back = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        back,
        "serving must return to the previous generation's bits"
    );
    for i in 0..canary_a.rows() {
        let (snap, expected_a) = canary_a.row(i);
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!(d.action, expected_a, "row {i} is A's bits after rollback");
    }
    assert!(
        !handle.rollback_scorer(),
        "the retained generation was consumed"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.rollbacks, 1);
}

/// A stalled shard must not stall its queue: requests that age past
/// the in-queue deadline are answered by the configured fallback over
/// their own snapshots, and the tier is healthy again once the stall
/// passes.
#[test]
fn slow_shard_stall_expires_deadlines_into_fallback() {
    let agent = agent_for(16, 3);
    let canary = CanaryBatch::probe(&agent, 8, 37);
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(300));
    let mut cfg = chaos_config(faults);
    cfg.queue_deadline = Some(Duration::from_millis(50));
    // Raw TcpStream below: pin TCP over the suite's Unix socket.
    cfg.addr = ListenAddr::Tcp("127.0.0.1:0".into());
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");

    const N: u64 = 32;
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    // One write of more frames than `batch_cap`: each run fills to the
    // cap with frames still behind it (or finds a busy shard) and queues
    // for the stalled shard.
    let mut burst = Vec::new();
    for id in 0..N {
        send_json(&mut burst, &score_request(&canary, id));
    }
    std::io::Write::write_all(&mut writer, &burst).unwrap();
    let mut seen = vec![false; N as usize];
    let (mut model, mut fallback) = (0u64, 0u64);
    for _ in 0..N {
        match recv_json::<Response>(&mut reader) {
            Response::Action {
                id,
                action,
                served_by,
                ..
            } => {
                assert!(!std::mem::replace(&mut seen[id as usize], true));
                match served_by {
                    ServedBy::Model => model += 1,
                    ServedBy::Fallback => {
                        fallback += 1;
                        let (snap, _) = canary.row(id as usize % canary.rows());
                        assert_eq!(
                            action,
                            fallback_pick(HeuristicKind::Sjf, snap),
                            "deadline fallback for id {id} is SJF over its snapshot"
                        );
                    }
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(model + fallback, N, "every request resolved exactly once");
    assert!(model >= 1, "the stalled batch itself still scores");
    assert!(
        fallback >= 1,
        "requests aged past the deadline take the fallback arm"
    );
    // The stall script is spent: the tier serves models again.
    let mut client = handle.connect().unwrap();
    let (snap, expected) = canary.row(1);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!((d.action, d.served_by), (expected, ServedBy::Model));
    let stats = handle.shutdown();
    assert!(stats.deadlines >= 1);
    assert_eq!(stats.deadlines, fallback);
    assert_eq!(stats.shards[0].panics, 0);
}

/// Client resilience: a connection dropped mid-response (torn frame,
/// then reset) is retried on a fresh connection with the same id —
/// and resolves to a decision, not a panic.
#[test]
fn client_reconnects_through_a_connection_drop_mid_response() {
    use rlsched_serve::write_torn_frame;
    // A scripted fake server: connection 1 tears the response frame
    // and drops; connection 2 answers properly.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (conn1, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(conn1.try_clone().unwrap());
        let req: Request = recv_json(&mut reader);
        let mut w = conn1.try_clone().unwrap();
        write_torn_frame(
            &mut w,
            &Response::Action {
                id: req.id(),
                action: 0,
                shard: 0,
                served_by: ServedBy::Model,
            },
            9, // half a frame, no newline
        )
        .unwrap();
        drop((reader, w, conn1)); // mid-response drop

        let (conn2, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(conn2.try_clone().unwrap());
        let req: Request = recv_json(&mut reader);
        let mut w = conn2.try_clone().unwrap();
        send_json(
            &mut w,
            &Response::Action {
                id: req.id(),
                action: 2,
                shard: 0,
                served_by: ServedBy::Model,
            },
        );
        req.id()
    });

    // The scripted fake above speaks newline-JSON: pin the protocol
    // (clients default to binary frames).
    let mut client = ServeClient::connect(addr)
        .unwrap()
        .with_protocol(rlsched_serve::WireProtocol::Json)
        .with_config(ClientConfig {
            deadline: Some(Duration::from_secs(5)),
            max_retries: 3,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            seed: 7,
        });
    let job = SnapshotJob {
        wait: 10.0,
        time_bound: 600.0,
        procs: 1,
        can_run_now: true,
    };
    let snap = QueueSnapshot {
        free_procs: 2,
        total_procs: 4,
        queue_len: 3,
        jobs: vec![job; 3],
    };
    let d = client.score_snapshot(&snap).expect("retry resolves");
    assert_eq!(d.action, 2, "the answer came from the second connection");
    let replay_id = fake.join().unwrap();
    assert_eq!(replay_id, 0, "the retry resent the SAME request id");
}

/// A configured deadline turns an unresponsive tier into a typed
/// error, not a hang — and the tier finishes its stall and recovers.
#[test]
fn client_deadline_is_a_typed_error_not_a_hang() {
    let agent = agent_for(16, 3);
    let canary = CanaryBatch::probe(&agent, 4, 41);
    let faults = Arc::new(FaultPlan::new());
    faults.stall_at(0, 0, Duration::from_millis(400));
    let handle = Server::spawn(
        agent.scorer_snapshot(),
        *agent.encoder(),
        chaos_config(faults),
    )
    .expect("server spawns");

    let mut impatient = handle.connect().unwrap().with_config(ClientConfig {
        deadline: Some(Duration::from_millis(80)),
        max_retries: 0,
        ..ClientConfig::default()
    });
    let (snap, _) = canary.row(0);
    let started = std::time::Instant::now();
    let err = impatient
        .score_snapshot(snap)
        .expect_err("the stalled tier cannot answer in 80ms");
    assert!(matches!(err, ClientError::Deadline), "{err}");
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "the deadline bounded the wait"
    );

    // Patience pays: the stall is spent, model service resumes.
    let mut patient = handle.connect().unwrap();
    let (snap, expected) = canary.row(1);
    let d = patient.score_snapshot(snap).unwrap();
    assert_eq!((d.action, d.served_by), (expected, ServedBy::Model));
    handle.shutdown();
}

/// Torn *request* frames: a client dying mid-write closes its
/// connection cleanly (no error storm, no stuck reader) and the tier
/// keeps serving everyone else.
#[test]
fn torn_request_frames_leave_the_server_serving() {
    use rlsched_serve::write_torn_frame;
    let agent = agent_for(16, 3);
    let canary = CanaryBatch::probe(&agent, 4, 43);
    let mut cfg = chaos_config(Arc::new(FaultPlan::new()));
    // Raw TcpStream below: pin TCP over the suite's Unix socket.
    cfg.addr = ListenAddr::Tcp("127.0.0.1:0".into());
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");

    // Die mid-frame: the server sees a truncated line and EOF.
    let mut torn = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_torn_frame(&mut torn, &score_request(&canary, 1), 20).unwrap();
    drop(torn);

    // Garbage with a newline: the server reports and resyncs.
    let mut noisy = std::net::TcpStream::connect(handle.addr()).unwrap();
    use std::io::Write;
    noisy.write_all(b"{\"Score\":{\"id\":oops\n").unwrap();
    let mut reader = std::io::BufReader::new(noisy.try_clone().unwrap());
    let resp: Response = recv_json(&mut reader);
    assert!(matches!(resp, Response::Error { id: 0, .. }), "{resp:?}");

    // Bystanders are unaffected, bits intact.
    let mut client = handle.connect().unwrap();
    for i in 0..canary.rows() {
        let (snap, expected) = canary.row(i);
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!((d.action, d.served_by), (expected, ServedBy::Model));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.served, canary.rows() as u64);
    assert_eq!(stats.shards[0].panics, 0, "torn frames never reach a shard");
}

/// Telemetry survives the failure model. The registry handles share
/// storage with the server, not with any one worker incarnation, so a
/// shard panic + respawn keeps every counter monotone; the wire scrape
/// (`Request::Metrics`) is internally consistent mid-traffic (each
/// histogram's bucket counts sum to its `count`); and the `Stats`
/// summary is assembled from single reads of the same counters, so its
/// totals equal the sum of the per-shard registry parts exactly — no
/// torn totals.
#[test]
fn metrics_survive_panics_with_monotone_counters() {
    use rlsched_obs::MetricValue;

    let agent = agent_for(16, 11);
    let canary = CanaryBatch::probe(&agent, 8, 31);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1); // shard 0 dies mid-run and respawns
    let mut cfg = chaos_config(faults);
    cfg.shards = 2;
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let mut client = handle.connect().unwrap();
    let mut scraper = handle.connect().unwrap();

    const N: usize = 48;
    let mut mid = None;
    for i in 0..N {
        let (snap, _) = canary.row(i % canary.rows());
        client.score_snapshot(snap).unwrap();
        if i == N / 2 {
            mid = Some(scraper.metrics().unwrap());
        }
    }
    let mid = mid.unwrap();
    let end = scraper.metrics().unwrap();

    // Every counter present at the mid scrape is monotone through the
    // panic/respawn window (idempotent registration = shared storage).
    let mut checked = 0;
    for m in &mid.metrics {
        if let MetricValue::Counter(v) = m.value {
            let labels: Vec<(&str, &str)> = m
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let after = end
                .counter(&m.name, &labels)
                .unwrap_or_else(|| panic!("{} vanished between scrapes", m.name));
            assert!(after >= v, "{} went backwards: {v} -> {after}", m.name);
            checked += 1;
        }
    }
    assert!(checked >= 10, "expected a real counter population");

    // The scrape is internally consistent even while shards are
    // recording into it: sparse bucket counts always sum to `count`.
    for m in &end.metrics {
        if let MetricValue::Histogram(h) = &m.value {
            let sum: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
            assert_eq!(sum, h.count, "{}: torn histogram read", m.name);
        }
    }

    // The respawn left its marks, on shard 0 only.
    assert_eq!(
        end.counter("rlsched_serve_panics_total", &[("shard", "0")]),
        Some(1)
    );
    assert_eq!(
        end.counter("rlsched_serve_restarts_total", &[("shard", "0")]),
        Some(1)
    );
    assert_eq!(
        end.counter("rlsched_serve_panics_total", &[("shard", "1")]),
        Some(0)
    );

    // Exactly one resolution per request, split between the arms; the
    // model-served rows are the ones with a latency sample.
    let served = end.counter_sum("rlsched_serve_served_total");
    let fallbacks = end.counter_sum("rlsched_serve_fallbacks_total");
    assert_eq!(served + fallbacks, N as u64);
    assert!(fallbacks >= 1, "the panicked batch fell back");
    let latency = end.histogram_merged("rlsched_serve_latency_ns");
    assert_eq!(latency.count, served);

    // Stats is a view over the same registry: totals equal the sum of
    // the per-shard parts it reports, and both match the scrape.
    let stats = handle.shutdown();
    assert_eq!(stats.served, served);
    assert_eq!(stats.fallbacks, fallbacks);
    assert_eq!(
        stats.restarts,
        stats.shards.iter().map(|s| s.restarts).sum::<u64>(),
        "totals must be the sum of the per-shard parts they shipped with"
    );
    assert_eq!(
        end.counter_sum("rlsched_serve_panics_total"),
        stats.shards.iter().map(|s| s.panics).sum::<u64>()
    );
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.shed, 0);
}

/// Rows shard 0 scored on the connection thread that read them.
fn inline_rows(handle: &ServerHandle) -> Option<u64> {
    handle
        .registry()
        .snapshot()
        .counter("rlsched_serve_inline_total", &[("shard", "0")])
}

/// A lone frame on an idle shard is scored on its connection thread, and
/// the fault hook fires there too: a scripted panic in its one-row batch
/// answers it with the SJF fallback before the restart backoff, the core
/// respawns after it, and the next lone frame is the model's again.
#[test]
fn a_panic_in_a_lone_frames_batch_answers_it_by_fallback_and_the_shard_recovers() {
    let agent = agent_for(16, 13);
    let canary = CanaryBatch::probe(&agent, 8, 53);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1);
    let backoff = Duration::from_millis(800);
    let cfg = ServeConfig {
        restart_backoff: backoff,
        restart_backoff_cap: backoff,
        ..chaos_config(faults)
    };
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let mut client = handle.connect().unwrap();

    let (snap, _) = canary.row(0);
    let sent = Instant::now();
    let d = client.score_snapshot(snap).unwrap();
    let waited = sent.elapsed();
    assert_eq!(
        (d.action as u64, d.served_by),
        (fallback_pick(HeuristicKind::Sjf, snap), ServedBy::Fallback),
        "the panicked lone frame is answered by SJF over its snapshot"
    );
    assert!(
        waited < backoff / 2,
        "the fallback answer waited {waited:?}: it must go out before the {backoff:?} backoff"
    );
    let respawned = Instant::now() + 20 * backoff;
    while handle.stats().restarts == 0 && Instant::now() < respawned {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.stats();
    assert_eq!(stats.shards[0].panics, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.shards[0].state, ShardState::Healthy);

    let (snap, expected) = canary.row(1);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!((d.action, d.served_by), (expected, ServedBy::Model));
    assert_eq!(inline_rows(&handle), Some(1), "both frames stayed inline");
    let stats = handle.shutdown();
    assert_eq!((stats.served, stats.fallbacks), (1, 1));
    assert_eq!(
        stats.batches, 1,
        "the panicked batch never reached a forward"
    );
}

/// The lone frame right after a committed swap is scored inline with the
/// new weights: the connection thread's batch picks up the generation
/// exactly as a shard thread's does.
#[test]
fn the_lone_frame_after_a_commit_is_scored_with_the_new_weights() {
    let agent_a = agent_for(16, 3);
    let agent_b = agent_for(16, 4);
    let canary_a = CanaryBatch::probe(&agent_a, 16, 61);
    let canary_b = CanaryBatch::probe(&agent_b, 16, 61);
    // Same seed, same window: the same decision points, scored by each.
    let differs = (0..canary_b.rows())
        .find(|&i| {
            assert_eq!(canary_a.row(i).0, canary_b.row(i).0);
            canary_a.row(i).1 != canary_b.row(i).1
        })
        .expect("two differently seeded agents disagree somewhere");
    let handle = Server::spawn(
        agent_a.scorer_snapshot(),
        *agent_a.encoder(),
        chaos_config(Arc::new(FaultPlan::new())),
    )
    .expect("server spawns");
    let mut client = handle.connect().unwrap();

    let (snap, expected_a) = canary_a.row(differs);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!((d.action, d.served_by), (expected_a, ServedBy::Model));
    assert_eq!(
        handle.propose_scorer(agent_b.scorer_snapshot(), &canary_b),
        Ok(1)
    );
    let (snap, expected_b) = canary_b.row(differs);
    let d = client.score_snapshot(snap).unwrap();
    assert_eq!(
        (d.action, d.served_by),
        (expected_b, ServedBy::Model),
        "the first lone frame after the commit carries B's bits"
    );
    assert_eq!(inline_rows(&handle), Some(2), "both frames stayed inline");
    handle.shutdown();
}

/// Exhausting the restart budget through lone frames parks the shard in
/// `Failed` exactly as queued batches do: every lone frame while it is
/// parked gets the fallback, none is scored on the model, and a
/// validated swap revives it on the next frame.
#[test]
fn exhausting_the_budget_through_lone_frames_parks_the_shard_until_a_validated_swap() {
    let agent = agent_for(16, 5);
    let canary = CanaryBatch::probe(&agent, 8, 67);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 3);
    let mut cfg = chaos_config(faults);
    cfg.restart_budget = 2;
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let mut client = handle.connect().unwrap();

    // Three panicked lone frames, then eight more while parked.
    for i in 0..11 {
        let (snap, _) = canary.row(i % canary.rows());
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!(
            (d.action as u64, d.served_by),
            (fallback_pick(HeuristicKind::Sjf, snap), ServedBy::Fallback),
            "lone frame {i}"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.shards[0].state, ShardState::Failed);
    assert_eq!(stats.shards[0].panics, 3);
    assert_eq!(stats.restarts, 2, "two respawns, then the budget ran out");
    assert_eq!((stats.served, stats.fallbacks), (0, 11));
    assert_eq!(inline_rows(&handle), Some(0));

    assert_eq!(
        handle.propose_scorer(agent.scorer_snapshot(), &canary),
        Ok(1)
    );
    for i in 0..canary.rows() {
        let (snap, expected) = canary.row(i);
        let d = client.score_snapshot(snap).unwrap();
        assert_eq!(
            (d.action, d.served_by),
            (expected, ServedBy::Model),
            "row {i} after the commit"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.shards[0].state, ShardState::Healthy);
    assert_eq!(stats.restarts, 3, "the commit revived the shard once");
    assert_eq!(stats.served, canary.rows() as u64);
}

/// A pipelined burst on an idle two-shard tier is scored on its
/// connection thread, one batch per shard, and the fault hook fires
/// once per batch: a scripted panic in shard 0's batch answers each of
/// its rows with the SJF fallback while shard 1's rows keep the model's
/// bits, every reply of the burst arrives before the restart backoff,
/// and the respawned shard scores the next burst inline.
#[test]
fn a_panic_in_an_inline_batch_answers_its_rows_by_fallback_before_the_backoff() {
    use rlsched_serve::protocol::encode_binary_frame;
    use rlsched_serve::AnyStream;
    use std::io::{BufReader, Write};

    const N: u64 = 8;
    let agent = agent_for(16, 19);
    let canary = CanaryBatch::probe(&agent, N as usize, 71);
    let faults = Arc::new(FaultPlan::new());
    faults.panic_at(0, 0, 1);
    let backoff = Duration::from_millis(800);
    let cfg = ServeConfig {
        shards: 2,
        batch_cap: 32,
        restart_backoff: backoff,
        restart_backoff_cap: backoff,
        ..chaos_config(faults)
    };
    let handle =
        Server::spawn(agent.scorer_snapshot(), *agent.encoder(), cfg).expect("server spawns");
    let stream = AnyStream::dial(handle.server_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let (mut payload, mut line) = (Vec::new(), String::new());
    // One write of `N` binary frames: one run, read whole.
    let mut send_burst = |base: u64| {
        let (mut burst, mut frame) = (Vec::new(), Vec::new());
        for id in base..base + N {
            let request = score_request(&canary, id);
            encode_binary_frame(&request, &mut frame);
            burst.extend_from_slice(&frame);
        }
        writer.write_all(&burst).unwrap();
    };
    let mut recv = || {
        let (resp, _) = read_frame_any::<Response, _>(&mut reader, &mut payload, &mut line)
            .unwrap()
            .expect("a reply per frame");
        let Response::Action {
            id,
            action,
            shard,
            served_by,
        } = resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        (id, action, shard, served_by)
    };

    let sent = Instant::now();
    send_burst(0);
    let mut on_shard = [0u64; 2];
    for _ in 0..N {
        let (id, action, shard, served_by) = recv();
        let (snap, expected) = canary.row(id as usize % canary.rows());
        on_shard[shard as usize] += 1;
        if shard == 0 {
            assert_eq!(
                (action, served_by),
                (fallback_pick(HeuristicKind::Sjf, snap), ServedBy::Fallback),
                "id {id} rode the panicked batch"
            );
        } else {
            assert_eq!((action as usize, served_by), (expected, ServedBy::Model));
        }
    }
    let waited = sent.elapsed();
    assert!(
        waited < backoff / 2,
        "the burst's replies waited {waited:?}: they must all go out before the {backoff:?} backoff"
    );
    assert!(
        on_shard.iter().all(|&n| n > 0),
        "the burst routes to both shards: {on_shard:?}"
    );
    let respawned = Instant::now() + 20 * backoff;
    while handle.stats().restarts == 0 && Instant::now() < respawned {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.stats();
    assert_eq!(stats.shards[0].panics, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.shards[0].state, ShardState::Healthy);

    send_burst(N);
    for _ in 0..N {
        let (id, action, _, served_by) = recv();
        let (_, expected) = canary.row(id as usize % canary.rows());
        assert_eq!((action as usize, served_by), (expected, ServedBy::Model));
    }
    let model = N - on_shard[0] + N;
    assert_eq!(
        handle
            .registry()
            .snapshot()
            .counter_sum("rlsched_serve_inline_total"),
        model,
        "both bursts were scored inline"
    );
    let stats = handle.shutdown();
    assert_eq!((stats.served, stats.fallbacks), (model, on_shard[0]));
    assert_eq!(
        stats.batches, 3,
        "shard 1's batch, then one per shard: the panicked batch never reached a forward"
    );
}
