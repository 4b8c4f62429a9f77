//! The front door, shard workers, and the core they share.
//!
//! ```text
//!                  ┌─ connection threads ─────────┐
//! TcpListener ────▶│ read frame, validate         │
//!  (accept loop)   │ fallback action              │
//!                  │ route: fnv(id)%N             │   lone frame, idle shard
//!                  │ ─────────────────────────────┼──────────────┐
//!                  │ else inbox (full ⇒ fallback) │              ▼
//!                  │ inline replies: never block  │   ┌─ shard core (Mutex) ───┐
//!                  └──────────┬───────────────────┘   │ score(batch):          │
//!                             │ bounded inbox         │  encode, fault hook,   │
//!                             ▼                       │  one forward under     │
//!                  ┌─ shard thread ──────┐            │  catch_unwind; panic ⇒ │
//!                  │ recv (blocking)     │───lock────▶│  fallback, budget,     │
//!                  │ + what is waiting   │            │  backoff, respawn or   │
//!                  └──────────┬──────────┘            │  park until a new gen  │
//!                             ▼                       └────────────────────────┘
//!                  writer thread (per conn): every other reply
//! ```
//!
//! * **Two paths, one scoring routine**: a `Score` frame with nothing
//!   buffered behind it on its connection is scored on the connection
//!   thread that decoded it when its shard is idle — its inbox empty and
//!   its core free (`try_lock`) — and that thread writes the reply
//!   itself: no hand-off at all. Every other frame is queued to
//!   its shard's thread, because only a reader that keeps reading while
//!   a shard is busy lets requests stack into a batch, age into the
//!   deadline fallback or overflow into a shed. Both paths lock the
//!   shard's core and run the same `score`, so supervision, the fault
//!   hook and every counter treat an inline row as a one-row batch.
//! * **Replies** go out in the format their request arrived in. The
//!   connection thread writes the replies it scores inline, as far as
//!   the socket takes them without blocking; the connection's writer
//!   thread writes every other reply (stats, scrapes, errors, full-inbox
//!   fallbacks, the shard threads' answers) and the rest of any inline
//!   reply, under one per-connection lock on the write half. Neither a
//!   connection thread nor a shard thread waits on a client's socket,
//!   so a client that pipelines a burst before it reads a reply is read
//!   to the end. A frame too malformed to decode is answered in the
//!   format of the last frame that did decode (JSON before any has).
//! * **Routing** is deterministic: FNV-1a of the request id modulo the
//!   shard count, so a given id always lands on the same shard (and a
//!   client can pin itself to a shard by fixing its id stream).
//! * **Supervision** lives in each shard's core, not in a thread: the
//!   batch runs under `catch_unwind`. A panic never loses a request —
//!   the batch's rows live outside the unwind boundary and are answered
//!   by the heuristic fallback — and the core respawns a fresh
//!   [`ShardEngine`] built from the current snapshot, under a bounded
//!   restart budget with deterministic exponential backoff: the thread
//!   that ran the batch answers its rows, then sleeps the backoff and
//!   respawns the engine with the core held. Exhausting the budget
//!   parks the shard in `Failed`: its frames are answered through the
//!   fallback until a validated weight swap (a new generation) is
//!   committed; the first batch after the commit revives it and is
//!   scored on the fresh engine.
//! * **Graceful degradation**: when a shard's inbox is full, its
//!   in-queue deadline expires, or the worker is down, the request is
//!   answered with the deterministic heuristic decision
//!   ([`rlsched_sched::PriorityScheduler`] semantics, kind from
//!   [`ServeConfig::fallback`]) tagged `served_by: Fallback` — bare
//!   [`Response::Shed`] only remains for servers configured without a
//!   fallback.
//! * **Checkpoint lifecycle**: [`ServerHandle::propose_scorer`] gates
//!   every weight install behind validation — an all-finite parameter
//!   walk plus a [`CanaryBatch`] parity probe — and
//!   [`ServerHandle::record_eval`] rolls the slot back to the previous
//!   generation when the live eval metric regresses past tolerance.
//!   [`ServerHandle::swap_scorer`] remains the unvalidated force path.
//! * **Backpressure**: each shard's inbox is a bounded channel; the
//!   connection thread answers immediately (fallback or shed) instead
//!   of queueing unbounded work.
//! * **Batching without a timer**: a shard thread blocks for its first
//!   request, takes whatever else is already waiting in its inbox (up
//!   to the batch cap), and scores the whole stack through one forward.
//!   It never sleeps for companions: a lone request on an idle tier is
//!   one `rows = 1` forward on its own connection thread, and a backlog
//!   behind a busy shard is the next batch.
//! * **Shutdown**: [`ServerHandle::shutdown`] flips a flag, the accept
//!   loop notices it, parked connection readers are unblocked by
//!   shutting their streams down, shards drain and exit when every
//!   sender is gone, and all threads are joined before the call
//!   returns.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlsched_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use rlsched_sched::{select_parts, HeuristicKind};
use rlscheduler::{CanaryBatch, CanaryError, ObsEncoder, QueueSnapshot, ScorerSnapshot};

use crate::client::ServeClient;
use crate::engine::{EngineMetrics, ScorerSlot, ShardEngine};
use crate::faults::FaultPlan;
use crate::protocol::{
    encode_binary_frame, encode_json_frame, read_frame_any, Request, Response, ServeStats,
    ServedBy, ShardHealth, ShardState, WireProtocol,
};
use crate::transport::{AnyStream, Listen, ListenAddr, ServerAddr, Transport};

/// Server tuning knobs. The defaults serve a small cluster's decision
/// traffic; benches and tests override freely.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen: TCP (port 0 picks a free port — see
    /// [`ServerHandle::addr`]) or a Unix domain socket. The default is
    /// a free loopback TCP port.
    pub addr: ListenAddr,
    /// Worker shards, each owning a scorer replica and scratch.
    pub shards: usize,
    /// Max rows per queued batch: a shard thread scores at most this
    /// many of the requests already waiting in its inbox through one
    /// forward. A lone frame scored on its connection thread is a
    /// one-row batch.
    pub batch_cap: usize,
    /// Bounded per-shard inbox depth for queued frames; arrivals beyond
    /// it take the fallback arm (or are shed when no fallback is
    /// configured). A frame scored on its connection thread never
    /// enters the inbox.
    pub queue_depth: usize,
    /// Heuristic kind answering for the model when a shard can't
    /// (panicked batch, full inbox, expired deadline, failed shard).
    /// Must be wire-scorable ([`HeuristicKind::wire_scorable`]); `None`
    /// restores pre-fallback semantics (bare [`Response::Shed`]).
    pub fallback: Option<HeuristicKind>,
    /// Consecutive shard panics tolerated before the shard parks in
    /// [`ShardState::Failed`] (serving fallback until a validated swap).
    pub restart_budget: u32,
    /// Base respawn delay; doubles per consecutive panic
    /// (deterministic, no jitter — the *client* owns jitter).
    pub restart_backoff: Duration,
    /// Upper bound on the respawn delay.
    pub restart_backoff_cap: Duration,
    /// In-queue age past which a queued request is answered by the
    /// fallback instead of waiting on a slow shard. A frame scored on
    /// its connection thread never waits in a queue. `None` disables
    /// the check.
    pub queue_deadline: Option<Duration>,
    /// Relative eval-metric regression (lower is better) tolerated by
    /// [`ServerHandle::record_eval`] before it rolls the weights back.
    pub eval_tolerance: f64,
    /// Scripted fault injection (tests); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: ListenAddr::Tcp("127.0.0.1:0".to_string()),
            shards: 2,
            batch_cap: 32,
            queue_depth: 128,
            fallback: Some(HeuristicKind::Sjf),
            restart_budget: 3,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_millis(500),
            queue_deadline: None,
            eval_tolerance: 0.1,
            faults: None,
        }
    }
}

/// What a connection's writer thread is sent: a reply to write, or
/// `None` to write the rest of an inline reply that the socket did not
/// take at once.
type WriterMsg = Option<(Response, WireProtocol)>;

/// Where an answer the connection thread does not write itself goes: its
/// connection's writer thread, in the format the request arrived in.
struct Reply {
    tx: Sender<WriterMsg>,
    proto: WireProtocol,
}

impl Reply {
    /// Queue `resp` for the writer. A dead client's writer is gone;
    /// dropping the reply is fine.
    fn send(&self, resp: Response) {
        let _ = self.tx.send(Some((resp, self.proto)));
    }
}

/// One validated `Score` request: what a shard needs to score it, or to
/// answer it through the fallback, whichever thread runs its batch.
struct Row {
    id: u64,
    snapshot: QueueSnapshot,
    /// The heuristic decision for this request, precomputed at
    /// admission so a down shard can answer without model state.
    fallback: Option<u64>,
    enqueued: Instant,
}

/// A row queued for its shard's thread, with the way back to its
/// connection.
struct ShardRequest {
    row: Row,
    reply: Reply,
}

/// Lock-free per-shard lifecycle state, published to [`ServeStats`] (the
/// counters live in the metrics registry).
struct ShardHealthCell {
    state: AtomicU8,
}

const STATE_HEALTHY: u8 = 0;
const STATE_RESTARTING: u8 = 1;
const STATE_FAILED: u8 = 2;

impl ShardHealthCell {
    fn new() -> Self {
        ShardHealthCell {
            state: AtomicU8::new(STATE_HEALTHY),
        }
    }

    fn set_state(&self, state: u8) {
        self.state.store(state, Ordering::Release);
    }

    fn state(&self) -> ShardState {
        match self.state.load(Ordering::Acquire) {
            STATE_RESTARTING => ShardState::Restarting,
            STATE_FAILED => ShardState::Failed,
            _ => ShardState::Healthy,
        }
    }
}

/// One shard's registry handles, wired once at spawn. Each respawned
/// engine re-clones these (same storage), so every counter is monotone
/// across panic/respawn — the property the chaos suite pins.
#[derive(Clone)]
struct ShardMetrics {
    served: Counter,
    /// Rows scored on the connection thread that read them.
    inline: Counter,
    fallbacks: Counter,
    shed: Counter,
    deadlines: Counter,
    batches: Counter,
    batch_max: Gauge,
    batch_rows: Histogram,
    restarts: Counter,
    panics: Counter,
    inbox_depth: Gauge,
    latency: Histogram,
}

impl ShardMetrics {
    fn register(reg: &Registry, shard: usize) -> Self {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        ShardMetrics {
            served: reg.counter("rlsched_serve_served_total", l),
            inline: reg.counter("rlsched_serve_inline_total", l),
            fallbacks: reg.counter("rlsched_serve_fallbacks_total", l),
            shed: reg.counter("rlsched_serve_shed_total", l),
            deadlines: reg.counter("rlsched_serve_deadlines_total", l),
            batches: reg.counter("rlsched_serve_batches_total", l),
            batch_max: reg.gauge("rlsched_serve_batch_max_rows", l),
            batch_rows: reg.histogram("rlsched_serve_batch_rows", l),
            restarts: reg.counter("rlsched_serve_restarts_total", l),
            panics: reg.counter("rlsched_serve_panics_total", l),
            inbox_depth: reg.gauge("rlsched_serve_inbox_depth", l),
            latency: reg.histogram("rlsched_serve_latency_ns", l),
        }
    }

    /// A fresh engine from `slot`'s *current* snapshot, recording into
    /// these handles.
    fn engine(&self, slot: &Arc<ScorerSlot>, batch_cap: usize) -> ShardEngine {
        let mut engine = ShardEngine::new(Arc::clone(slot), batch_cap);
        engine.instrument(EngineMetrics {
            rows: self.served.clone(),
            batches: self.batches.clone(),
            batch_rows: self.batch_rows.clone(),
            batch_max: self.batch_max.clone(),
        });
        engine
    }
}

/// Server-scoped (not per-shard) registry handles.
struct ServerMetrics {
    swaps: Counter,
    rollbacks: Counter,
    accept_failures: Counter,
    shards: Vec<ShardMetrics>,
}

impl ServerMetrics {
    fn register(reg: &Registry, shards: usize) -> Self {
        ServerMetrics {
            swaps: reg.counter("rlsched_serve_swaps_total", &[]),
            rollbacks: reg.counter("rlsched_serve_rollbacks_total", &[]),
            accept_failures: reg.counter("rlsched_serve_accept_failures_total", &[]),
            shards: (0..shards)
                .map(|s| ShardMetrics::register(reg, s))
                .collect(),
        }
    }
}

/// One shard's engine and supervision state, locked by whichever thread
/// scores a batch on the shard: its own thread, or a connection thread
/// scoring a lone frame.
struct ShardCore {
    engine: ShardEngine,
    /// Panicked batches since the last one that scored.
    consecutive: u32,
    /// Lifetime attempted batches, the key [`FaultPlan`] scripts by.
    batches: u64,
    /// The weight generation the shard parked in `Failed` at.
    failed_at: Option<u64>,
}

/// One shard: its core and its published lifecycle state.
struct Shard {
    core: Mutex<ShardCore>,
    health: ShardHealthCell,
}

/// Shutdown flag, configuration, weights, the metrics registry and its
/// wired handles, the shards, and connection bookkeeping — shared by
/// all threads.
struct Shared {
    shutdown: AtomicBool,
    cfg: ServeConfig,
    encoder: ObsEncoder,
    slot: Arc<ScorerSlot>,
    /// Every counter/gauge/histogram the tier records, scrapeable as
    /// one consistent snapshot via [`Request::Metrics`].
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    shards: Vec<Shard>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Shutdown hooks for the *live* connections keyed by connection
    /// id (each holds a stream clone and shuts it down when called),
    /// so shutdown can unblock readers parked mid-frame (no read
    /// timeouts — a timeout mid-frame would drop partial frame data).
    /// Each connection removes its own entry on exit; leaving it there
    /// would hold the socket's fd open for the server's lifetime.
    conn_shutdowns: Mutex<std::collections::HashMap<u64, Box<dyn Fn() + Send>>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    /// Assemble [`ServeStats`] as a *consistent* registry view: every
    /// per-shard counter is read exactly once, and the aggregate totals
    /// are sums over those same reads — so a scrape racing a shard
    /// respawn can never report a total that disagrees with its
    /// per-shard parts (the torn-totals gap the ad-hoc counters had).
    fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            served: 0,
            fallbacks: 0,
            shed: 0,
            deadlines: 0,
            batches: 0,
            max_batch: 0,
            swaps: self.metrics.swaps.get(),
            rollbacks: self.metrics.rollbacks.get(),
            restarts: 0,
            accept_failures: self.metrics.accept_failures.get(),
            p50_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
            shards: Vec::with_capacity(self.metrics.shards.len()),
        };
        let mut hist = HistogramSnapshot::default();
        for (sm, shard) in self.metrics.shards.iter().zip(&self.shards) {
            let restarts = sm.restarts.get();
            stats.served += sm.served.get();
            stats.fallbacks += sm.fallbacks.get();
            stats.shed += sm.shed.get();
            stats.deadlines += sm.deadlines.get();
            stats.batches += sm.batches.get();
            stats.max_batch = stats.max_batch.max(sm.batch_max.get() as u64);
            stats.restarts += restarts;
            hist.merge(&sm.latency.snapshot());
            stats.shards.push(ShardHealth {
                state: shard.health.state(),
                restarts,
                panics: sm.panics.get(),
            });
        }
        stats.p50_us = hist.quantile_ns(0.5) as f64 / 1e3;
        stats.p99_us = hist.quantile_ns(0.99) as f64 / 1e3;
        stats.max_us = hist.max_ns as f64 / 1e3;
        stats
    }

    /// The answer for a row the model does not score: its fallback
    /// action, or a shed when the server has no fallback configured.
    /// Counts it.
    fn fallback_response(&self, shard: usize, row: &Row) -> Response {
        match row.fallback {
            Some(action) => {
                self.metrics.shards[shard].fallbacks.inc();
                Response::Action {
                    id: row.id,
                    action,
                    shard: shard as u64,
                    served_by: ServedBy::Fallback,
                }
            }
            None => {
                self.metrics.shards[shard].shed.inc();
                Response::Shed { id: row.id }
            }
        }
    }

    /// Replace a panicked (or parked) engine after sleeping `after`: a
    /// panic may have left it mid-batch with stacked rows.
    fn respawn(&self, shard: usize, core: &mut ShardCore, after: Duration) {
        std::thread::sleep(after);
        core.engine = self.metrics.shards[shard].engine(&self.slot, self.cfg.batch_cap);
        self.metrics.shards[shard].restarts.inc();
        self.shards[shard].health.set_state(STATE_HEALTHY);
    }

    /// The one scoring routine, run with shard `shard`'s core locked by
    /// its thread over a queued batch or by a connection thread over a
    /// lone frame. Calls `answer(i, response)` once per row of `rows`,
    /// as soon as that row's answer exists.
    ///
    /// A parked (`Failed`) shard answers through the fallback until the
    /// weight generation moves, and then revives on this batch. The
    /// batch is encoded, passed to [`FaultPlan::before_score`] and
    /// scored under `catch_unwind`. A panic answers every row through
    /// the fallback; the rows live outside the unwind boundary, so none
    /// is lost. Past the restart budget the shard then parks in
    /// `Failed`. Within it the shard is `Restarting`, and `score`
    /// returns its deterministic exponential backoff: the caller, once
    /// the answers are out, passes it to [`Shared::respawn`] with the
    /// core still held, so no batch scores on the panicked engine.
    #[must_use]
    fn score(
        &self,
        shard: usize,
        core: &mut ShardCore,
        rows: &[Row],
        answer: &mut dyn FnMut(usize, Response),
    ) -> Option<Duration> {
        let fallback_all = |answer: &mut dyn FnMut(usize, Response)| {
            for (i, row) in rows.iter().enumerate() {
                answer(i, self.fallback_response(shard, row));
            }
        };
        if let Some(failed_at) = core.failed_at {
            if self.slot.generation() == failed_at {
                fallback_all(answer);
                return None;
            }
            // A validated swap since the shard parked: revive it.
            core.failed_at = None;
            core.consecutive = 0;
            self.respawn(shard, core, Duration::ZERO);
        }
        let batch = core.batches;
        core.batches += 1;
        let engine = &mut core.engine;
        let run = catch_unwind(AssertUnwindSafe(move || {
            let engine = engine; // moved in: the actions borrow outlives the call
            for row in rows {
                engine.push_snapshot(&row.snapshot, &self.encoder);
            }
            if let Some(faults) = &self.cfg.faults {
                // May panic (→ the arm below) or stall (→ queued
                // requests age past their deadline) exactly as scripted.
                faults.before_score(shard, batch);
            }
            rlsched_obs::span!("serve.batch");
            // The engine's instrumentation records batches/rows/batch
            // size; the rows' latency is recorded below.
            engine.flush()
        }));
        let m = &self.metrics.shards[shard];
        match run {
            Ok(actions) => {
                // A batch made it through the forward: the shard is
                // healthy again, whatever its panic history.
                core.consecutive = 0;
                for (i, (row, &action)) in rows.iter().zip(actions).enumerate() {
                    m.latency.record(row.enqueued.elapsed());
                    answer(
                        i,
                        Response::Action {
                            id: row.id,
                            action: action as u64,
                            shard: shard as u64,
                            served_by: ServedBy::Model,
                        },
                    );
                }
                None
            }
            Err(_) => {
                m.panics.inc();
                core.consecutive += 1;
                fallback_all(answer);
                let health = &self.shards[shard].health;
                if core.consecutive > self.cfg.restart_budget {
                    health.set_state(STATE_FAILED);
                    core.failed_at = Some(self.slot.generation());
                    return None;
                }
                health.set_state(STATE_RESTARTING);
                // Deterministic exponential backoff: base << (n-1),
                // capped. No jitter — shards don't share a herd, and
                // reproducibility is worth more here.
                let shift = (core.consecutive - 1).min(16);
                let backoff = self
                    .cfg
                    .restart_backoff
                    .saturating_mul(1u32 << shift)
                    .min(self.cfg.restart_backoff_cap);
                Some(backoff)
            }
        }
    }

    /// Score a lone frame on the calling connection thread when its
    /// shard is idle (nothing in its inbox, its core free) and hand the
    /// answer to `write`. Returns `false`, having done nothing, when the
    /// shard is busy and the frame must be queued.
    fn score_inline(&self, shard: usize, row: &Row, write: impl FnOnce(Response)) -> bool {
        let m = &self.metrics.shards[shard];
        if m.inbox_depth.get() > 0.0 {
            return false;
        }
        let Ok(mut core) = self.shards[shard].core.try_lock() else {
            return false;
        };
        let mut out = None;
        let restart = self.score(
            shard,
            &mut core,
            std::slice::from_ref(row),
            &mut |_, resp| out = Some(resp),
        );
        let resp = out.expect("score answers every row");
        if let Response::Action {
            served_by: ServedBy::Model,
            ..
        } = resp
        {
            m.inline.inc();
        }
        write(resp);
        if let Some(after) = restart {
            self.respawn(shard, &mut core, after);
        }
        true
    }
}

/// FNV-1a: the deterministic request→shard routing hash.
fn route(id: u64, shards: usize) -> usize {
    let mut h = 0xcbf29ce484222325u64;
    for byte in id.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards as u64) as usize
}

/// Why [`ServerHandle::propose_scorer`] refused to commit a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum ProposeError {
    /// Observation window or action space differs from the serving tier.
    Dims {
        /// The tier's `(obs_dim, n_actions)`.
        want: (usize, usize),
        /// The proposal's `(obs_dim, n_actions)`.
        got: (usize, usize),
    },
    /// The parameter walk found a NaN/Inf weight.
    NonFinite,
    /// The canary parity probe rejected the proposal.
    Canary(CanaryError),
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::Dims { want, got } => {
                write!(
                    f,
                    "proposal dims {got:?} do not match serving dims {want:?}"
                )
            }
            ProposeError::NonFinite => write!(f, "proposal carries non-finite weights"),
            ProposeError::Canary(e) => write!(f, "canary probe rejected the proposal: {e}"),
        }
    }
}

impl std::error::Error for ProposeError {}

/// The serving tier. Construct with [`Server::spawn`]; the returned
/// [`ServerHandle`] is the only way to interact with a running server.
pub struct Server;

impl Server {
    /// Start listening and spawn the shard workers. Returns once the
    /// socket is bound (the address is immediately connectable).
    pub fn spawn(
        scorer: ScorerSnapshot,
        encoder: ObsEncoder,
        cfg: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert_eq!(
            encoder.obs_dim(),
            scorer.obs_dim(),
            "encoder window must match the scorer"
        );
        if let Some(kind) = cfg.fallback {
            assert!(
                kind.wire_scorable(),
                "{} needs absolute submit times, which serving requests don't carry; \
                 pick a wire-scorable fallback kind",
                kind.name()
            );
        }
        match cfg.addr.clone() {
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(&spec)?;
                listener.set_nonblocking(true)?;
                let bound = ServerAddr::Tcp(listener.local_addr()?);
                finish_spawn(listener, bound, scorer, encoder, cfg)
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                // A stale socket file from a crashed predecessor makes
                // bind fail with AddrInUse; remove it first (connects to
                // a dead socket fail, so this races with nothing live).
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                listener.set_nonblocking(true)?;
                let bound = ServerAddr::Unix(path);
                finish_spawn(listener, bound, scorer, encoder, cfg)
            }
        }
    }
}

/// Listener-generic tail of [`Server::spawn`].
fn finish_spawn<L: Listen>(
    listener: L,
    bound: ServerAddr,
    scorer: ScorerSnapshot,
    encoder: ObsEncoder,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let slot = ScorerSlot::new(scorer);
    // Each server owns its registry: tests spawning several servers in
    // one process see isolated counters, and a scrape of this front
    // door reports exactly this tier.
    let registry = Arc::new(Registry::new());
    let metrics = ServerMetrics::register(&registry, cfg.shards);
    let shards = metrics
        .shards
        .iter()
        .map(|m| Shard {
            core: Mutex::new(ShardCore {
                engine: m.engine(&slot, cfg.batch_cap),
                consecutive: 0,
                batches: 0,
                failed_at: None,
            }),
            health: ShardHealthCell::new(),
        })
        .collect();
    let n_shards = cfg.shards;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        cfg,
        encoder,
        slot,
        registry,
        metrics,
        shards,
        conns: Mutex::new(Vec::new()),
        conn_shutdowns: Mutex::new(std::collections::HashMap::new()),
        next_conn_id: AtomicU64::new(0),
    });

    let mut shard_txs = Vec::with_capacity(n_shards);
    let mut shard_threads = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let (tx, rx) = mpsc::sync_channel::<ShardRequest>(shared.cfg.queue_depth);
        let shared = Arc::clone(&shared);
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("rlsched-serve-shard-{shard}"))
                .spawn(move || shard_loop(shard, rx, &shared))?,
        );
        shard_txs.push(tx);
    }

    let accept = {
        let shared = Arc::clone(&shared);
        let shard_txs = shard_txs.clone();
        std::thread::Builder::new()
            .name("rlsched-serve-accept".to_string())
            .spawn(move || accept_loop(listener, shard_txs, shared))?
    };

    Ok(ServerHandle {
        bound,
        shared,
        obs_dim: encoder.obs_dim(),
        n_actions: encoder.n_actions(),
        eval_baseline: Mutex::new(None),
        accept: Some(accept),
        shard_threads,
        _shard_txs: shard_txs,
    })
}

/// A running server: address, stats, checkpoint lifecycle, shutdown.
pub struct ServerHandle {
    bound: ServerAddr,
    shared: Arc<Shared>,
    obs_dim: usize,
    n_actions: usize,
    eval_baseline: Mutex<Option<f64>>,
    accept: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    /// Keeps the shard inboxes alive until shutdown drops them.
    _shard_txs: Vec<SyncSender<ShardRequest>>,
}

impl ServerHandle {
    /// The bound TCP address (resolves port 0). Panics when the server
    /// listens on a Unix socket — use [`ServerHandle::server_addr`] or
    /// [`ServerHandle::connect`] for transport-agnostic access.
    pub fn addr(&self) -> SocketAddr {
        match &self.bound {
            ServerAddr::Tcp(a) => *a,
            other => panic!(
                "server is bound to {other}, not TCP; \
                 use server_addr() or connect() instead of addr()"
            ),
        }
    }

    /// The bound address, whichever transport it is.
    pub fn server_addr(&self) -> &ServerAddr {
        &self.bound
    }

    /// Open a client to this server over whichever transport it bound,
    /// speaking the client's default wire format (binary frames).
    pub fn connect(&self) -> std::io::Result<ServeClient<AnyStream>> {
        ServeClient::connect_any(&self.bound)
    }

    /// Propose → validate → commit: the guarded way to install weights.
    ///
    /// The proposal must match the tier's dimensions, pass the
    /// all-finite parameter walk, and reproduce the canary's expected
    /// actions exactly ([`CanaryBatch::check`]). Only then is it
    /// committed through the shared slot — which retains the displaced
    /// snapshot, so a post-swap [`ServerHandle::record_eval`] regression
    /// (or an explicit [`ServerHandle::rollback_scorer`]) can restore
    /// the previous generation. Rejections leave the serving weights
    /// untouched and count in [`ServeStats::rollbacks`].
    ///
    /// Returns the new weight generation on commit. A commit also
    /// revives any shard parked in [`ShardState::Failed`]: the first
    /// request it receives afterwards is scored on a fresh engine.
    pub fn propose_scorer(
        &self,
        scorer: ScorerSnapshot,
        canary: &CanaryBatch,
    ) -> Result<u64, ProposeError> {
        let reject = |e: ProposeError| {
            self.shared.metrics.rollbacks.inc();
            Err(e)
        };
        if scorer.obs_dim() != self.obs_dim || scorer.n_actions() != self.n_actions {
            return reject(ProposeError::Dims {
                want: (self.obs_dim, self.n_actions),
                got: (scorer.obs_dim(), scorer.n_actions()),
            });
        }
        if !scorer.all_finite() {
            return reject(ProposeError::NonFinite);
        }
        if let Err(e) = canary.check(&scorer) {
            return reject(ProposeError::Canary(e));
        }
        self.shared.slot.swap(scorer);
        self.shared.metrics.swaps.inc();
        Ok(self.shared.slot.generation())
    }

    /// Install new weights without validation — the force path for
    /// benches and callers that validated elsewhere. Prefer
    /// [`ServerHandle::propose_scorer`]. The snapshot must come from an
    /// agent with the same observation window.
    pub fn swap_scorer(&self, scorer: ScorerSnapshot) {
        assert_eq!(scorer.obs_dim(), self.obs_dim, "hot-swap changed obs_dim");
        assert_eq!(
            scorer.n_actions(),
            self.n_actions,
            "hot-swap changed the action space"
        );
        self.shared.slot.swap(scorer);
        self.shared.metrics.swaps.inc();
    }

    /// Restore the snapshot displaced by the last committed swap and
    /// bump the generation. Returns `false` when no previous generation
    /// is retained (never swapped, or already rolled back).
    pub fn rollback_scorer(&self) -> bool {
        let rolled = self.shared.slot.rollback();
        if rolled {
            self.shared.metrics.rollbacks.inc();
        }
        rolled
    }

    /// Feed one post-deployment eval measurement (lower is better —
    /// e.g. mean bounded slowdown on a probe workload). The first call
    /// sets the baseline; later calls compare against it and roll the
    /// weights back to the previous generation when the metric
    /// regresses beyond the configured tolerance (or goes non-finite).
    /// Returns `true` when a rollback was triggered.
    pub fn record_eval(&self, metric: f64) -> bool {
        let mut baseline = self.eval_baseline.lock().expect("eval baseline poisoned");
        let Some(base) = *baseline else {
            *baseline = Some(metric);
            return false;
        };
        let threshold = base + base.abs() * self.shared.cfg.eval_tolerance;
        if metric.is_finite() && metric <= threshold {
            *baseline = Some(metric);
            return false;
        }
        if self.shared.slot.rollback() {
            self.shared.metrics.rollbacks.inc();
        }
        true
    }

    /// Current weight generation (bumps on every commit and rollback).
    pub fn generation(&self) -> u64 {
        self.shared.slot.generation()
    }

    /// Aggregate serving statistics so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The server's metrics registry — the same one a
    /// [`Request::Metrics`] scrape snapshots over the wire. In-process
    /// consumers (autoscalers, tests) can watch it without a socket.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Stop accepting, drain the shards, join every thread. Returns the
    /// final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock readers parked on idle connections; joined readers'
        // stream clones just error harmlessly.
        for hook in self
            .shared
            .conn_shutdowns
            .lock()
            .expect("shutdown hook list poisoned")
            .values()
        {
            hook();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn list poisoned"));
        for c in conns {
            let _ = c.join();
        }
        // Dropping the senders lets each shard drain and exit.
        self._shard_txs.clear();
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        // A Unix socket outlives its listener as a filesystem entry;
        // remove it so the path can be rebound.
        if let ServerAddr::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
        self.shared.stats()
    }
}

fn accept_loop<L: Listen>(
    listener: L,
    shard_txs: Vec<SyncSender<ShardRequest>>,
    shared: Arc<Shared>,
) {
    let base_backoff = Duration::from_millis(2);
    let mut accept_backoff = base_backoff;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept_stream() {
            Ok(stream) => {
                accept_backoff = base_backoff;
                let shard_txs = shard_txs.clone();
                let shared_c = Arc::clone(&shared);
                let conn = std::thread::Builder::new()
                    .name("rlsched-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, shard_txs, shared_c));
                if let Ok(h) = conn {
                    // Reap finished connection threads while we are here
                    // so the handle list tracks live connections instead
                    // of growing with churn.
                    let mut conns = shared.conns.lock().expect("conn list poisoned");
                    let mut i = 0;
                    while i < conns.len() {
                        if conns[i].is_finished() {
                            let _ = conns.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(base_backoff);
            }
            Err(_) => {
                // Transient accept failures (ECONNABORTED from a client
                // resetting mid-handshake, EMFILE until fds free up, …)
                // must not kill the front door: back off exponentially
                // up to a bound and retry. A genuinely dead listener
                // keeps erroring until shutdown, which this survives at
                // the capped cadence instead of a hot spin.
                shared.metrics.accept_failures.inc();
                std::thread::sleep(accept_backoff);
                accept_backoff = (accept_backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// A connection's write half and its frame scratch, locked by the
/// reader for the replies it scores inline and by the writer thread for
/// every other reply.
struct ConnWriter<S> {
    stream: S,
    /// Reused frame scratch: steady-state binary replies don't allocate
    /// for framing.
    scratch: Vec<u8>,
    /// The rest of an inline reply the socket did not take at once. It
    /// goes out before anything else, on the writer thread.
    tail: Vec<u8>,
}

impl<S: Transport> ConnWriter<S> {
    fn encode(&mut self, resp: &Response, proto: WireProtocol) -> std::io::Result<()> {
        match proto {
            WireProtocol::Binary => encode_binary_frame(resp, &mut self.scratch),
            WireProtocol::Json => encode_json_frame(resp, &mut self.scratch)?,
        }
        Ok(())
    }

    /// The writer thread: the tail first, then `msg`'s reply, blocking
    /// until the socket takes them.
    fn write(&mut self, msg: WriterMsg) -> std::io::Result<()> {
        if !self.tail.is_empty() {
            self.stream.write_all(&self.tail)?;
            self.tail.clear();
        }
        if let Some((resp, proto)) = msg {
            self.encode(&resp, proto)?;
            self.stream.write_all(&self.scratch)?;
        }
        Ok(())
    }

    /// The connection thread, with no tail pending: write `resp`
    /// without blocking. Returns `true` when the socket did not take the
    /// whole frame and the writer thread must be woken for the tail.
    fn write_nowait(&mut self, resp: &Response, proto: WireProtocol) -> bool {
        if self.encode(resp, proto).is_err() {
            return false;
        }
        // An error (a dead client) leaves the whole frame to the writer
        // thread, whose blocking write reports it and ends the thread.
        let sent = self.stream.write_nowait(&self.scratch).unwrap_or(0);
        self.tail.extend_from_slice(&self.scratch[sent..]);
        !self.tail.is_empty()
    }
}

/// Per-connection reader: parse frames, validate, score inline or
/// route. It writes its inline replies itself, and only as far as the
/// socket takes them without blocking; a sibling writer thread writes
/// every other reply, under the same lock. The reader never blocks on
/// the socket or on that lock, so it keeps reading while a client that
/// pipelines a burst is not yet reading its replies.
fn connection_loop<S: Transport>(
    stream: S,
    shard_txs: Vec<SyncSender<ShardRequest>>,
    shared: Arc<Shared>,
) {
    stream.tune();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared
            .conn_shutdowns
            .lock()
            .expect("shutdown hook list poisoned")
            .insert(conn_id, Box::new(move || clone.shutdown_both()));
    }
    let out = Arc::new(Mutex::new(ConnWriter {
        stream: write_half,
        scratch: Vec::new(),
        tail: Vec::new(),
    }));
    let (reply_tx, reply_rx) = mpsc::channel();
    let writer = {
        let out = Arc::clone(&out);
        std::thread::Builder::new()
            .name("rlsched-serve-write".to_string())
            .spawn(move || writer_loop(&out, reply_rx))
    };
    let mut reader = BufReader::new(stream);
    // Per-connection frame scratch, reused across frames: the binary
    // payload buffer and the JSON line buffer. (The decoded request's
    // snapshot may move on to a shard, so it is owned per request.)
    let mut payload = Vec::new();
    let mut line = String::new();
    // The format of the last frame that decoded: what a frame too
    // malformed to have a format of its own is answered in.
    let mut proto = WireProtocol::Json;

    while !shared.shutdown.load(Ordering::Acquire) {
        let req: Request = match read_frame_any(&mut reader, &mut payload, &mut line) {
            Ok(Some((r, got))) => {
                proto = got;
                r
            }
            Ok(None) => break, // clean EOF
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Malformed frame: report and resync at the next frame
                // boundary (the next line, or — since a binary frame's
                // declared length is consumed before its payload is
                // judged — the next binary header).
                let message = format!("bad frame: {e}");
                let _ = reply_tx.send(Some((Response::Error { id: 0, message }, proto)));
                continue;
            }
            Err(_) => break,
        };
        // Nothing buffered behind this frame: no batch can form behind
        // it on this connection, so an idle shard may score it here.
        let lone = reader.buffer().is_empty();
        let reply = || Reply {
            tx: reply_tx.clone(),
            proto,
        };
        // Written here when the lock is free and the socket takes it;
        // otherwise the writer thread writes it after what it holds.
        let write_inline = |resp: Response| {
            let msg = match out.try_lock() {
                Ok(mut w) if w.tail.is_empty() => {
                    if !w.write_nowait(&resp, proto) {
                        return;
                    }
                    None
                }
                _ => Some((resp, proto)),
            };
            let _ = reply_tx.send(msg);
        };
        handle_request(req, lone, &shard_txs, &shared, reply, write_inline);
    }
    drop(reply_tx); // writer drains outstanding replies, then exits
    if let Ok(w) = writer {
        let _ = w.join();
    }
    // Release this connection's shutdown hook (and its fd).
    shared
        .conn_shutdowns
        .lock()
        .expect("shutdown hook list poisoned")
        .remove(&conn_id);
}

/// Why a snapshot from outside the program cannot be scored, if it
/// cannot. The encoder divides by `total_procs` and caps `wait` and
/// `time_bound`, so out-of-range inputs would reach the model as NaN or
/// as a queue no simulator could produce — and come back tagged `Model`.
fn snapshot_error(s: &QueueSnapshot) -> Option<String> {
    if s.jobs.is_empty() || s.queue_len() < s.jobs.len() {
        return Some("snapshot needs at least one job and queue_len >= jobs".into());
    }
    let (free, total) = (s.free_procs, s.total_procs);
    if total == 0 || free > total {
        return Some(format!(
            "snapshot needs free_procs <= total_procs > 0, got {free} of {total}"
        ));
    }
    let (i, j) = s.jobs.iter().enumerate().find(|(_, j)| {
        let wait_ok = (0.0..f64::INFINITY).contains(&j.wait);
        !(wait_ok && j.time_bound.is_finite() && j.time_bound > 0.0)
    })?;
    Some(format!(
        "job {i} needs a finite wait >= 0 and time_bound > 0, got {} and {}",
        j.wait, j.time_bound
    ))
}

/// Answer `req`: a lone `Score` frame on an idle shard is scored here
/// and its answer goes to `write_inline`. Every other answer goes
/// through `reply` to the connection's writer thread: stats, scrapes,
/// errors and full-inbox fallbacks from this thread, and a queued
/// frame's answer from its shard thread.
fn handle_request(
    req: Request,
    lone: bool,
    shard_txs: &[SyncSender<ShardRequest>],
    shared: &Shared,
    reply: impl FnOnce() -> Reply,
    write_inline: impl FnOnce(Response),
) {
    let id = req.id();
    let snapshot = match req {
        Request::Stats { .. } => {
            let stats = shared.stats();
            return reply().send(Response::Stats { id, stats });
        }
        Request::Metrics { .. } => {
            rlsched_obs::span!("serve.metrics_scrape");
            let metrics = shared.registry.snapshot();
            return reply().send(Response::Metrics { id, metrics });
        }
        Request::Score { snapshot, .. } => snapshot,
    };
    if let Some(message) = snapshot_error(&snapshot) {
        return reply().send(Response::Error { id, message });
    }
    // The heuristic decision is computed at admission, while the job
    // features are still in hand — a shard that later fails this
    // request answers from this, not from model state.
    let fallback = shared.cfg.fallback.and_then(|kind| {
        select_parts(
            kind,
            snapshot
                .jobs
                .iter()
                .map(|j| (j.wait, j.time_bound, j.procs)),
        )
        .map(|slot| slot as u64)
    });
    let shard = route(id, shard_txs.len());
    let row = Row {
        id,
        snapshot,
        fallback,
        enqueued: Instant::now(),
    };
    if lone && shared.score_inline(shard, &row, write_inline) {
        return;
    }
    let reply = reply();
    match shard_txs[shard].try_send(ShardRequest { row, reply }) {
        Ok(()) => shared.metrics.shards[shard].inbox_depth.add(1.0),
        // Backpressure: answer immediately (heuristic if configured,
        // shed otherwise), drop the work.
        Err(TrySendError::Full(r)) => r.reply.send(shared.fallback_response(shard, &r.row)),
        Err(TrySendError::Disconnected(r)) => r.reply.send(Response::Error {
            id,
            message: "server shutting down".into(),
        }),
    }
}

fn writer_loop<S: Transport>(out: &Mutex<ConnWriter<S>>, rx: Receiver<WriterMsg>) {
    while let Ok(msg) = rx.recv() {
        let written = out.lock().expect("conn writer poisoned").write(msg);
        if written.is_err() {
            break;
        }
    }
}

/// A shard thread: block for a request, take what else is already
/// waiting up to the batch cap, and score the stack through
/// [`Shared::score`] under the shard's core. Returns when every sender
/// is gone and the inbox is drained.
fn shard_loop(shard: usize, rx: Receiver<ShardRequest>, shared: &Shared) {
    let cap = shared.cfg.batch_cap;
    let mut rows: Vec<Row> = Vec::with_capacity(cap);
    let mut replies: Vec<Reply> = Vec::with_capacity(cap);
    // `recv` fails only once every sender is gone and the inbox is empty.
    while let Ok(first) = rx.recv() {
        let mut next = Some(first);
        // Never wait for companions: what is already queued rides along.
        while let Some(r) = next.take().or_else(|| rx.try_recv().ok()) {
            shared.metrics.shards[shard].inbox_depth.add(-1.0);
            // A request whose in-queue deadline already expired is
            // answered through the fallback now rather than riding a
            // slow shard.
            let expired = shared
                .cfg
                .queue_deadline
                .is_some_and(|deadline| r.row.enqueued.elapsed() > deadline);
            if expired {
                shared.metrics.shards[shard].deadlines.inc();
                r.reply.send(shared.fallback_response(shard, &r.row));
            } else {
                rows.push(r.row);
                replies.push(r.reply);
            }
            if rows.len() == cap {
                break;
            }
        }
        if rows.is_empty() {
            continue; // every arrival expired at admission
        }
        let mut core = shared.shards[shard]
            .core
            .lock()
            .expect("shard core poisoned");
        let restart = shared.score(shard, &mut core, &rows, &mut |i, resp| {
            replies[i].send(resp)
        });
        if let Some(after) = restart {
            shared.respawn(shard, &mut core, after);
        }
        drop(core);
        rows.clear();
        replies.clear();
    }
}
