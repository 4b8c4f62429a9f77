//! The front door, shard workers, and their supervisor.
//!
//! ```text
//!                    ┌─ connection threads ─┐      ┌─ shard threads ─────┐
//! TcpListener ──────▶│ read frame           │      │ recv (blocking)     │
//!   (accept loop)    │ validate             │─────▶│ + what is waiting   │
//!                    │ fallback action      │      │ encode, fault hook  │
//!                    │ route: fnv(id)%N ────┼──┐   │ one batched fwd ────┼─ panic? ⇒ supervisor:
//!                    │ full queue? ⇒        │  └──▶│ reply per row       │   fallback-answer the
//!                    │   fallback (or Shed) │      └──────────┬──────────┘   batch, respawn engine
//!                    └──────────┬───────────┘                 │              under restart budget
//!                               ▼                             │
//!                      writer thread (per conn) ◀─────────────┘
//! ```
//!
//! * **Replies** go out in the format their request arrived in: the
//!   format rides with the request to its shard and back to the
//!   connection's writer, so a connection that mixes binary and JSON
//!   frames gets each answer in kind. A frame too malformed to decode
//!   is answered in the format of the last frame that did decode (JSON
//!   before any has).
//! * **Routing** is deterministic: FNV-1a of the request id modulo the
//!   shard count, so a given id always lands on the same shard (and a
//!   client can pin itself to a shard by fixing its id stream).
//! * **Supervision**: each shard's scoring loop runs under
//!   `catch_unwind`. A panic never loses a request — the in-flight
//!   batch's reply handles live outside the unwind boundary and are
//!   answered by the heuristic fallback — and the worker respawns with
//!   a fresh [`ShardEngine`] built from the current snapshot, under a
//!   bounded restart budget with deterministic exponential backoff.
//!   Exhausting the budget parks the shard in `Failed`, where it blocks
//!   on its inbox and answers through the fallback until a validated
//!   weight swap (a new generation) is committed; the first request
//!   after the commit revives it and is scored on the fresh engine.
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
//! * **Batching without a timer**: a shard blocks for its first
//!   request, takes whatever else is already waiting in its inbox (up
//!   to the batch cap), and scores the whole stack through one forward.
//!   It never sleeps for companions: a lone request costs one `rows = 1`
//!   forward, and a backlog behind a slow forward is the next batch.
//! * **Shutdown**: [`ServerHandle::shutdown`] flips a flag, the accept
//!   loop notices it, parked connection readers are unblocked by
//!   shutting their streams down, shards drain and exit when every
//!   sender is gone, and all threads are joined before the call
//!   returns.

use std::io::{BufReader, BufWriter};
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
    /// Max rows per batch: a shard scores at most this many of the
    /// requests already waiting in its inbox through one forward.
    pub batch_cap: usize,
    /// Bounded per-shard inbox depth; arrivals beyond it take the
    /// fallback arm (or are shed when no fallback is configured).
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
    /// In-queue age past which a request is answered by the fallback
    /// instead of waiting on a slow shard. `None` disables the check.
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

/// Where one request's answer goes: its connection's writer, in the
/// format the request arrived in.
struct Reply {
    tx: Sender<(Response, WireProtocol)>,
    proto: WireProtocol,
}

impl Reply {
    /// Queue `resp` for the writer. A dead client's writer is gone;
    /// dropping the reply is fine.
    fn send(&self, resp: Response) {
        let _ = self.tx.send((resp, self.proto));
    }
}

/// One validated request in flight to a shard, which encodes its
/// snapshot straight into the batch.
struct ShardRequest {
    id: u64,
    snapshot: QueueSnapshot,
    /// The heuristic decision for this request, precomputed at
    /// admission so a down shard can answer without model state.
    fallback: Option<u64>,
    enqueued: Instant,
    reply: Reply,
}

/// Reply metadata for one row in a shard's current batch. Lives
/// *outside* the unwind boundary: a panicked forward loses the row
/// data, never the means to answer it.
struct PendingRow {
    id: u64,
    enqueued: Instant,
    fallback: Option<u64>,
    reply: Reply,
}

/// Lock-free per-shard lifecycle state published to [`ServeStats`]
/// (the counters live in the metrics registry).
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

/// One shard's registry handles, wired once at spawn. Supervisor
/// respawns re-clone these (same storage), so every counter is
/// monotone across panic/respawn — the property the chaos suite pins.
#[derive(Clone)]
struct ShardMetrics {
    served: Counter,
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

    fn engine_metrics(&self) -> EngineMetrics {
        EngineMetrics {
            rows: self.served.clone(),
            batches: self.batches.clone(),
            batch_rows: self.batch_rows.clone(),
            batch_max: self.batch_max.clone(),
        }
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

/// Shutdown flag, the metrics registry and its wired handles, per-shard
/// lifecycle state, and connection bookkeeping — shared by all threads.
struct Shared {
    shutdown: AtomicBool,
    /// Every counter/gauge/histogram the tier records, scrapeable as
    /// one consistent snapshot via [`Request::Metrics`].
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    shard_health: Vec<ShardHealthCell>,
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
        for (sm, health) in self.metrics.shards.iter().zip(&self.shard_health) {
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
                state: health.state(),
                restarts,
                panics: sm.panics.get(),
            });
        }
        stats.p50_us = hist.quantile_ns(0.5) as f64 / 1e3;
        stats.p99_us = hist.quantile_ns(0.99) as f64 / 1e3;
        stats.max_us = hist.max_ns as f64 / 1e3;
        stats
    }

    /// Answer one request through the fallback arm (or shed it when the
    /// server has no fallback configured), updating the right counters.
    fn resolve_fallback(&self, shard: usize, id: u64, fallback: Option<u64>, reply: &Reply) {
        match fallback {
            Some(action) => {
                self.metrics.shards[shard].fallbacks.inc();
                reply.send(Response::Action {
                    id,
                    action,
                    shard: shard as u64,
                    served_by: ServedBy::Fallback,
                });
            }
            None => {
                self.metrics.shards[shard].shed.inc();
                reply.send(Response::Shed { id });
            }
        }
    }

    /// One request left shard `shard`'s inbox (scored, expired, or
    /// drained by a failed shard's fallback loop).
    fn inbox_pop(&self, shard: usize) {
        self.metrics.shards[shard].inbox_depth.add(-1.0);
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
    {
        let slot = ScorerSlot::new(scorer.clone());
        // Each server owns its registry: tests spawning several servers
        // in one process see isolated counters, and a scrape of this
        // front door reports exactly this tier.
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::register(&registry, cfg.shards);
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            registry,
            metrics,
            shard_health: (0..cfg.shards).map(|_| ShardHealthCell::new()).collect(),
            conns: Mutex::new(Vec::new()),
            conn_shutdowns: Mutex::new(std::collections::HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let mut shard_txs = Vec::with_capacity(cfg.shards);
        let mut shard_threads = Vec::with_capacity(cfg.shards);
        for shard_id in 0..cfg.shards {
            let (tx, rx) = mpsc::sync_channel::<ShardRequest>(cfg.queue_depth);
            let slot = Arc::clone(&slot);
            let shared = Arc::clone(&shared);
            let sup = Supervision {
                encoder,
                cap: cfg.batch_cap,
                restart_budget: cfg.restart_budget,
                backoff: cfg.restart_backoff,
                backoff_cap: cfg.restart_backoff_cap,
                queue_deadline: cfg.queue_deadline,
                faults: cfg.faults.clone(),
            };
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("rlsched-serve-shard-{shard_id}"))
                    .spawn(move || shard_supervisor(shard_id, rx, slot, shared, sup))?,
            );
            shard_txs.push(tx);
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let shard_txs = shard_txs.clone();
            let fallback = cfg.fallback;
            std::thread::Builder::new()
                .name("rlsched-serve-accept".to_string())
                .spawn(move || accept_loop(listener, fallback, shard_txs, shared))?
        };

        Ok(ServerHandle {
            bound,
            slot,
            shared,
            obs_dim: encoder.obs_dim(),
            n_actions: encoder.n_actions(),
            eval_baseline: Mutex::new(None),
            eval_tolerance: cfg.eval_tolerance,
            accept: Some(accept),
            shard_threads,
            _shard_txs: shard_txs,
        })
    }
}

/// A running server: address, stats, checkpoint lifecycle, shutdown.
pub struct ServerHandle {
    bound: ServerAddr,
    slot: Arc<ScorerSlot>,
    shared: Arc<Shared>,
    obs_dim: usize,
    n_actions: usize,
    eval_baseline: Mutex<Option<f64>>,
    eval_tolerance: f64,
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
        self.slot.swap(scorer);
        self.shared.metrics.swaps.inc();
        Ok(self.slot.generation())
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
        self.slot.swap(scorer);
        self.shared.metrics.swaps.inc();
    }

    /// Restore the snapshot displaced by the last committed swap and
    /// bump the generation. Returns `false` when no previous generation
    /// is retained (never swapped, or already rolled back).
    pub fn rollback_scorer(&self) -> bool {
        let rolled = self.slot.rollback();
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
        let threshold = base + base.abs() * self.eval_tolerance;
        if metric.is_finite() && metric <= threshold {
            *baseline = Some(metric);
            return false;
        }
        if self.slot.rollback() {
            self.shared.metrics.rollbacks.inc();
        }
        true
    }

    /// Current weight generation (bumps on every commit and rollback).
    pub fn generation(&self) -> u64 {
        self.slot.generation()
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
    fallback: Option<HeuristicKind>,
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
                    .spawn(move || connection_loop(stream, fallback, shard_txs, shared_c));
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

/// Per-connection reader: parse frames, validate, route. A sibling
/// writer thread owns the response stream so shard replies and
/// front-door replies (shed/error/stats) interleave safely.
fn connection_loop<S: Transport>(
    stream: S,
    fallback: Option<HeuristicKind>,
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
    let (reply_tx, reply_rx) = mpsc::channel();
    let writer = std::thread::Builder::new()
        .name("rlsched-serve-write".to_string())
        .spawn(move || writer_loop(write_half, reply_rx));
    let mut reader = BufReader::new(stream);
    // Per-connection frame scratch, reused across frames: the binary
    // payload buffer and the JSON line buffer. (The decoded request's
    // snapshot moves on to a shard, so it is owned per request.)
    let mut payload = Vec::new();
    let mut line = String::new();
    // The format of the last frame that decoded: what a frame too
    // malformed to have a format of its own is answered in.
    let mut proto = WireProtocol::Json;
    let reply = |proto| Reply {
        tx: reply_tx.clone(),
        proto,
    };

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
                reply(proto).send(Response::Error {
                    id: 0,
                    message: format!("bad frame: {e}"),
                });
                continue;
            }
            Err(_) => break,
        };
        handle_request(req, fallback, &shard_txs, &shared, reply(proto));
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

fn handle_request(
    req: Request,
    fallback: Option<HeuristicKind>,
    shard_txs: &[SyncSender<ShardRequest>],
    shared: &Arc<Shared>,
    reply: Reply,
) {
    let id = req.id();
    let snapshot = match req {
        Request::Stats { .. } => {
            reply.send(Response::Stats {
                id,
                stats: shared.stats(),
            });
            return;
        }
        Request::Metrics { .. } => {
            rlsched_obs::span!("serve.metrics_scrape");
            reply.send(Response::Metrics {
                id,
                metrics: shared.registry.snapshot(),
            });
            return;
        }
        Request::Score { snapshot, .. } => snapshot,
    };
    if let Some(message) = snapshot_error(&snapshot) {
        reply.send(Response::Error { id, message });
        return;
    }
    // The heuristic decision is computed at admission, while the job
    // features are still in hand — a shard that later fails this
    // request answers from this, not from model state.
    let fallback_action = fallback.and_then(|kind| {
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
    let req = ShardRequest {
        id,
        snapshot,
        fallback: fallback_action,
        enqueued: Instant::now(),
        reply,
    };
    match shard_txs[shard].try_send(req) {
        Ok(()) => shared.metrics.shards[shard].inbox_depth.add(1.0),
        Err(TrySendError::Full(r)) => {
            // Backpressure: answer immediately (heuristic if configured,
            // shed otherwise), drop the work.
            shared.resolve_fallback(shard, r.id, r.fallback, &r.reply);
        }
        Err(TrySendError::Disconnected(r)) => r.reply.send(Response::Error {
            id,
            message: "server shutting down".into(),
        }),
    }
}

fn writer_loop<S: Transport>(stream: S, rx: Receiver<(Response, WireProtocol)>) {
    use std::io::Write;
    let mut w = BufWriter::new(stream);
    // Reused frame scratch: steady-state binary replies don't allocate
    // for framing.
    let mut scratch = Vec::new();
    let mut write = |resp: &Response, proto| -> std::io::Result<()> {
        match proto {
            WireProtocol::Binary => encode_binary_frame(resp, &mut scratch),
            WireProtocol::Json => encode_json_frame(resp, &mut scratch)?,
        }
        w.write_all(&scratch)?;
        w.flush()
    };
    while let Ok((resp, proto)) = rx.recv() {
        if write(&resp, proto).is_err() {
            break;
        }
    }
}

/// Per-shard parameters: the encoder a shard's rows go through, plus
/// its slice of [`ServeConfig`].
struct Supervision {
    encoder: ObsEncoder,
    cap: usize,
    restart_budget: u32,
    backoff: Duration,
    backoff_cap: Duration,
    queue_deadline: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
}

/// The shard worker's outer loop: run the scoring loop under
/// `catch_unwind`; on a panic, answer the in-flight batch through the
/// fallback, then respawn a fresh engine under the restart budget.
///
/// Budget exhaustion parks the shard in [`ShardState::Failed`]: it
/// blocks on its inbox and answers each arrival through the fallback
/// (nothing queued is ever stranded) until the weight generation
/// changes — a validated swap is the recovery signal. The first arrival
/// after that respawns the engine and is the first row it scores.
fn shard_supervisor(
    shard_id: usize,
    rx: Receiver<ShardRequest>,
    slot: Arc<ScorerSlot>,
    shared: Arc<Shared>,
    sup: Supervision,
) {
    let health = &shared.shard_health[shard_id];
    let mut consecutive: u32 = 0;
    let mut batch_counter: u64 = 0;
    // The arrival that revived a parked shard, carried into the fresh
    // engine's first batch instead of being answered by the fallback.
    let mut carried: Option<ShardRequest> = None;
    loop {
        health.set_state(STATE_HEALTHY);
        // Fresh engine from the *current* snapshot: a panic may have
        // left the old one mid-batch with stacked rows. It records into
        // the same registry handles as its predecessor, so counters
        // stay monotone across respawns.
        let mut engine = ShardEngine::new(Arc::clone(&slot), sup.cap);
        engine.instrument(shared.metrics.shards[shard_id].engine_metrics());
        let mut pending: Vec<PendingRow> = Vec::with_capacity(sup.cap);
        let run = catch_unwind(AssertUnwindSafe(|| {
            shard_loop(
                shard_id,
                &rx,
                carried.take(),
                &mut engine,
                &mut pending,
                &shared,
                &sup,
                &mut batch_counter,
                &mut consecutive,
            )
        }));
        match run {
            // Every sender dropped: clean shutdown.
            Ok(()) => return,
            Err(_) => {
                shared.metrics.shards[shard_id].panics.inc();
                consecutive += 1;
                // Zero lost requests: the panicked batch's reply handles
                // are still here — answer each through the fallback arm.
                for row in pending.drain(..) {
                    shared.resolve_fallback(shard_id, row.id, row.fallback, &row.reply);
                }
                if consecutive > sup.restart_budget {
                    health.set_state(STATE_FAILED);
                    let failed_gen = slot.generation();
                    loop {
                        // Every sender gone and the inbox empty: shutdown.
                        let Ok(r) = rx.recv() else { return };
                        if slot.generation() != failed_gen {
                            carried = Some(r); // validated swap: revive on this request
                            break;
                        }
                        shared.inbox_pop(shard_id);
                        shared.resolve_fallback(shard_id, r.id, r.fallback, &r.reply);
                    }
                    consecutive = 0;
                } else {
                    health.set_state(STATE_RESTARTING);
                    // Deterministic exponential backoff: base << (n-1),
                    // capped. No jitter — shards don't share a herd, and
                    // reproducibility is worth more here.
                    let shift = (consecutive - 1).min(16);
                    let backoff = sup
                        .backoff
                        .saturating_mul(1u32 << shift)
                        .min(sup.backoff_cap);
                    std::thread::sleep(backoff);
                }
                shared.metrics.shards[shard_id].restarts.inc();
            }
        }
    }
}

/// One shard's scoring loop: block for a request (the `carried` one
/// first, if any), take what else is already waiting up to `cap` rows,
/// score the stack in one forward, reply per row, repeat. Returns when
/// every sender is gone and the queue is drained; panics propagate to
/// the supervisor.
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    shard_id: usize,
    rx: &Receiver<ShardRequest>,
    mut carried: Option<ShardRequest>,
    engine: &mut ShardEngine,
    pending: &mut Vec<PendingRow>,
    shared: &Shared,
    sup: &Supervision,
    batch_counter: &mut u64,
    consecutive: &mut u32,
) {
    // Admit one request into the current batch — unless its in-queue
    // deadline already expired, in which case it is answered through
    // the fallback right now rather than riding a slow shard.
    let admit = |engine: &mut ShardEngine, pending: &mut Vec<PendingRow>, r: ShardRequest| {
        shared.inbox_pop(shard_id);
        if let Some(deadline) = sup.queue_deadline {
            if r.enqueued.elapsed() > deadline {
                shared.metrics.shards[shard_id].deadlines.inc();
                shared.resolve_fallback(shard_id, r.id, r.fallback, &r.reply);
                return;
            }
        }
        engine.push_snapshot(&r.snapshot, &sup.encoder);
        pending.push(PendingRow {
            id: r.id,
            enqueued: r.enqueued,
            fallback: r.fallback,
            reply: r.reply,
        });
    };
    // `recv` fails only once every sender is gone and the inbox is empty.
    while let Some(first) = carried.take().or_else(|| rx.recv().ok()) {
        admit(engine, pending, first);
        // Never wait for companions: what is already queued rides along.
        while !engine.is_full() {
            let Ok(r) = rx.try_recv() else { break };
            admit(engine, pending, r);
        }
        if pending.is_empty() {
            continue; // every arrival expired at admission
        }
        let batch = *batch_counter;
        *batch_counter += 1;
        if let Some(faults) = &sup.faults {
            // May panic (→ supervisor) or stall (→ queued requests age
            // past their deadline) exactly as scripted.
            faults.before_score(shard_id, batch);
        }
        rlsched_obs::span!("serve.batch");
        // The engine's instrumentation records batches/rows/batch-size;
        // the shard records per-row latency (lock-free striped
        // histogram — the old version serialized shards on a mutex).
        let actions = engine.flush();
        let latency = &shared.metrics.shards[shard_id].latency;
        for row in pending.iter() {
            latency.record(row.enqueued.elapsed());
        }
        for (&action, row) in actions.iter().zip(pending.drain(..)) {
            row.reply.send(Response::Action {
                id: row.id,
                action: action as u64,
                shard: shard_id as u64,
                served_by: ServedBy::Model,
            });
        }
        // A full batch made it through the forward: the worker is
        // healthy again, whatever its panic history.
        *consecutive = 0;
    }
}
