//! The front door, the connection threads, the shard cores they share,
//! and the drainer.
//!
//! ```text
//!                  ┌─ connection threads ─────────┐
//! TcpListener ────▶│ read frames, validate        │
//!  (accept loop)   │ run: the Score rows read     │
//!                  │ back to back, ≤ batch_cap,   │   no frame buffered behind
//!                  │ split by route fnv(id)%N     │   the run: each idle shard
//!                  │ ─────────────────────────────┼──────────────┐
//!                  │ else push to the inbox (full │              ▼
//!                  │ ⇒ fallback), offer: try_lock ┼─▶ ┌─ shard core (Mutex) ───┐
//!                  │ inline replies: never block  │   │ score(batch): encode,  │
//!                  └──────────┬───────────────────┘   │ fault hook, forward    │
//!                             │ bounded inbox, its    │ under catch_unwind;    │
//!                             └─ receiver in the core▶│ panic ⇒ fallback,      │
//!                    offer: one batch from the inbox; │ backoff, respawn, park │
//!                    release: unlock; rows left ⇒     └────────────────────────┘
//!                    wake the drainer (one per tier) ─▶ a batch per inbox/pass
//!                  writer thread (per conn): every reply not written inline
//! ```
//!
//! * **One scoring routine, no shard threads**: a connection thread
//!   decodes on while frames are buffered behind the one it just read,
//!   collecting `Score` rows into a *run* of at most
//!   [`ServeConfig::batch_cap`]. When nothing is buffered behind the run,
//!   each idle shard (empty inbox,
//!   free core) scores its rows of the run right there, and the thread
//!   writes their replies. Every other row is pushed to its shard's
//!   bounded inbox: a busy shard's, a run that reached the cap with bytes
//!   behind it, a run a `Stats` or `Metrics` frame cut. The pusher then
//!   *offers*: it takes each core it pushed to if it is free and scores
//!   one batch from that inbox (an expired row answered by the fallback,
//!   each reply sent to its connection's writer). It offers after its
//!   first push since it last read its socket and again before its next
//!   read, so a flood is read at the socket's pace into full batches. A
//!   connection thread *releases* a core it holds — after an offer's
//!   batch or its own rows inline — by unlocking it and waking the tier's
//!   drainer if rows are still waiting. The drainer takes a batch from
//!   each inbox that holds rows, round robin, until none it can take
//!   does. So a connection thread scores at most one batch of queued rows
//!   per offer. Every batch runs the same `score`: supervision, the fault
//!   hook and the counters treat all alike.
//! * **No row is stranded in an inbox**: a push adds 1 to the shard's
//!   `rlsched_serve_inbox_depth` gauge, then sends; an offer is a
//!   `SeqCst` fence, then `try_lock`. A release is the unlock, a `SeqCst`
//!   fence, a read of the gauge and a wake-up if it is not 0 (the drainer
//!   passes again instead). A failed `try_lock` synchronizes with
//!   nothing, so the argument rests on the two fences, which fall in one
//!   total order. If the offer's comes first, the release's read sees the
//!   increment (the gauge drops only as a row is taken out or a refused
//!   push is undone), so the wake-up comes. If the release's comes first,
//!   the offer's `try_lock` sees the unlock, or a later lock whose holder
//!   releases after the offer's fence. One pending wake-up stands for
//!   any number; a pass that finds nothing it counted (a push between its
//!   increment and its send) yields and passes again.
//! * **Replies**: a connection thread writes its inline replies as far
//!   as the socket takes them without blocking; its writer thread writes
//!   every other reply and the rest, all it finds waiting in one write.
//!   No scoring thread waits on a client's socket, so a client that
//!   pipelines a burst before it reads is read to the end. A damaged
//!   frame behind a valid header is answered with an `Error { id: 0 }`
//!   and the thread reads on; a stream whose next byte is not a frame
//!   header has no boundary to resync to, so it gets one such error and
//!   the connection closes. Routing is FNV-1a of the request id modulo
//!   the shard count.
//! * **Supervision** lives in each shard's core: a batch runs under
//!   `catch_unwind`, a panic's rows are answered by the fallback, and the
//!   thread that ran it respawns a fresh [`ShardEngine`] after a bounded,
//!   deterministic exponential backoff, core held, answers out. Past the
//!   restart budget the shard parks in `Failed` and answers by fallback
//!   until a validated swap; the first batch after it revives the shard.
//!   A full inbox, an expired in-queue deadline or a down shard answers
//!   with [`ServeConfig::fallback`]'s pick over the request's snapshot,
//!   tagged `served_by: Fallback` ([`Response::Shed`] without one).
//!   [`ServerHandle::propose_scorer`] gates a weight install behind an
//!   all-finite walk and a [`CanaryBatch`] probe, and
//!   [`ServerHandle::record_eval`] rolls back a regressing generation.
//! * **Batching without a timer**: a batch from an inbox is whatever is
//!   waiting there, up to the cap; nothing sleeps for companions.
//! * **Shutdown**: [`ServerHandle::shutdown`] stops the accept loop,
//!   shuts the connections' streams down to unblock their readers, and
//!   joins each connection thread once its writer has written every reply
//!   it owes, queued rows included. No inbox then holds a row, so there
//!   is no drain step; the drainer is told to stop and joined.

use std::cell::{Cell, RefCell};
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlsched_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use rlsched_sched::{select_parts, HeuristicKind};
use rlscheduler::{CanaryBatch, CanaryError, ObsEncoder, QueueSnapshot, ScorerSnapshot};

use crate::client::ServeClient;
use crate::engine::{EngineMetrics, ScorerSlot, ShardEngine};
use crate::faults::FaultPlan;
use crate::protocol::{
    encode_binary_frame, read_frame, Request, Response, ServeStats, ServedBy, ShardHealth,
    ShardState, BINARY_MAGIC,
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
    /// Max rows per batch, from an inbox or in one run of pipelined
    /// `Score` rows a connection thread collects before it queues them.
    pub batch_cap: usize,
    /// Bounded per-shard inbox depth for queued rows; arrivals beyond it
    /// take the fallback arm (or are shed when no fallback is configured).
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
    /// fallback instead of waiting on a slow shard. `None` disables the
    /// check.
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
/// `None` to write the rest of an inline send that the socket did not
/// take at once.
type WriterMsg = Option<Response>;

/// Hand `resp` to a connection's writer thread. A dead client's writer is
/// gone; dropping the reply is fine.
fn send_reply(tx: &Sender<WriterMsg>, resp: Response) {
    let _ = tx.send(Some(resp));
}

/// One validated `Score` request: what a shard needs to score it, or to
/// answer it through the fallback, whichever thread runs its batch.
struct Row {
    id: u64,
    snapshot: QueueSnapshot,
    enqueued: Instant,
    /// The way back to its connection's writer thread, once queued.
    reply: Option<Sender<WriterMsg>>,
}

/// A shard's lifecycle state (`Shard::state`), published to [`ServeStats`].
const STATE_HEALTHY: u8 = 0;
const STATE_RESTARTING: u8 = 1;
const STATE_FAILED: u8 = 2;

/// One shard's registry handles, wired once at spawn. Each respawned
/// engine re-clones these (same storage), so every counter is monotone
/// across panic/respawn — the property the chaos suite pins.
#[derive(Clone)]
struct ShardMetrics {
    served: Counter,
    /// Rows scored on the connection thread that read them.
    inline: Counter,
    /// Rows the drainer took from the inbox.
    drained: Counter,
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
            drained: reg.counter("rlsched_serve_drained_total", l),
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

/// One shard's engine, supervision state and inbox receiver, locked by
/// whichever thread scores a batch on the shard.
struct ShardCore {
    engine: ShardEngine,
    /// Panicked batches since the last one that scored.
    consecutive: u32,
    /// Lifetime attempted batches, the key [`FaultPlan`] scripts by.
    batches: u64,
    /// The weight generation the shard parked in `Failed` at.
    failed_at: Option<u64>,
    inbox: Receiver<Row>,
    /// Reused: one batch taken from the inbox.
    rows: Vec<Row>,
}

/// One shard: its core, its inbox and its lifecycle state (`STATE_*`).
struct Shard {
    core: Mutex<ShardCore>,
    inbox: SyncSender<Row>,
    state: AtomicU8,
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
    /// Wakes the drainer (`false`) or stops it (`true`).
    wake_drainer: SyncSender<bool>,
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
    fn hooks(&self) -> MutexGuard<'_, std::collections::HashMap<u64, Box<dyn Fn() + Send>>> {
        self.conn_shutdowns
            .lock()
            .expect("shutdown hook list poisoned")
    }

    /// Assemble [`ServeStats`] as a *consistent* registry view: every
    /// per-shard counter is read exactly once, and the aggregate totals
    /// are sums over those same reads — so a scrape racing a shard
    /// respawn can never report a total that disagrees with its
    /// per-shard parts (the torn-totals gap the ad-hoc counters had).
    fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            swaps: self.metrics.swaps.get(),
            rollbacks: self.metrics.rollbacks.get(),
            accept_failures: self.metrics.accept_failures.get(),
            shards: Vec::with_capacity(self.metrics.shards.len()),
            ..ServeStats::default()
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
                state: match shard.state.load(Ordering::Acquire) {
                    STATE_RESTARTING => ShardState::Restarting,
                    STATE_FAILED => ShardState::Failed,
                    _ => ShardState::Healthy,
                },
                restarts,
                panics: sm.panics.get(),
            });
        }
        stats.p50_us = hist.quantile_ns(0.5) as f64 / 1e3;
        stats.p99_us = hist.quantile_ns(0.99) as f64 / 1e3;
        stats.max_us = hist.max_ns as f64 / 1e3;
        stats
    }

    /// The answer for a row the model does not score: the configured
    /// heuristic's pick over its snapshot, or a shed when the server has
    /// no fallback configured. Counts it.
    fn fallback_response(&self, shard: usize, row: &Row) -> Response {
        let jobs = row.snapshot.jobs.iter();
        let parts = jobs.map(|j| (j.wait, j.time_bound, j.procs));
        match self.cfg.fallback.and_then(|kind| select_parts(kind, parts)) {
            Some(slot) => {
                self.metrics.shards[shard].fallbacks.inc();
                Response::Action {
                    id: row.id,
                    action: slot as u64,
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
        self.shards[shard]
            .state
            .store(STATE_HEALTHY, Ordering::Release);
    }

    /// The one scoring routine, run with shard `shard`'s core locked by a
    /// connection thread over its rows of a run, or by any thread over a
    /// batch taken from the inbox. Calls `answer(i, response)` once per row of
    /// `rows`, in row order, as soon as that row's answer exists.
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
                let state = &self.shards[shard].state;
                if core.consecutive > self.cfg.restart_budget {
                    state.store(STATE_FAILED, Ordering::Release);
                    core.failed_at = Some(self.slot.generation());
                    return None;
                }
                state.store(STATE_RESTARTING, Ordering::Release);
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

    /// How a connection thread lets go of `shard`'s core: the unlock, and
    /// a wake-up for the drainer if rows are still waiting.
    fn release(&self, shard: usize, core: MutexGuard<'_, ShardCore>) {
        drop(core);
        fence(Ordering::SeqCst);
        if self.metrics.shards[shard].inbox_depth.get() > 0.0 {
            let _ = self.wake_drainer.try_send(false);
        }
    }

    /// Take one batch from `shard`'s inbox: what is waiting, up to
    /// `batch_cap` rows, scored through [`Shared::score`], a row past its
    /// in-queue deadline answered by the fallback. Returns the rows taken.
    fn take_batch(&self, shard: usize, core: &mut ShardCore) -> usize {
        let m = &self.metrics.shards[shard];
        let mut rows = std::mem::take(&mut core.rows);
        let reply = |row: &Row, resp| send_reply(row.reply.as_ref().unwrap(), resp);
        let mut took = 0;
        while rows.len() < self.cfg.batch_cap {
            let Ok(row) = core.inbox.try_recv() else {
                break;
            };
            took += 1;
            m.inbox_depth.add(-1.0);
            if (self.cfg.queue_deadline).is_some_and(|d| row.enqueued.elapsed() > d) {
                m.deadlines.inc();
                reply(&row, self.fallback_response(shard, &row));
            } else {
                rows.push(row);
            }
        }
        if !rows.is_empty() {
            let restart = self.score(shard, core, &rows, &mut |i, resp| reply(&rows[i], resp));
            if let Some(after) = restart {
                self.respawn(shard, core, after);
            }
            rows.clear();
        }
        core.rows = rows;
        took
    }
}

/// The tier's drainer. On each wake-up it takes a batch from each inbox
/// that holds rows, round robin, until none it can take holds any: a core
/// another thread holds is skipped, and that thread wakes it again when
/// it lets go. Returns when told to stop (`true`).
fn drain_loop(shared: &Shared, wake: Receiver<bool>) {
    while let Ok(false) = wake.recv() {
        let mut again = true;
        while std::mem::take(&mut again) {
            for (shard, s) in shared.shards.iter().enumerate() {
                let waiting = shared.metrics.shards[shard].inbox_depth.get() > 0.0;
                let Some(mut core) = waiting.then(|| s.core.try_lock().ok()).flatten() else {
                    continue;
                };
                let took = shared.take_batch(shard, &mut core);
                drop(core);
                shared.metrics.shards[shard].drained.add(took as u64);
                fence(Ordering::SeqCst);
                if took == 0 {
                    std::thread::yield_now(); // a push between its count and its send
                }
                again = true;
            }
        }
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
    /// Start listening and spawn the drainer. Returns once the socket is
    /// bound (the address is immediately connectable).
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
pub(crate) fn finish_spawn<L: Listen>(
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
        .map(|m| {
            let (inbox, rx) = mpsc::sync_channel(cfg.queue_depth);
            Shard {
                core: Mutex::new(ShardCore {
                    engine: m.engine(&slot, cfg.batch_cap),
                    consecutive: 0,
                    batches: 0,
                    failed_at: None,
                    inbox: rx,
                    rows: Vec::new(),
                }),
                inbox,
                state: AtomicU8::new(STATE_HEALTHY),
            }
        })
        .collect();
    let (wake_drainer, wake) = mpsc::sync_channel(1);
    let shared = Arc::new(Shared {
        wake_drainer,
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

    let drainer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rlsched-serve-drain".to_string())
            .spawn(move || drain_loop(&shared, wake))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rlsched-serve-accept".to_string())
            .spawn(move || accept_loop(listener, shared))?
    };

    Ok(ServerHandle {
        bound,
        shared,
        obs_dim: encoder.obs_dim(),
        n_actions: encoder.n_actions(),
        eval_baseline: Mutex::new(None),
        accept: Some(accept),
        drainer: Some(drainer),
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
    drainer: Option<JoinHandle<()>>,
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

    /// Stop accepting, answer what every connection has read, join every
    /// thread. Returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock readers parked on idle connections; joined readers'
        // stream clones just error harmlessly.
        self.shared.hooks().values().for_each(|hook| hook());
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn list poisoned"));
        for c in conns {
            let _ = c.join();
        }
        // Every row a connection queued is answered: stop the drainer.
        let _ = self.shared.wake_drainer.send(true);
        if let Some(h) = self.drainer.take() {
            let _ = h.join();
        }
        // A Unix socket outlives its listener as a filesystem entry;
        // remove it so the path can be rebound.
        if let ServerAddr::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
        self.shared.stats()
    }
}

fn accept_loop<L: Listen>(listener: L, shared: Arc<Shared>) {
    let base_backoff = Duration::from_millis(2);
    let mut accept_backoff = base_backoff;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept_stream() {
            Ok(stream) => {
                accept_backoff = base_backoff;
                let shared_c = Arc::clone(&shared);
                let conn = std::thread::Builder::new()
                    .name("rlsched-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, shared_c));
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
    /// Encoded replies not yet written: the rest of an inline send the
    /// socket did not take at once, which goes out before anything else,
    /// on the writer thread.
    tail: Vec<u8>,
}

impl<S: Transport> ConnWriter<S> {
    /// Append `resp`'s frame to the tail.
    fn push(&mut self, resp: &Response) {
        encode_binary_frame(resp, &mut self.scratch);
        self.tail.extend_from_slice(&self.scratch);
    }

    /// The writer thread: the tail, then every reply of `msgs`, in one
    /// write that blocks until the socket takes it.
    fn write(&mut self, msgs: impl Iterator<Item = WriterMsg>) -> std::io::Result<()> {
        for resp in msgs.flatten() {
            self.push(&resp);
        }
        self.stream.write_all(&self.tail)?;
        self.tail.clear();
        Ok(())
    }

    /// The connection thread, with no tail pending: write `answers` in
    /// one send that never blocks. Returns `true` when the socket did not
    /// take them all and the writer thread must be woken for the tail.
    fn write_nowait(&mut self, answers: impl Iterator<Item = Response>) -> bool {
        for resp in answers {
            self.push(&resp);
        }
        // An error (a dead client) leaves every frame to the writer
        // thread, whose blocking write reports it and ends the thread.
        let sent = self.stream.write_nowait(&self.tail).unwrap_or(0);
        self.tail.drain(..sent);
        !self.tail.is_empty()
    }
}

/// Where a connection thread's answers go: its shards' inboxes, its
/// writer thread, or the write half itself.
struct ConnOut<S> {
    shared: Arc<Shared>,
    writer: Arc<Mutex<ConnWriter<S>>>,
    tx: Sender<WriterMsg>,
    /// The shards this thread pushed rows to and has not yet offered to
    /// take the cores of.
    pushed: RefCell<Vec<usize>>,
    /// Whether it has offered since it last read its socket.
    offered: Cell<bool>,
}

impl<S: Transport> ConnOut<S> {
    /// Answer a decoded frame. A valid `Score` joins `run`. A `Stats` or
    /// `Metrics` frame first queues the run, so what it reports counts
    /// those rows, and is answered through the writer thread, as is a
    /// snapshot that cannot be scored.
    fn admit(&self, req: Request, run: &mut Run) {
        let id = req.id();
        let snapshot = match req {
            Request::Stats { .. } => {
                run.flush(self, false);
                let stats = self.shared.stats();
                return send_reply(&self.tx, Response::Stats { id, stats });
            }
            Request::Metrics { .. } => {
                run.flush(self, false);
                let metrics = self.shared.registry.snapshot();
                return send_reply(&self.tx, Response::Metrics { id, metrics });
            }
            Request::Score { snapshot, .. } => snapshot,
        };
        if let Some(message) = snapshot_error(&snapshot) {
            return send_reply(&self.tx, Response::Error { id, message });
        }
        let row = Row {
            id,
            snapshot,
            enqueued: Instant::now(),
            reply: None,
        };
        run.push(route(id, self.shared.shards.len()), row);
    }

    /// Push `row` to `shard`'s inbox, for whichever thread next holds the
    /// core ([`ConnOut::offer_pushed`] tries this one). A full inbox
    /// answers it at once (heuristic if configured, shed otherwise).
    fn queue(&self, shard: usize, mut row: Row) {
        let depth = &self.shared.metrics.shards[shard].inbox_depth;
        depth.add(1.0); // before the send: see the module docs
        row.reply = Some(self.tx.clone());
        // The receiver lives in the core, as long as `shared`: a send is
        // refused only by a full inbox.
        if let Err(TrySendError::Full(row) | TrySendError::Disconnected(row)) =
            self.shared.shards[shard].inbox.try_send(row)
        {
            depth.add(-1.0);
            let resp = self.shared.fallback_response(shard, &row);
            send_reply(&self.tx, resp);
        }
    }

    /// Offer: take the core of every shard this thread has pushed rows to
    /// since it last did, if it is free, score one batch from its inbox,
    /// and release it. A core another thread holds is released by that
    /// thread, which sees the rows.
    fn offer_pushed(&self) {
        fence(Ordering::SeqCst);
        for shard in self.pushed.borrow_mut().drain(..) {
            if let Ok(mut core) = self.shared.shards[shard].core.try_lock() {
                self.shared.take_batch(shard, &mut core);
                self.shared.release(shard, core);
            }
        }
    }

    /// Write answers scored on this thread: here, in one send that never
    /// blocks, when the write half is free and no earlier tail is
    /// pending; otherwise the writer thread writes them after what it
    /// holds.
    fn write_inline(&self, answers: impl Iterator<Item = Response>) {
        match self.writer.try_lock() {
            Ok(mut w) if w.tail.is_empty() => {
                if w.write_nowait(answers) {
                    let _ = self.tx.send(None);
                }
            }
            _ => answers.for_each(|resp| send_reply(&self.tx, resp)),
        }
    }
}

/// The valid `Score` rows a connection thread has read back to back and
/// not yet scored or queued, split by the shard their ids route to, each
/// shard's in arrival order.
struct Run {
    shards: Vec<Vec<Row>>,
    len: usize,
    /// Reused: one inline sub-run's answers, in row order.
    answers: Vec<Response>,
}

impl Run {
    fn new(shards: usize) -> Self {
        Run {
            shards: (0..shards).map(|_| Vec::new()).collect(),
            len: 0,
            answers: Vec::new(),
        }
    }

    fn push(&mut self, shard: usize, row: Row) {
        self.shards[shard].push(row);
        self.len += 1;
    }

    /// Score or queue every row of the run. With `inline` (no frame is
    /// buffered behind the run's last frame) each shard whose inbox is
    /// empty and whose core is free scores its rows here, through one
    /// [`Shared::score`], and their answers go out at once; every other
    /// row is pushed, and this thread offers ([`ConnOut::offer_pushed`])
    /// unless it has since it last read its socket. A core it holds is
    /// released ([`Shared::release`]) after a panicked shard's backoff,
    /// slept once every answer of the run is out.
    fn flush<S: Transport>(&mut self, out: &ConnOut<S>, inline: bool) {
        if self.len == 0 {
            return;
        }
        self.len = 0;
        let shared = &*out.shared;
        let mut restarts = Vec::new();
        for (shard, rows) in self.shards.iter_mut().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let m = &shared.metrics.shards[shard];
            let idle = inline && m.inbox_depth.get() <= 0.0;
            let core = if idle {
                shared.shards[shard].core.try_lock().ok()
            } else {
                None
            };
            let Some(mut core) = core else {
                for row in rows.drain(..) {
                    out.queue(shard, row);
                }
                let mut pushed = out.pushed.borrow_mut();
                if !pushed.contains(&shard) {
                    pushed.push(shard);
                }
                continue;
            };
            let answers = &mut self.answers;
            let restart = shared.score(shard, &mut core, rows, &mut |_, resp| answers.push(resp));
            let model = answers.iter().filter(|resp| {
                matches!(
                    resp,
                    Response::Action {
                        served_by: ServedBy::Model,
                        ..
                    }
                )
            });
            m.inline.add(model.count() as u64);
            rows.clear();
            out.write_inline(answers.drain(..));
            match restart {
                Some(after) => restarts.push((shard, core, after)),
                None => shared.release(shard, core),
            }
        }
        for (shard, mut core, after) in restarts {
            shared.respawn(shard, &mut core, after);
            shared.release(shard, core);
        }
        if !out.pushed.borrow().is_empty() && !out.offered.replace(true) {
            out.offer_pushed();
        }
    }
}

/// A connection's read half: before each read from the socket, which may
/// block, its thread offers, so no row it pushed waits on its client.
struct ReadHalf<S> {
    stream: S,
    out: Rc<ConnOut<S>>,
}

impl<S: Transport> Read for ReadHalf<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.out.offer_pushed();
        self.out.offered.set(false);
        self.stream.read(buf)
    }
}

/// Per-connection reader: parse frames, validate, collect runs, score
/// them inline or queue them and offer. It writes its inline replies
/// itself, only as far as the socket takes them without blocking; a
/// sibling writer thread writes every other reply, under the same lock.
/// The reader never blocks on the socket or on that lock, so it keeps
/// reading while a client that pipelines a burst is not yet reading its
/// replies. With a run in hand it reads on only while part of a frame
/// is buffered, so it waits for the client at most to finish a frame
/// the client has begun.
fn connection_loop<S: Transport>(stream: S, shared: Arc<Shared>) {
    stream.tune();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        let hook = Box::new(move || clone.shutdown_both());
        shared.hooks().insert(conn_id, hook);
    }
    let writer = Arc::new(Mutex::new(ConnWriter {
        stream: write_half,
        scratch: Vec::new(),
        tail: Vec::new(),
    }));
    let (tx, rx) = mpsc::channel();
    let writer_thread = {
        let writer = Arc::clone(&writer);
        std::thread::Builder::new()
            .name("rlsched-serve-write".to_string())
            .spawn(move || writer_loop(&writer, rx))
    };
    let cap = shared.cfg.batch_cap;
    let mut run = Run::new(shared.shards.len());
    let out = Rc::new(ConnOut {
        shared: Arc::clone(&shared),
        writer,
        tx,
        pushed: RefCell::new(Vec::new()),
        offered: Cell::new(false),
    });
    let mut reader = BufReader::new(ReadHalf {
        stream,
        out: Rc::clone(&out),
    });
    // Per-connection payload scratch, reused across frames. (The decoded
    // request's snapshot may move on to an inbox, so it is owned per
    // request.)
    let mut payload = Vec::new();

    while !shared.shutdown.load(Ordering::Acquire) {
        match read_frame(&mut reader, &mut payload) {
            Ok(Some(req)) => out.admit(req, &mut run),
            Ok(None) => break, // clean EOF
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let message = format!("bad frame: {e}");
                send_reply(&out.tx, Response::Error { id: 0, message });
                // A damaged frame's declared length was consumed, so the
                // next frame starts here. A byte that is not a header was
                // left unread, and nothing marks where a frame begins
                // behind it: close.
                if reader.buffer().first().is_some_and(|&b| b != BINARY_MAGIC) {
                    break;
                }
            }
            Err(_) => break,
        }
        // No frame buffered behind this one: the run can grow no more
        // before the client sends again, so idle shards score it here.
        if reader.buffer().is_empty() {
            run.flush(&out, true);
        } else if run.len == cap {
            run.flush(&out, false);
        }
    }
    // Rows read before a torn frame or a shutdown are still answered.
    run.flush(&out, false);
    out.offer_pushed();
    drop((reader, out)); // writer drains outstanding replies, then exits
    if let Ok(w) = writer_thread {
        let _ = w.join();
    }
    // Release this connection's shutdown hook (and its fd).
    shared.hooks().remove(&conn_id);
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

/// The writer thread: on each wake-up, the tail and every reply already
/// waiting in its channel, in one write.
fn writer_loop<S: Transport>(out: &Mutex<ConnWriter<S>>, rx: Receiver<WriterMsg>) {
    while let Ok(first) = rx.recv() {
        let mut w = out.lock().expect("conn writer poisoned");
        if w.write(std::iter::once(first).chain(rx.try_iter()))
            .is_err()
        {
            break;
        }
    }
}
