//! The resilient blocking client, plus [`RemotePolicy`]: the decision
//! head whose every decision goes over the wire. It is a
//! [`rlsched_sim::Policy`] like every other head, so `run_episode` and the
//! replay engine schedule through the serving tier exactly as they would
//! through `Agent::as_policy` (the parity suites pin that the decisions
//! are bit-identical), and a tier that stays unreachable is an `Err` from
//! the driver, never a panic.
//!
//! The client is generic over the [`Transport`] (TCP by default, Unix
//! domain sockets via [`ServeClient::connect_uds`]). All frame buffers
//! (outgoing bytes, incoming payload, the decoded response) are owned by
//! the client and reused across requests, and a `Score` frame is encoded
//! straight from the caller's borrowed snapshot, so a
//! [`ServeClient::score_snapshot`] round trip copies no snapshot and
//! allocates nothing at steady state.
//!
//! ## Resilience model
//!
//! Every call returns `Result<_, `[`ClientError`]`>` — the client never
//! panics on transport trouble. A broken connection (reset, torn
//! response frame, server restart) is torn down and re-dialed with
//! capped exponential backoff and seeded jitter, and the request is
//! **resent with the same id**: scoring is deterministic and
//! side-effect-free, and the dead connection can no longer deliver a
//! duplicate response, so the retry is safe. A configured deadline
//! bounds the whole attempt train — the budget spans connects, writes,
//! reads, and backoff sleeps, not each attempt separately.
//!
//! Frame-level corruption is never resynced past mid-stream: a frame
//! that fails to parse means the reader's byte position can no longer
//! be trusted, so the connection is dropped and the request retried on
//! a fresh one.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use rlsched_obs::RegistrySnapshot;
use rlsched_sched::{select_parts, HeuristicKind};
use rlsched_sim::{Policy, StreamSession};
use rlsched_swf::Job;
use rlscheduler::{QueueSnapshot, SnapshotJob};

use crate::protocol::{
    encode_binary_frame, encode_score_frame, read_frame_into, Request, Response, ServeStats,
    ServedBy, WireFrame, WireProtocol,
};
use crate::transport::{AnyStream, ServerAddr, Transport};

/// Why a client call failed. Every request resolves to exactly one of:
/// a [`Decision`], or one of these.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure that survived the retry budget.
    Io(std::io::Error),
    /// The request deadline expired (connects, retries, and backoff
    /// included).
    Deadline,
    /// The server answered, but not with something usable: a protocol
    /// violation, an unparseable frame, or a [`Response::Error`] report
    /// (whose message this carries).
    Protocol(String),
    /// The server shed the request and no fallback was configured
    /// server-side. The caller should decide locally.
    Shed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed after retries: {e}"),
            ClientError::Deadline => write!(f, "request deadline expired"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Shed => write!(f, "request shed by the server"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One resolved scoring decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The chosen queue position (`< queue_len`).
    pub action: usize,
    /// The shard that answered.
    pub shard: u64,
    /// Whether the model or the server-side heuristic fallback decided.
    pub served_by: ServedBy,
}

/// Client resilience knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Total budget for one logical request, retries and backoff
    /// included. `None` blocks indefinitely (the pre-resilience
    /// behavior).
    pub deadline: Option<Duration>,
    /// Reconnect-and-resend attempts after the first try fails.
    pub max_retries: u32,
    /// Base reconnect backoff; doubles per retry.
    pub backoff: Duration,
    /// Upper bound on the backoff (before jitter halves it at random).
    pub backoff_cap: Duration,
    /// Jitter seed. Two clients with different seeds won't thunder in
    /// lockstep; the same seed replays the same jitter sequence.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: None,
            max_retries: 3,
            backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            seed: 0x5eed,
        }
    }
}

struct Conn<S: Transport> {
    reader: BufReader<S>,
    writer: S,
}

/// A synchronous, single-in-flight client over one connection, with
/// transparent reconnect (see the module docs). Generic over the
/// stream type; `ServeClient` with no type argument is the TCP client.
///
/// Request ids increment from `id_base`, so a client's requests route
/// deterministically (and distinct `id_base`s spread clients across
/// shards).
pub struct ServeClient<S: Transport = TcpStream> {
    peer: S::Addr,
    conn: Option<Conn<S>>,
    next_id: u64,
    cfg: ClientConfig,
    jitter: u64,
    /// Encoded outgoing frame, reused across requests.
    wire: Vec<u8>,
    /// Incoming payload scratch.
    payload: Vec<u8>,
    /// The last decoded response; decode-into reuses its buffers.
    resp: Response,
}

impl ServeClient<TcpStream> {
    /// Connect to a serving tier over TCP (fails fast when it is
    /// unreachable; later reconnects are automatic).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = addr
            .to_socket_addrs()?
            .find_map(|a| TcpStream::connect(a).ok().map(|s| (a, s)));
        let Some((peer, stream)) = stream else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "no resolvable address accepted the connection",
            ));
        };
        Self::from_parts(peer, stream)
    }
}

#[cfg(unix)]
impl ServeClient<UnixStream> {
    /// Connect over a Unix domain socket.
    pub fn connect_uds(path: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let peer: std::path::PathBuf = path.into();
        let stream = UnixStream::connect(&peer)?;
        Self::from_parts(peer, stream)
    }
}

impl ServeClient<AnyStream> {
    /// Connect to whichever transport the server bound (see
    /// `ServerHandle::server_addr`).
    pub fn connect_any(addr: &ServerAddr) -> std::io::Result<Self> {
        let stream = AnyStream::dial(addr)?;
        Self::from_parts(addr.clone(), stream)
    }
}

impl<S: Transport> ServeClient<S> {
    fn from_parts(peer: S::Addr, stream: S) -> std::io::Result<Self> {
        stream.tune();
        let writer = stream.try_clone()?;
        let cfg = ClientConfig::default();
        Ok(ServeClient {
            peer,
            conn: Some(Conn {
                reader: BufReader::new(stream),
                writer,
            }),
            next_id: 0,
            jitter: cfg.seed | 1,
            cfg,
            wire: Vec::new(),
            payload: Vec::new(),
            resp: Response::scratch(),
        })
    }

    /// Start the request-id stream at `base` (shard-routing key).
    pub fn with_id_base(mut self, base: u64) -> Self {
        self.next_id = base;
        self
    }

    /// Replace the resilience knobs.
    pub fn with_config(mut self, cfg: ClientConfig) -> Self {
        self.jitter = cfg.seed | 1;
        self.cfg = cfg;
        self
    }

    // benchmark/ spelling (ROADMAP 1): the envelope is the only format.
    #[doc(hidden)]
    pub fn with_protocol(self, _proto: WireProtocol) -> Self {
        self
    }

    fn next_jitter(&mut self) -> u64 {
        // xorshift64: deterministic per-client jitter stream.
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        x
    }

    /// Write `self.wire` + read the matching-id response into
    /// `self.resp` on the current connection. Any error leaves the
    /// reader's byte position untrustworthy, so the caller must tear
    /// the connection down before retrying.
    fn attempt(&mut self, want: u64, io_deadline: Option<Duration>) -> std::io::Result<()> {
        if self.conn.is_none() {
            let stream = S::dial(&self.peer)?;
            stream.tune();
            let writer = stream.try_clone()?;
            self.conn = Some(Conn {
                reader: BufReader::new(stream),
                writer,
            });
        }
        let conn = self.conn.as_mut().expect("just ensured");
        // Bound each blocking read/write by the remaining budget (None
        // blocks, matching a deadline-less config).
        conn.reader.get_ref().set_read_timeout(io_deadline)?;
        conn.writer.set_write_timeout(io_deadline)?;
        conn.writer.write_all(&self.wire)?;
        loop {
            if !read_frame_into(&mut conn.reader, &mut self.payload, &mut self.resp)? {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            // Single in-flight per client: the next frame is ours (id 0
            // frames are parse-error reports for garbage we never sent).
            if self.resp.id() == want {
                return Ok(());
            }
        }
    }

    /// Run the already-encoded request in `self.wire` to resolution:
    /// attempt, and on transport failure reconnect (capped backoff +
    /// jitter) and resend **the same id** — deterministic scoring makes
    /// the replay idempotent, and the torn-down connection cannot
    /// deliver a duplicate. On success the response is in `self.resp`.
    fn roundtrip(&mut self, want: u64) -> Result<(), ClientError> {
        let start = Instant::now();
        let remaining =
            |start: Instant, cfg: &ClientConfig| -> Result<Option<Duration>, ClientError> {
                match cfg.deadline {
                    None => Ok(None),
                    Some(d) => d
                        .checked_sub(start.elapsed())
                        .filter(|r| !r.is_zero())
                        .map(Some)
                        .ok_or(ClientError::Deadline),
                }
            };
        let mut retries = 0u32;
        loop {
            let budget = remaining(start, &self.cfg)?;
            match self.attempt(want, budget) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // The frame parsed wrong: mid-stream resync is not
                    // safe, and a replay would hit the same bug. Drop
                    // the connection and report.
                    self.conn = None;
                    return Err(ClientError::Protocol(e.to_string()));
                }
                Err(e) => {
                    self.conn = None;
                    let timed_out = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    if timed_out && self.cfg.deadline.is_some() {
                        return Err(ClientError::Deadline);
                    }
                    if retries >= self.cfg.max_retries {
                        return Err(ClientError::Io(e));
                    }
                    retries += 1;
                    let shift = (retries - 1).min(16);
                    let backoff = self
                        .cfg
                        .backoff
                        .saturating_mul(1u32 << shift)
                        .min(self.cfg.backoff_cap);
                    // Jitter: uniform in [backoff/2, backoff].
                    let half = backoff / 2;
                    let jit_ns = half.as_nanos() as u64;
                    let jitter = Duration::from_nanos(if jit_ns == 0 {
                        0
                    } else {
                        self.next_jitter() % (jit_ns + 1)
                    });
                    let mut sleep = half + jitter;
                    if let Some(rem) = remaining(start, &self.cfg)? {
                        sleep = sleep.min(rem);
                    }
                    std::thread::sleep(sleep);
                }
            }
        }
    }

    fn decision(&self) -> Result<Decision, ClientError> {
        match &self.resp {
            Response::Action {
                action,
                shard,
                served_by,
                ..
            } => Ok(Decision {
                action: *action as usize,
                shard: *shard,
                served_by: *served_by,
            }),
            Response::Shed { .. } => Err(ClientError::Shed),
            Response::Error { message, .. } => Err(ClientError::Protocol(message.clone())),
            Response::Stats { .. } | Response::Metrics { .. } => Err(ClientError::Protocol(
                "stats/metrics response to a score request".into(),
            )),
        }
    }

    /// Score a queue snapshot (the server runs the encoder) — the one
    /// scoring request the tier answers. The frame is written straight
    /// from the borrowed snapshot.
    pub fn score_snapshot(&mut self, snapshot: &QueueSnapshot) -> Result<Decision, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_score_frame(&mut self.wire, id, snapshot);
        self.roundtrip(id)?;
        self.decision()
    }

    /// Fetch the server's aggregate statistics.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_binary_frame(&Request::Stats { id }, &mut self.wire);
        self.roundtrip(id)?;
        match &self.resp {
            Response::Stats { stats, .. } => Ok(stats.clone()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Scrape the server's full metrics registry (every counter, gauge,
    /// and histogram — see `rlsched-obs` for the naming scheme). The
    /// returned snapshot renders as text via `rlsched_obs::encode_text`.
    pub fn metrics(&mut self) -> Result<RegistrySnapshot, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        encode_binary_frame(&Request::Metrics { id }, &mut self.wire);
        self.roundtrip(id)?;
        match &self.resp {
            Response::Metrics { metrics, .. } => Ok(metrics.clone()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }
}

/// The remote decision head: every decision goes over the wire to a
/// live serving tier. It is a simulator [`Policy`]: `run_episode` and a
/// streaming replay drive it straight from the session's wait queue.
///
/// With a local fallback configured
/// ([`RemotePolicy::with_local_fallback`]), a shed or a transport
/// failure that survived the client's retry budget is answered by the
/// local heuristic — the same kind-for-kind decision the server-side
/// fallback arm computes — and counted. Without one, a shed schedules
/// the head of the queue (FCFS) and a transport failure is the caller's
/// error: [`Policy::pick`] returns it and the driver stops the episode
/// with it (a scheduling loop cannot silently skip decisions).
pub struct RemotePolicy<S: Transport = TcpStream> {
    client: ServeClient<S>,
    /// Snapshot truncation window (the encoder's `max_obsv`).
    window: usize,
    local_fallback: Option<HeuristicKind>,
    /// Reused decision-point buffer.
    snap: QueueSnapshot,
    sheds: u64,
    local_decisions: u64,
    remote_decisions: u64,
    remote_fallbacks: u64,
}

impl<S: Transport> RemotePolicy<S> {
    /// Wrap a connected client. `window` must equal the serving agent's
    /// observation window.
    pub fn new(client: ServeClient<S>, window: usize) -> Self {
        RemotePolicy {
            client,
            window,
            local_fallback: None,
            snap: QueueSnapshot {
                free_procs: 0,
                total_procs: 0,
                queue_len: 0,
                jobs: Vec::with_capacity(window),
            },
            sheds: 0,
            local_decisions: 0,
            remote_decisions: 0,
            remote_fallbacks: 0,
        }
    }

    /// Answer sheds *and* exhausted-retry transport failures with this
    /// local heuristic instead of failing. Must be wire-scorable.
    pub fn with_local_fallback(mut self, kind: HeuristicKind) -> Self {
        assert!(
            kind.wire_scorable(),
            "{} is not computable from a decision-point view",
            kind.name()
        );
        self.local_fallback = Some(kind);
        self
    }

    /// Decisions the server shed (answered locally).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Decisions answered by the local heuristic (sheds + transport
    /// failures, when a local fallback is configured).
    pub fn local_decisions(&self) -> u64 {
        self.local_decisions
    }

    /// Decisions the server answered (model or fallback arm) — the
    /// client-side count the server's `rlsched_serve_served_total` /
    /// `…_fallbacks_total` registry counters must add up to.
    pub fn remote_decisions(&self) -> u64 {
        self.remote_decisions
    }

    /// Decisions the *server* answered via its fallback arm.
    pub fn remote_fallbacks(&self) -> u64 {
        self.remote_fallbacks
    }

    /// The heuristic's pick over the decision point in `self.snap`.
    fn decide_locally(&mut self) -> usize {
        self.local_decisions += 1;
        match self.local_fallback {
            Some(kind) => select_parts(
                kind,
                self.snap
                    .jobs
                    .iter()
                    .map(|j| (j.wait, j.time_bound, j.procs)),
            )
            .unwrap_or(0),
            None => 0, // FCFS: schedule the head of the queue
        }
    }
}

impl<S: Transport> Policy for RemotePolicy<S> {
    type Error = ClientError;

    /// Ask the tier which waiting job starts next. The first `window`
    /// waiting jobs are snapshotted into a reused buffer; the answer is a
    /// queue position `< queue_len`.
    fn pick<I: Iterator<Item = Job>>(
        &mut self,
        session: &mut StreamSession<I>,
    ) -> Result<usize, ClientError> {
        let queue_len = session.queue_len();
        self.snap.free_procs = session.free_procs();
        self.snap.total_procs = session.total_procs();
        self.snap.queue_len = queue_len as u32;
        self.snap.jobs.clear();
        self.snap
            .jobs
            .extend(session.waiting().take(self.window).map(SnapshotJob::from));
        let pick = match self.client.score_snapshot(&self.snap) {
            Ok(d) => {
                self.remote_decisions += 1;
                if d.served_by == ServedBy::Fallback {
                    self.remote_fallbacks += 1;
                }
                d.action
            }
            Err(ClientError::Shed) => {
                self.sheds += 1;
                self.decide_locally()
            }
            Err(_) if self.local_fallback.is_some() => self.decide_locally(),
            Err(e) => return Err(e),
        };
        Ok(pick.min(queue_len.saturating_sub(1)))
    }

    fn name(&self) -> &str {
        "RL-remote"
    }
}
