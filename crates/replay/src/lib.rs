//! # rlsched-replay — trace-scale streaming replay
//!
//! One uninterrupted pass over a multi-million-job SWF trace through
//! any scheduling policy, with resident memory bounded by the peak
//! waiting/running depth rather than the trace length.
//!
//! The crate glues together the streaming substrates grown elsewhere:
//!
//! * [`rlsched_swf::StreamReader`] — jobs scanned in place out of the
//!   file reader's buffer, one record at a time (wrapped here by
//!   [`open_swf`] / [`SwfJobs`]);
//! * [`rlsched_sim::StreamSession`] — the simulator's one event loop
//!   (indexed-calendar queue, EASY backfilling, metrics folded at start
//!   time; `SchedSession`, which training and `run_episode` step, is the
//!   same type over a materialized trace, with its outcome log on);
//! * the decision heads a replay can drive, named by [`ReplayPolicy`]:
//!   [`Heuristic`](ReplayPolicy::Heuristic) (Table III priority
//!   functions, [`rlsched_sched::PriorityScheduler`]),
//!   [`Agent`](ReplayPolicy::Agent) (an in-process
//!   [`rlscheduler::RlPolicy`]), and
//!   [`Remote`](ReplayPolicy::Remote) (every decision over the wire to
//!   a live `rlsched-serve` tier through [`rlsched_serve::RemotePolicy`]).
//!   Each is the one [`rlsched_sim::Policy`] its policy has — the very
//!   head `run_episode` asks — so there is nothing for a replay and an
//!   evaluation episode to disagree on but the source they read and
//!   whether they keep the outcome log.
//!
//! [`ReplayEngine::run`] drives the episode to completion and returns a
//! [`ReplayReport`]: job and decision throughput (with EASY on, backfill
//! starts jobs the policy never decided on, so the two differ),
//! per-decision latency quantiles (the serving tier's
//! [`LatencyHistogram`]), peak queue depth, and the folded
//! [`StreamMetrics`]. Its loop is `run_episode`'s — attach the head, then
//! pick and step until done — with a clock around each pick.
//!
//! How a heuristic picks is a function of its [`HeuristicKind`] alone
//! (`PriorityScheduler`'s docs): the front of the queue for FCFS, an
//! order the session keeps for the kinds with a static key, O(log n), a
//! rescoring of the queue for WFP3 and UNICEP, O(n).
//!
//! What the suites here still compare: `tests/replay_parity.rs` holds the
//! streaming outcome log to the materialized episode's and
//! `LublinModel::stream` to `generate`, under every head;
//! `tests/ranked_head_prop.rs` holds the ranked head to the
//! `select_streaming` scan at every decision point. The loop itself
//! answers to the reference simulator in `rlsched-sim`'s tests.

use std::cell::Cell;
use std::convert::Infallible;
use std::fs::File;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rlsched_obs::{Counter, Gauge, Histogram, Registry};
use rlsched_sched::{HeuristicKind, PriorityScheduler};
use rlsched_serve::{ClientError, LatencyHistogram, RemotePolicy, Transport};
use rlsched_sim::{EpisodeMetrics, Policy, SimConfig, SimError, StreamMetrics, StreamSession};
use rlsched_swf::{Job, StreamReader, SwfError};
use rlscheduler::{QueueSnapshot, RlPolicy, SnapshotJob};

/// Why a replay stopped short of the end of the trace.
#[derive(Debug)]
pub enum ReplayError {
    /// The simulator rejected the trace or a step (for example a
    /// non-monotone arrival in the stream).
    Sim(SimError),
    /// A remote decision failed past the client's retry budget and no
    /// local fallback was configured.
    Client(ClientError),
    /// The SWF source produced a malformed record mid-stream.
    Swf(SwfError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Sim(e) => write!(f, "simulation error: {e}"),
            ReplayError::Client(e) => write!(f, "serving tier unreachable: {e}"),
            ReplayError::Swf(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> Self {
        ReplayError::Sim(e)
    }
}

impl From<SwfError> for ReplayError {
    fn from(e: SwfError) -> Self {
        ReplayError::Swf(e)
    }
}

impl From<ClientError> for ReplayError {
    fn from(e: ClientError) -> Self {
        ReplayError::Client(e)
    }
}

/// In-process heads cannot fail to pick.
impl From<Infallible> for ReplayError {
    fn from(never: Infallible) -> Self {
        match never {}
    }
}

/// A shared slot that [`SwfJobs`] parks a mid-stream parse error in.
///
/// The job iterator is consumed by the engine, so the caller keeps this
/// handle and checks it after the replay: a `Some` means the trace was
/// cut short at the recorded error, not exhausted.
#[derive(Clone, Default)]
pub struct SwfErrorSlot(Rc<Cell<Option<SwfError>>>);

impl std::fmt::Debug for SwfErrorSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cell contents cannot be borrowed for display; report occupancy.
        f.write_str("SwfErrorSlot")
    }
}

impl SwfErrorSlot {
    /// Take the parked error, if the stream hit one.
    pub fn take(&self) -> Option<SwfError> {
        self.0.take()
    }
}

/// An `Iterator<Item = Job>` over an SWF file that parks parse errors in
/// its [`SwfErrorSlot`] and fuses, instead of panicking mid-replay.
#[derive(Debug)]
pub struct SwfJobs {
    first: Option<Job>,
    reader: StreamReader<BufReader<File>>,
    errors: SwfErrorSlot,
}

impl Iterator for SwfJobs {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if let Some(j) = self.first.take() {
            return Some(j);
        }
        match self.reader.next() {
            Some(Ok(j)) => Some(j),
            Some(Err(e)) => {
                self.errors.0.set(Some(e));
                None
            }
            None => None,
        }
    }
}

/// An opened SWF trace, ready to stream: the cluster size, the job
/// iterator, and the mid-stream error slot.
#[derive(Debug)]
pub struct SwfSource {
    /// Cluster size: the header's `MaxProcs`/`MaxNodes`, or the first
    /// job's request when the header carries none.
    pub max_procs: u32,
    /// The jobs, one at a time off the source.
    pub jobs: SwfJobs,
    /// Check after the replay: a parked error means a truncated pass.
    pub errors: SwfErrorSlot,
}

/// Open an SWF file for streaming replay through a buffered reader, and
/// read up to the first job record (so the conventional
/// header-then-records layout has settled `MaxProcs`). Errors on an
/// unreadable file or a malformed first record.
pub fn open_swf(path: impl AsRef<Path>) -> Result<SwfSource, SwfError> {
    let file = File::open(path).map_err(SwfError::Io)?;
    let mut reader = StreamReader::new(BufReader::new(file));
    let first = reader.next().transpose()?;
    let errors = SwfErrorSlot::default();
    Ok(SwfSource {
        max_procs: reader.max_procs(),
        jobs: SwfJobs {
            first,
            reader,
            errors: errors.clone(),
        },
        errors,
    })
}

/// Which decision head a [`ReplayEngine`] drives — one variant per way
/// the paper's policies can answer "which waiting job starts next".
/// [`ReplayEngine::run`] looks at the variant once, before the first
/// decision, and runs the whole replay against the head inside.
// One policy exists per replay and is only ever borrowed: the remote
// head's frame buffers are not worth a `Box` at every construction site.
#[allow(clippy::large_enum_variant)]
pub enum ReplayPolicy<'a, S: Transport = TcpStream> {
    /// A Table III priority function, through a [`PriorityScheduler`].
    Heuristic(HeuristicKind),
    /// A trained agent in-process.
    Agent(RlPolicy<'a>),
    /// Every decision over the wire to a live serving tier: the
    /// snapshot is built straight from the streaming wait queue. A
    /// transport failure with no local fallback configured surfaces as
    /// [`ReplayError::Client`].
    Remote(RemotePolicy<S>),
}

impl<S: Transport> ReplayPolicy<'_, S> {
    /// Display tag for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayPolicy::Heuristic(kind) => kind.name(),
            ReplayPolicy::Agent(_) => "RL-agent",
            ReplayPolicy::Remote(_) => "RL-remote",
        }
    }
}

/// What one completed replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Scheduling decisions made: the jobs the policy started. With EASY
    /// on, the rest of `metrics.count()` were started by backfill without
    /// a decision ([`ReplayReport::backfilled`]) — on an overloaded FCFS
    /// replay that is most of them.
    pub decisions: u64,
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
    /// Per-decision latency (policy evaluation only, not event
    /// processing).
    pub hist: LatencyHistogram,
    /// Deepest the wait queue ever was — the memory bound.
    pub peak_queue: usize,
    /// Most jobs ever running at once.
    pub peak_running: usize,
    /// The paper's metrics, folded over the whole trace.
    pub metrics: StreamMetrics,
}

impl ReplayReport {
    fn per_sec(&self, n: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        n as f64 / secs
    }

    /// Decision throughput (sim-ticks per wall-clock second).
    pub fn decisions_per_sec(&self) -> f64 {
        self.per_sec(self.decisions)
    }

    /// Job throughput (jobs started per wall-clock second, whoever
    /// started them): the number to compare across backfill modes, where
    /// decisions per second is not.
    pub fn jobs_per_sec(&self) -> f64 {
        self.per_sec(self.metrics.count())
    }

    /// Jobs EASY backfill started without asking the policy.
    pub fn backfilled(&self) -> u64 {
        self.metrics.count() - self.decisions
    }

    /// Median per-decision latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.hist.quantile_ns(0.5)
    }

    /// Tail per-decision latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.hist.quantile_ns(0.99)
    }
}

/// Registry handles an instrumented [`ReplayEngine`] records into,
/// labeled by decision head (`{head="sjf"}`, `{head="RL-agent"}`, …)
/// so multi-head sweeps land side by side in one scrape. The local
/// [`LatencyHistogram`] in the report stays authoritative — the
/// registry copy is the same samples, just reachable by `encode_text`
/// / `--metrics-dump`.
#[derive(Debug, Clone)]
pub struct ReplayMetrics {
    ticks: Counter,
    latency: Histogram,
    ticks_per_sec: Gauge,
    peak_queue: Gauge,
    backfilled: Counter,
}

impl ReplayMetrics {
    /// Register the replay metric family for one decision head.
    pub fn register(reg: &Registry, head: &str) -> Self {
        let labels: &[(&str, &str)] = &[("head", head)];
        ReplayMetrics {
            ticks: reg.counter("rlsched_replay_ticks_total", labels),
            latency: reg.histogram("rlsched_replay_decision_ns", labels),
            ticks_per_sec: reg.gauge("rlsched_replay_ticks_per_sec", labels),
            peak_queue: reg.gauge("rlsched_replay_peak_queue", labels),
            backfilled: reg.counter("rlsched_replay_backfilled_total", labels),
        }
    }
}

/// One uninterrupted pass over a job stream through one policy.
pub struct ReplayEngine<I: Iterator<Item = Job>> {
    session: StreamSession<I>,
    decisions: u64,
    hist: LatencyHistogram,
    metrics: Option<ReplayMetrics>,
}

impl<I: Iterator<Item = Job>> ReplayEngine<I> {
    /// Build an engine over `source` (must be submit-sorted) on a
    /// cluster of `total_procs` processors.
    pub fn new(source: I, total_procs: u32, cfg: SimConfig) -> Result<Self, SimError> {
        Ok(ReplayEngine {
            session: StreamSession::new(source, total_procs, cfg)?,
            decisions: 0,
            hist: LatencyHistogram::new(),
            metrics: None,
        })
    }

    /// Mirror every tick into registry handles (and the end-of-run
    /// throughput/peak-queue gauges and backfilled-jobs counter).
    /// Decisions and the report are unchanged — telemetry never steers.
    pub fn instrument(&mut self, metrics: ReplayMetrics) {
        self.metrics = Some(metrics);
    }

    /// Keep a per-job outcome log (unbounded memory — parity tests
    /// only).
    pub fn with_outcome_log(mut self) -> Self {
        self.session = self.session.with_outcome_log();
        self
    }

    /// The underlying streaming session.
    pub fn session(&self) -> &StreamSession<I> {
        &self.session
    }

    /// Rebuild an [`EpisodeMetrics`] from the outcome log, for bit-exact
    /// parity against `run_episode` under the same `Policy`. `None`
    /// unless [`ReplayEngine::with_outcome_log`] was enabled.
    pub fn log_metrics(&self) -> Option<EpisodeMetrics> {
        self.session.log_metrics()
    }

    /// Drive the replay to completion under `policy` and report.
    pub fn run<S: Transport>(
        &mut self,
        policy: &mut ReplayPolicy<'_, S>,
    ) -> Result<ReplayReport, ReplayError> {
        match policy {
            ReplayPolicy::Heuristic(kind) => self.drive(&mut PriorityScheduler::new(*kind)),
            ReplayPolicy::Agent(head) => self.drive(head),
            ReplayPolicy::Remote(head) => self.drive(head),
        }
    }

    /// The replay loop — `run_episode`'s, with a clock around each pick.
    fn drive<P: Policy>(&mut self, head: &mut P) -> Result<ReplayReport, ReplayError>
    where
        ReplayError: From<P::Error>,
    {
        let start = Instant::now();
        head.attach(&mut self.session);
        while !self.session.done() {
            let t0 = Instant::now();
            let pos = head.pick(&mut self.session)?;
            let spent = t0.elapsed();
            self.hist.record(spent);
            if let Some(m) = &self.metrics {
                m.ticks.inc();
                m.latency.record(spent);
            }
            self.decisions += 1;
            self.session.step(pos)?;
        }
        let report = ReplayReport {
            decisions: self.decisions,
            elapsed: start.elapsed(),
            hist: self.hist.clone(),
            peak_queue: self.session.peak_queue_depth(),
            peak_running: self.session.peak_running(),
            metrics: self.session.metrics().clone(),
        };
        if let Some(m) = &self.metrics {
            m.ticks_per_sec.set(report.decisions_per_sec());
            m.peak_queue.set_max(report.peak_queue as f64);
            m.backfilled.add(report.backfilled());
        }
        Ok(report)
    }
}

/// One decision point of a replayed trace, as a serving request: the
/// snapshot a client would send, and when the trace reached it.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// Virtual seconds since the episode started.
    pub offset: f64,
    /// The decision point to score.
    pub snapshot: QueueSnapshot,
}

/// Replay `source` under a heuristic, capturing every decision point as
/// a [`TimedRequest`] whose offset is the decision's virtual time
/// relative to the episode start: realistic queue snapshots, in trace
/// order, for driving a serving tier.
///
/// Memory here is bounded by the *decision count*, not the trace
/// length: each request holds one truncated snapshot.
pub fn collect_timed_requests<I: Iterator<Item = Job>>(
    source: I,
    total_procs: u32,
    cfg: SimConfig,
    kind: HeuristicKind,
    window: usize,
) -> Result<Vec<TimedRequest>, ReplayError> {
    let mut session = StreamSession::new(source, total_procs, cfg)?;
    let mut head = PriorityScheduler::new(kind);
    head.attach(&mut session);
    let t0 = session.time();
    let mut requests = Vec::new();
    while !session.done() {
        let snapshot = QueueSnapshot {
            free_procs: session.free_procs(),
            total_procs: session.total_procs(),
            queue_len: session.queue_len() as u32,
            jobs: session
                .waiting()
                .take(window)
                .map(SnapshotJob::from)
                .collect(),
        };
        requests.push(TimedRequest {
            offset: session.time() - t0,
            snapshot,
        });
        let pos = head.pick(&mut session)?;
        session.step(pos)?;
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn open_swf_reads_header_and_streams_jobs() {
        let dir = std::env::temp_dir().join("rlsched-replay-test-open");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.swf");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "; MaxProcs: 64").unwrap();
        writeln!(f, "1 0 5 100 4 -1 -1 4 120 -1 1 3 2 7 1 0 -1 -1").unwrap();
        writeln!(f, "2 10 1 50 2 -1 -1 2 60 -1 1 4 2 7 1 0 -1 -1").unwrap();
        drop(f);
        let src = open_swf(&path).unwrap();
        assert_eq!(src.max_procs, 64);
        let jobs: Vec<Job> = src.jobs.collect();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 1);
        assert!(src.errors.take().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_stream_error_parks_in_the_slot() {
        let dir = std::env::temp_dir().join("rlsched-replay-test-err");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.swf");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "1 0 5 100 4 -1 -1 4 120 -1 1 3 2 7 1 0 -1 -1").unwrap();
        writeln!(f, "garbage line").unwrap();
        drop(f);
        let src = open_swf(&path).unwrap();
        let jobs: Vec<Job> = src.jobs.collect();
        assert_eq!(jobs.len(), 1, "stream fuses at the bad line");
        assert!(src.errors.take().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_swf_rejects_missing_file() {
        assert!(open_swf("/nonexistent/definitely/not.swf").is_err());
    }
}
