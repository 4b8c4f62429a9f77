//! The event loop: one pass over a job stream, whatever its length.
//!
//! A [`StreamSession`] *pulls* jobs from any `Iterator<Item = Job>` as
//! virtual time passes their submit times, so resident memory is bounded by
//! the peak number of waiting jobs (plus the running set), not the trace
//! length — a 256-job training window and a multi-year archive of millions
//! of jobs run the same code. It is the only simulator in the workspace;
//! [`crate::SchedSession`] names it over a materialized trace with its
//! outcome log on.
//!
//! The control flow is the reference environment's of the paper (§IV-D):
//!
//! 1. Virtual time starts at the first job's submission; arrivals enter the
//!    wait queue (an [`IndexedQueue`]) in submit order. Unschedulable
//!    records are dropped and the rest sanitized and clamped to the cluster
//!    at admission — `JobTrace::sanitized().clamp_to_cluster()`, one job at
//!    a time — and a job's `job_index` is its position among the admitted.
//! 2. Whenever the wait queue is non-empty the caller picks one waiting job
//!    ([`StreamSession::step`]).
//! 3. If the job fits it starts immediately. Otherwise it becomes the
//!    *reservation*: time advances through completion/arrival events —
//!    completions at an instant before same-instant arrivals — until the
//!    job fits, and with [`BackfillMode::Easy`] queued jobs that fit now
//!    and finish (by their *requested* runtime) by the reservation's
//!    estimated start are backfilled in FCFS order.
//! 4. The episode is done when every job has started; completion times then
//!    follow deterministically from actual runtimes.
//!
//! The source must be sorted by submit time (SWF archives and `JobTrace`s
//! are). A regression yields [`SimError::NonMonotoneArrival`] instead of
//! silently reordering.
//!
//! # Where outcomes go
//!
//! A job's outcome is fully determined the moment it starts (start, end,
//! submit, procs, user are all known), so the loop folds a [`JobOutcome`]
//! into the session's [`StreamMetrics`] at start time and drops the job's
//! record — nothing grows with trace length. With
//! [`StreamSession::with_outcome_log`] it also keeps the outcome, a per-job
//! log that [`StreamSession::log_metrics`] sorts into a trace-order
//! [`EpisodeMetrics`]; [`crate::SchedSession`] is a session over a
//! materialized trace with that log on.
//!
//! The session's own fold sums in *start* order while an [`EpisodeMetrics`]
//! folds the same definitions in trace order, so the two agree only to
//! floating-point tolerance. For bit-exact checks of a streaming replay,
//! compare [`StreamSession::log_metrics`].
//!
//! # The ranked head
//!
//! A priority function that never reads the waiting time (FCFS, SJF, F1)
//! gives a job its `(score, submit, seq)` key once, at admission, so "the
//! best waiting job" is the minimum of a set that only changes by insert
//! and remove. [`StreamSession::rank_by`] switches on an order over those
//! keys — a binary heap beside the wait queue, fed by every admission —
//! and [`StreamSession::ranked_head`] answers in O(log n) what a full
//! rescoring of the queue would.
//!
//! Deletion is lazy. Jobs leave the queue in the middle (the policy's
//! pick, or EASY backfill starting whatever fits), and a binary heap
//! cannot remove from the middle; their entries stay behind and are
//! popped when they surface. That is safe because an entry names its job
//! by the queue's push *ordinal*, which is never reused:
//! [`IndexedQueue::rank_of_ord`] says `None` for a job that left, whatever
//! has since been admitted into its slab slot, so a stale entry is
//! recognised and can never be mistaken for a live one — and the first
//! live entry to surface is the minimum of the live set, since every live
//! job has exactly one entry. The heap costs 32 bytes per entry and the
//! queue 8 bytes per slot for the ordinals; on admission the heap is
//! rebuilt from the live queue whenever it has grown past
//! `2 · queue_len + 64`, so it never holds more than
//! `2 · peak_queue_depth + 65` entries and the session stays bounded by
//! the peak queue depth.
//!
//! # The backfill index
//!
//! While a reservation is blocked, every completion and every arrival is
//! followed by an EASY pass: start, in FCFS order, each waiting job that
//! fits the idle processors now and whose request ends by the shadow time.
//! Walking every rank to find them costs, over a deep queue, more than
//! everything else in a replay together, most of it in passes that start
//! nothing. Under EASY the session instead builds its queue
//! [`IndexedQueue::with_first_fit`] and admits through
//! [`IndexedQueue::push_fit`], so the queue keeps, beside its Fenwick tree,
//! a segment tree whose nodes hold the smallest `procs` and the smallest
//! `time_bound` of the live jobs below them (`calendar`'s module docs have
//! the layout and the argument that pruning on those minima is exact).
//! `backfill_pass` is then one [`IndexedQueue::first_fit`] descent per job
//! it *starts*, each resuming at the rank the last one vacated, and a pass
//! that starts nothing is one comparison at the root. The visit order and
//! the arithmetic at each job are the walk's, so the schedule is the same
//! bit for bit: the walk survives as `reference_starts` in
//! `tests/common/mod.rs` — the whole loop over a `Vec` queue, sharing
//! nothing with this file — and the parity and property suites hold every
//! start time of this session to it.
//!
//! One pass is the whole pass: within it `time` and the shadow are fixed
//! and the idle processors only fall, so a job refused once would be
//! refused again, and a "walk again if anything started" has nothing to
//! find. Without EASY no pass ever runs, the queue is built
//! `with_capacity` and fed by `push`, and no index exists.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rlsched_swf::Job;

use crate::calendar::IndexedQueue;
use crate::config::{BackfillMode, SimConfig};
use crate::error::SimError;
use crate::metrics::{EpisodeMetrics, JobOutcome, StreamMetrics};
use crate::policy::WaitingJob;

/// A running job, ordered by its *actual* completion time (simulator-private
/// knowledge).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunningJob {
    end_time: f64,
    /// Estimated completion per the user's request — what EASY uses.
    est_end_time: f64,
    job_index: usize,
    procs: u32,
}

impl Eq for RunningJob {}

impl Ord for RunningJob {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap pops the earliest completion first;
        // tie-break on job index for determinism.
        other
            .end_time
            .partial_cmp(&self.end_time)
            .expect("finite end times")
            .then_with(|| other.job_index.cmp(&self.job_index))
    }
}

impl PartialOrd for RunningJob {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Streaming admission: filters unschedulable records, sanitizes and
/// clamps the rest, and hands out admission sequence numbers — exactly
/// what `JobTrace::sanitized().clamp_to_cluster()` does up front, applied
/// one job at a time. The sequence number equals the job's index in that
/// materialized trace, which is what lets the outcome log be read in trace
/// order.
#[derive(Debug, Clone)]
struct Admission<I: Iterator<Item = Job>> {
    inner: I,
    total_procs: u32,
    /// Next admissible job, already sanitized and clamped.
    pending: Option<Job>,
    next_seq: usize,
    exhausted: bool,
}

impl<I: Iterator<Item = Job>> Admission<I> {
    fn new(inner: I, total_procs: u32) -> Self {
        Admission {
            inner,
            total_procs,
            pending: None,
            next_seq: 0,
            exhausted: false,
        }
    }

    /// Pull from the source until an admissible job is buffered.
    fn fill(&mut self) {
        while self.pending.is_none() && !self.exhausted {
            match self.inner.next() {
                None => self.exhausted = true,
                Some(raw) => {
                    if !raw.is_schedulable() {
                        continue;
                    }
                    let mut j = raw.sanitized();
                    if j.procs() > self.total_procs {
                        j.requested_procs = self.total_procs as i64;
                    }
                    self.pending = Some(j);
                }
            }
        }
    }

    /// Submit time of the next admissible job, if any.
    fn peek_submit(&mut self) -> Option<f64> {
        self.fill();
        self.pending.as_ref().map(|j| j.submit_time)
    }

    /// Admit the buffered job, assigning its sequence number.
    fn take(&mut self) -> Option<(usize, Job)> {
        self.fill();
        self.pending.take().map(|j| {
            let seq = self.next_seq;
            self.next_seq += 1;
            (seq, j)
        })
    }

    /// True once the source is drained and nothing is buffered.
    fn is_empty(&mut self) -> bool {
        self.fill();
        self.pending.is_none()
    }
}

/// One waiting job in the ranked order: the `(score, submit, seq)` key a
/// full scan of the queue would compare, plus the queue ordinal that finds
/// the job again.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked {
    score: f64,
    submit: f64,
    seq: usize,
    ord: u64,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the BinaryHeap's top is the scan's pick. IEEE
        // comparison on purpose (not `total_cmp`): the scan's `<`/`==`
        // chain treats -0.0 and 0.0 as equal and falls through to the
        // next field, and so must this.
        other
            .score
            .partial_cmp(&self.score)
            .expect("static keys are never NaN")
            .then_with(|| {
                other
                    .submit
                    .partial_cmp(&self.submit)
                    .expect("admission rejects NaN submit times")
            })
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Heap entries tolerated beyond twice the live queue before a rebuild.
const RANKED_SLACK: usize = 64;

/// The order behind [`StreamSession::ranked_head`]: every waiting job's
/// key, plus the stale entries of jobs that left the queue and have not
/// surfaced yet.
#[derive(Debug, Clone)]
struct RankedOrder {
    key: fn(&Job) -> f64,
    heap: BinaryHeap<Ranked>,
}

impl RankedOrder {
    fn entry(&self, seq: usize, job: &Job, ord: u64) -> Ranked {
        Ranked {
            score: (self.key)(job),
            submit: job.submit_time,
            seq,
            ord,
        }
    }
}

/// A one-pass scheduling episode over a job stream.
///
/// Whenever at least one job waits, the caller picks a queue rank via
/// [`StreamSession::step`]; the trace flows through: arrivals are pulled
/// on demand and a started job's record is dropped as soon as its outcome
/// has been folded into the session's [`StreamMetrics`] (and, with
/// [`StreamSession::with_outcome_log`], logged).
#[derive(Debug, Clone)]
pub struct StreamSession<I: Iterator<Item = Job>> {
    source: Admission<I>,
    total_procs: u32,
    cfg: SimConfig,

    time: f64,
    free_procs: u32,
    /// Waiting jobs, keyed by slab slot; `None` slots are on the free list.
    slab: Vec<Option<(usize, Job)>>,
    free_slots: Vec<usize>,
    /// Wait queue of slab keys in FCFS order.
    queue: IndexedQueue,
    running: BinaryHeap<RunningJob>,
    started: u64,
    metrics: StreamMetrics,
    /// Optional per-job log, in start order; it grows with the trace, so
    /// off unless asked for.
    outcome_log: Option<Vec<JobOutcome>>,
    /// Submit time of the last admitted job, for the monotonicity check.
    last_submit: f64,
    peak_queue: usize,
    peak_running: usize,
    /// Reused scratch for the EASY shadow-time computation.
    release_buf: Vec<(f64, u32)>,
    /// The ranked head's order, once [`StreamSession::rank_by`] asked for it.
    ranked: Option<RankedOrder>,
}

impl<I: Iterator<Item = Job>> StreamSession<I> {
    /// Start a streaming episode over `source` (must be submit-sorted) on
    /// a cluster of `total_procs` processors. Errors with
    /// [`SimError::EmptyTrace`] when the stream holds no schedulable job.
    pub fn new(source: I, total_procs: u32, cfg: SimConfig) -> Result<Self, SimError> {
        let total_procs = total_procs.max(1);
        let mut s = StreamSession {
            source: Admission::new(source, total_procs),
            total_procs,
            cfg,
            time: 0.0,
            free_procs: total_procs,
            slab: Vec::with_capacity(1024),
            free_slots: Vec::with_capacity(1024),
            // Only a session that backfills pays for the backfill index.
            queue: match cfg.backfill {
                BackfillMode::Easy => IndexedQueue::with_first_fit(1024),
                BackfillMode::None => IndexedQueue::with_capacity(1024),
            },
            running: BinaryHeap::with_capacity(64),
            started: 0,
            metrics: StreamMetrics::new(total_procs),
            outcome_log: None,
            last_submit: f64::NEG_INFINITY,
            peak_queue: 0,
            peak_running: 0,
            release_buf: Vec::with_capacity(64),
            ranked: None,
        };
        match s.source.peek_submit() {
            None => return Err(SimError::EmptyTrace),
            Some(t0) => s.time = t0,
        }
        s.absorb_arrivals()?;
        s.advance_to_decision()?;
        Ok(s)
    }

    /// Keep a per-job outcome log (memory grows with the trace — parity
    /// tests and materialized episodes only).
    pub fn with_outcome_log(self) -> Self {
        self.with_outcome_log_for(0, 0)
    }

    /// [`StreamSession::with_outcome_log`] with room reserved for `jobs`
    /// outcomes from `users` distinct users, so starting a job grows
    /// neither the log nor the per-user table.
    pub(crate) fn with_outcome_log_for(mut self, jobs: usize, users: usize) -> Self {
        self.outcome_log = Some(Vec::with_capacity(jobs));
        self.metrics.reserve_users(users);
        self
    }

    /// The metric aggregates folded so far, in start order (complete once
    /// [`done`]).
    ///
    /// [`done`]: StreamSession::done
    pub fn metrics(&self) -> &StreamMetrics {
        &self.metrics
    }

    /// Current virtual time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Processors currently idle.
    pub fn free_procs(&self) -> u32 {
        self.free_procs
    }

    /// Total processors in the cluster.
    pub fn total_procs(&self) -> u32 {
        self.total_procs
    }

    /// Jobs started so far.
    pub fn started_count(&self) -> u64 {
        self.started
    }

    /// Number of jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the wait queue has been.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue
    }

    /// Most jobs that were ever running at once.
    pub fn peak_running(&self) -> usize {
        self.peak_running
    }

    /// True once no decision is pending and no future arrival can create
    /// one: the episode is over (running jobs finish unattended).
    pub fn done(&self) -> bool {
        self.queue.is_empty() && self.source.pending.is_none() && self.source.exhausted
    }

    /// The outcome log sorted into trace order, as an [`EpisodeMetrics`]:
    /// what a materialized session reports. Returns `None` unless
    /// [`StreamSession::with_outcome_log`] was enabled.
    pub fn log_metrics(&self) -> Option<EpisodeMetrics> {
        let mut outcomes = self.outcome_log.clone()?;
        outcomes.sort_unstable_by_key(|o| o.job_index);
        Some(EpisodeMetrics::new(outcomes, self.total_procs))
    }

    /// The waiting jobs as a policy sees them, FCFS order. `job_index` is
    /// the admission sequence number (== the trace index a materialized
    /// session would report).
    pub fn waiting(&self) -> impl Iterator<Item = WaitingJob<'_>> + '_ {
        self.queue.iter().map(move |key| {
            let (seq, job) = self.slab[key].as_ref().expect("queued slab slot is live");
            WaitingJob {
                job,
                job_index: *seq,
                wait: self.time - job.submit_time,
                can_run_now: job.procs() <= self.free_procs,
            }
        })
    }

    /// Keep the waiting jobs ordered by `(key(job), submit, seq)` from now
    /// on, so [`StreamSession::ranked_head`] can name the minimum without
    /// rescoring the queue. `key` must depend on the job alone — a score
    /// that reads the waiting time changes between decisions and cannot
    /// be ranked this way — and must never return NaN. Jobs already
    /// waiting are ranked too, so this may be called mid-episode; calling
    /// it again replaces the key.
    pub fn rank_by(&mut self, key: fn(&Job) -> f64) {
        self.ranked = Some(RankedOrder {
            key,
            heap: BinaryHeap::with_capacity(self.queue.len()),
        });
        self.rebuild_ranked();
    }

    /// Queue rank of the waiting job with the smallest
    /// `(key, submit, seq)` — the rank a scan of [`waiting`] under the
    /// same key would pick — in O(log n) amortized. `None` when no job
    /// waits or [`rank_by`] was never called.
    ///
    /// [`waiting`]: StreamSession::waiting
    /// [`rank_by`]: StreamSession::rank_by
    pub fn ranked_head(&mut self) -> Option<usize> {
        let heap = &mut self.ranked.as_mut()?.heap;
        while let Some(top) = heap.peek() {
            match self.queue.rank_of_ord(top.ord) {
                Some(rank) => return Some(rank),
                // Started by an earlier pick or by backfill.
                None => heap.pop(),
            };
        }
        None
    }

    /// Entries the ranked order holds, stale ones included (0 when off).
    #[doc(hidden)]
    pub fn ranked_len(&self) -> usize {
        self.ranked.as_ref().map_or(0, |o| o.heap.len())
    }

    /// Refill the ranked order from the jobs waiting now, dropping every
    /// stale entry. Reuses the heap's buffer.
    fn rebuild_ranked(&mut self) {
        let Some(order) = &mut self.ranked else {
            return;
        };
        order.heap.clear();
        for (ord, key) in self.queue.iter_ords() {
            let (seq, job) = self.slab[key].as_ref().expect("queued slab slot is live");
            order.heap.push(order.entry(*seq, job, ord));
        }
    }

    /// Admit one job into the slab and wait queue.
    fn admit(&mut self, seq: usize, job: Job) -> Result<(), SimError> {
        // A NaN submit time has no place in any order, the queue's or the
        // ranked head's, and `<` alone would let it through.
        if job.submit_time.is_nan() || job.submit_time < self.last_submit {
            return Err(SimError::NonMonotoneArrival { seq });
        }
        self.last_submit = job.submit_time;
        // What the backfill index reads, if this session keeps one.
        let fit =
            (self.cfg.backfill == BackfillMode::Easy).then(|| (job.procs(), job.time_bound()));
        let key = match self.free_slots.pop() {
            Some(k) => {
                self.slab[k] = Some((seq, job));
                k
            }
            None => {
                self.slab.push(Some((seq, job)));
                self.slab.len() - 1
            }
        };
        let ord = match fit {
            Some((procs, time_bound)) => self.queue.push_fit(key, procs, time_bound),
            None => self.queue.push(key),
        };
        self.peak_queue = self.peak_queue.max(self.queue.len());
        if let Some(order) = &mut self.ranked {
            let (_, job) = self.slab[key].as_ref().expect("slot was just filled");
            order.heap.push(order.entry(seq, job, ord));
            if order.heap.len() > 2 * self.queue.len() + RANKED_SLACK {
                self.rebuild_ranked();
            }
        }
        Ok(())
    }

    /// Pull every arrival with `submit_time <= self.time` into the queue.
    fn absorb_arrivals(&mut self) -> Result<(), SimError> {
        while let Some(submit) = self.source.peek_submit() {
            if submit > self.time {
                break;
            }
            let (seq, job) = self.source.take().expect("peeked arrival exists");
            self.admit(seq, job)?;
        }
        Ok(())
    }

    /// Start the job in slab slot `key` at the current time, folding its
    /// (now fully determined) outcome into the aggregates and freeing the
    /// slot.
    fn start_job(&mut self, key: usize) {
        let (seq, job) = self.slab[key].take().expect("starting a live slab slot");
        self.free_slots.push(key);
        let procs = job.procs();
        debug_assert!(
            procs <= self.free_procs,
            "start_job must only run when the job fits"
        );
        self.free_procs -= procs;
        let start = self.time;
        let end = start + job.actual_runtime();
        self.running.push(RunningJob {
            end_time: end,
            est_end_time: start + job.time_bound(),
            job_index: seq,
            procs,
        });
        self.peak_running = self.peak_running.max(self.running.len());
        let outcome = JobOutcome {
            job_index: seq,
            submit: job.submit_time,
            start,
            end,
            procs,
            user: job.user_id,
        };
        self.metrics.record(&outcome);
        if let Some(log) = &mut self.outcome_log {
            log.push(outcome);
        }
        self.started += 1;
        debug_assert!(self.free_procs <= self.total_procs);
    }

    /// Advance to the next event (earliest of next completion and next
    /// arrival), processing everything at that instant, completions first
    /// so the freed processors are visible to same-instant arrivals.
    /// Returns `false` when no event remains.
    fn advance_one_event(&mut self) -> Result<bool, SimError> {
        let next_completion = self.running.peek().map(|r| r.end_time);
        let next_arrival = self.source.peek_submit();
        let t = match (next_completion, next_arrival) {
            (Some(c), Some(a)) => c.min(a),
            (Some(c), None) => c,
            (None, Some(a)) => a,
            (None, None) => return Ok(false),
        };
        self.time = self.time.max(t);
        while let Some(r) = self.running.peek() {
            if r.end_time <= self.time {
                let r = self.running.pop().expect("peeked entry exists");
                self.free_procs += r.procs;
                debug_assert!(self.free_procs <= self.total_procs);
            } else {
                break;
            }
        }
        self.absorb_arrivals()?;
        Ok(true)
    }

    /// Advance through events until a decision is pending or the stream is
    /// exhausted.
    fn advance_to_decision(&mut self) -> Result<(), SimError> {
        while self.queue.is_empty() && !self.source.is_empty() {
            let advanced = self.advance_one_event()?;
            debug_assert!(advanced, "pending arrivals imply a next event");
            if !advanced {
                break;
            }
        }
        Ok(())
    }

    /// EASY shadow time for a blocked job needing `needed` processors:
    /// earliest time enough processors free up by *requested* completions;
    /// backfilled jobs must finish (by request) by then. Works in the
    /// session's reusable release buffer, so blocked steps allocate nothing.
    fn estimated_start(&mut self, needed: u32) -> f64 {
        if needed <= self.free_procs {
            return self.time;
        }
        let mut releases = std::mem::take(&mut self.release_buf);
        releases.clear();
        releases.extend(self.running.iter().map(|r| (r.est_end_time, r.procs)));
        // Unstable sort (no allocation); ties on time yield the same
        // shadow value regardless of their relative order.
        releases.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite estimates"));
        let mut free = self.free_procs;
        let mut shadow = None;
        for &(t, p) in &releases {
            free += p;
            if free >= needed {
                shadow = Some(t);
                break;
            }
        }
        self.release_buf = releases;
        // Unreachable once admission has clamped every job to the cluster,
        // but stay total: never before all running jobs end.
        shadow.unwrap_or_else(|| {
            self.running
                .iter()
                .map(|r| r.est_end_time)
                .fold(self.time, f64::max)
        })
    }

    /// EASY backfilling pass: starts, in FCFS order, every waiting job that
    /// fits now and whose *requested* completion does not cross
    /// `shadow_start`, by one first-fit descent per started job.
    /// A single left-to-right pass is complete: `time` and `shadow_start`
    /// do not change in here and `free_procs` only falls, so a job refused
    /// once stays refused and a second look would start nothing.
    /// Out of line: `step` runs for every job of every replay, this only
    /// under EASY.
    #[inline(never)]
    fn backfill_pass(&mut self, shadow_start: f64) {
        let mut rank = 0;
        while let Some(fit) = self
            .queue
            .first_fit(rank, self.free_procs, self.time, shadow_start)
        {
            let key = self.queue.remove_at(fit);
            self.start_job(key);
            // The next waiting job moved into the rank just vacated.
            rank = fit;
        }
    }

    /// Schedule the waiting job at queue rank `pos` (FCFS order).
    ///
    /// On return the selected job has started; virtual time may have
    /// advanced past arrivals and completions, and (with EASY) other queued
    /// jobs may have been backfilled.
    pub fn step(&mut self, pos: usize) -> Result<(), SimError> {
        if self.queue.is_empty() {
            return Err(SimError::EmptyQueue);
        }
        if pos >= self.queue.len() {
            return Err(SimError::BadQueuePosition {
                pos,
                queue_len: self.queue.len(),
            });
        }
        let key = self.queue.remove_at(pos);
        let needed = self.slab[key]
            .as_ref()
            .expect("selected slot live")
            .1
            .procs();

        if needed <= self.free_procs {
            self.start_job(key);
        } else {
            // The selected job becomes the reservation; compute its shadow
            // start once from requested runtimes, as EASY does.
            let shadow = self.estimated_start(needed);
            while needed > self.free_procs {
                if self.cfg.backfill == BackfillMode::Easy {
                    self.backfill_pass(shadow);
                }
                if needed <= self.free_procs {
                    break;
                }
                let advanced = self.advance_one_event()?;
                debug_assert!(
                    advanced || needed <= self.free_procs,
                    "reserved job must eventually fit: events exhausted while blocked"
                );
                if !advanced {
                    break;
                }
            }
            self.start_job(key);
        }

        self.advance_to_decision()
    }
}

/// A session over a job list ([`crate::SchedSession`]'s source) can count
/// what it has yet to admit.
impl StreamSession<std::vec::IntoIter<Job>> {
    /// Schedulable jobs not yet in the wait queue: the buffered next
    /// arrival and the rest of the list.
    pub(crate) fn unadmitted(&self) -> usize {
        let rest = self.source.inner.as_slice().iter();
        usize::from(self.source.pending.is_some()) + rest.filter(|j| j.is_schedulable()).count()
    }
}

/// The reference simulator the parity tests answer to; it lives with the
/// integration tests, which use it too.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::reference_starts;
    use super::*;
    use crate::session::SchedSession;
    use rand::prelude::*;
    use rlsched_swf::JobTrace;

    fn random_jobs(seed: u64, n: usize) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                t += rng.gen_range(0.0..30.0);
                Job::new(
                    i as u32 + 1,
                    t,
                    rng.gen_range(1.0..200.0),
                    rng.gen_range(1..=8),
                    rng.gen_range(1.0..250.0),
                )
                .with_user(rng.gen_range(0..5))
            })
            .collect()
    }

    /// Start times in trace order, as `reference_starts` reports them.
    /// (`random_jobs` are schedulable, sane and no wider than the cluster:
    /// admission leaves them as they are, and so the reference reads them.)
    fn starts(m: &EpisodeMetrics) -> Vec<f64> {
        m.outcomes().iter().map(|o| o.start).collect()
    }

    /// Every aggregate of a fold, as bits.
    fn bits(m: &StreamMetrics) -> [u64; 8] {
        [
            m.count(),
            m.avg_waiting_time().to_bits(),
            m.avg_turnaround().to_bits(),
            m.avg_slowdown().to_bits(),
            m.avg_bounded_slowdown().to_bits(),
            m.makespan().to_bits(),
            m.utilization().to_bits(),
            m.max_user_bounded_slowdown().to_bits(),
        ]
    }

    /// The same jobs, FCFS, through a materialized and a streaming session:
    /// their trace-order metrics, and their start-order folds.
    fn run_both_fcfs(
        jobs: Vec<Job>,
        procs: u32,
        cfg: SimConfig,
    ) -> ([EpisodeMetrics; 2], [StreamMetrics; 2]) {
        let trace = JobTrace::new(jobs.clone(), procs);
        let mut sess = SchedSession::from_trace(&trace, cfg).unwrap();
        while !sess.done() {
            sess.step(0).unwrap();
        }
        let mut stream = StreamSession::new(jobs.iter().cloned(), procs, cfg)
            .unwrap()
            .with_outcome_log();
        let mut decisions = 0;
        while !stream.done() {
            stream.step(0).unwrap();
            decisions += 1;
        }
        let log = stream.log_metrics().unwrap();
        let easy = cfg.backfill == BackfillMode::Easy;
        let want = reference_starts(&jobs, procs, easy, &vec![0; decisions]);
        assert_eq!(starts(&log), want, "{cfg:?}");
        (
            [sess.episode_metrics().unwrap(), log],
            [sess.metrics().clone(), stream.metrics().clone()],
        )
    }

    #[test]
    fn matches_materialized_session_bit_for_bit() {
        for seed in 0..4 {
            for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
                let jobs = random_jobs(seed, 300);
                let ([sess_m, stream_m], [sess_acc, acc]) = run_both_fcfs(jobs, 8, cfg);
                // The materialized session against the streaming log.
                assert_eq!(sess_m, stream_m, "seed {seed}, cfg {cfg:?}");
                // Both sessions fold the same starts in the same order.
                assert_eq!(bits(&sess_acc), bits(&acc), "seed {seed}, cfg {cfg:?}");
                // The fold runs in start order, the episode's in trace
                // order, so only to tolerance.
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
                assert!(rel(acc.avg_bounded_slowdown(), sess_m.avg_bounded_slowdown()) < 1e-9);
                assert!(rel(acc.avg_waiting_time(), sess_m.avg_waiting_time()) < 1e-9);
                assert!(rel(acc.utilization(), sess_m.utilization()) < 1e-9);
                assert!(
                    rel(
                        acc.max_user_bounded_slowdown(),
                        sess_m.max_user_bounded_slowdown()
                    ) < 1e-9
                );
            }
        }
    }

    #[test]
    fn memory_stays_bounded_by_queue_depth() {
        // 5000 jobs trickling through a fast cluster: the slab must stay
        // near the peak queue depth, far below the trace length.
        let jobs = random_jobs(9, 5000);
        let mut s = StreamSession::new(jobs.into_iter(), 64, SimConfig::with_backfill()).unwrap();
        while !s.done() {
            s.step(0).unwrap();
        }
        assert_eq!(s.started_count(), 5000);
        assert!(
            s.slab.len() <= s.peak_queue_depth() + 1,
            "slab {} vs peak queue {}",
            s.slab.len(),
            s.peak_queue_depth()
        );
        assert!(s.peak_queue_depth() < 5000);
    }

    #[test]
    fn unsorted_stream_is_rejected() {
        // The regression is two jobs in: absorbed at the same decision
        // point, so the error surfaces at construction.
        let jobs = vec![
            Job::new(1, 100.0, 10.0, 1, 10.0),
            Job::new(2, 5.0, 10.0, 1, 10.0),
        ];
        assert_eq!(
            StreamSession::new(jobs.into_iter(), 4, SimConfig::default()).unwrap_err(),
            SimError::NonMonotoneArrival { seq: 1 }
        );
        // A later regression surfaces from step() while replaying.
        let jobs = vec![
            Job::new(1, 0.0, 500.0, 4, 500.0),
            Job::new(2, 100.0, 10.0, 1, 10.0),
            Job::new(3, 50.0, 10.0, 1, 10.0),
        ];
        let mut s = StreamSession::new(jobs.into_iter(), 4, SimConfig::default()).unwrap();
        let err = loop {
            match s.step(0) {
                Ok(()) => assert!(!s.done(), "regression went unnoticed"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, SimError::NonMonotoneArrival { seq: 2 });
        // NaN compares false with everything, so `<` alone would admit it.
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 1, 10.0),
            Job::new(2, f64::NAN, 10.0, 1, 10.0),
        ];
        assert_eq!(
            StreamSession::new(jobs.into_iter(), 4, SimConfig::default()).unwrap_err(),
            SimError::NonMonotoneArrival { seq: 1 }
        );
    }

    #[test]
    fn ranked_head_names_the_minimum_key_among_the_waiting() {
        // Shortest request first, switched on a few decisions in, with
        // backfill starting jobs behind the order's back.
        let mut s = StreamSession::new(
            random_jobs(5, 400).into_iter(),
            8,
            SimConfig::with_backfill(),
        )
        .unwrap();
        assert_eq!(s.ranked_head(), None, "no order until rank_by");
        for _ in 0..10 {
            s.step(0).unwrap();
        }
        s.rank_by(Job::time_bound);
        while !s.done() {
            let want = s
                .waiting()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let key = |w: &WaitingJob| (w.job.time_bound(), w.job.submit_time, w.job_index);
                    key(a).partial_cmp(&key(b)).unwrap()
                })
                .map(|(rank, _)| rank);
            let got = s.ranked_head();
            assert_eq!(got, want);
            assert!(s.ranked_len() <= 2 * s.peak_queue_depth() + RANKED_SLACK + 1);
            s.step(got.unwrap()).unwrap();
        }
        assert_eq!(s.ranked_head(), None);
        assert_eq!(s.started_count(), 400);
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert_eq!(
            StreamSession::new(std::iter::empty(), 4, SimConfig::default()).unwrap_err(),
            SimError::EmptyTrace
        );
    }

    #[test]
    fn unschedulable_records_are_skipped() {
        let mut bad = Job::new(1, 0.0, -1.0, 1, 1.0);
        bad.run_time = -1.0;
        bad.requested_procs = -1;
        bad.used_procs = -1;
        let ok = Job::new(2, 1.0, 5.0, 1, 5.0);
        let mut s = StreamSession::new(vec![bad, ok].into_iter(), 4, SimConfig::default()).unwrap();
        s.step(0).unwrap();
        assert!(s.done());
        assert_eq!(s.started_count(), 1);
        assert_eq!(s.metrics().count(), 1);
    }

    #[test]
    fn step_errors_match_session() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 1, 10.0)];
        let mut s = StreamSession::new(jobs.into_iter(), 4, SimConfig::default()).unwrap();
        assert!(matches!(
            s.step(3),
            Err(SimError::BadQueuePosition {
                pos: 3,
                queue_len: 1
            })
        ));
        s.step(0).unwrap();
        assert_eq!(s.step(0).unwrap_err(), SimError::EmptyQueue);
    }

    #[test]
    fn out_of_order_selection_matches_session() {
        // Random (seeded) selections instead of FCFS, both backfill modes.
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            let jobs = random_jobs(17, 200);
            let trace = JobTrace::new(jobs.clone(), 8);
            let mut sess = SchedSession::from_trace(&trace, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let mut picks = Vec::new();
            while !sess.done() {
                let p = rng.gen_range(0..sess.queue_len());
                picks.push(p);
                sess.step(p).unwrap();
            }
            let mut stream = StreamSession::new(jobs.iter().cloned(), 8, cfg)
                .unwrap()
                .with_outcome_log();
            for &p in &picks {
                stream.step(p).unwrap();
            }
            assert!(stream.done());
            let log = stream.log_metrics().unwrap();
            assert_eq!(sess.episode_metrics().unwrap(), log);
            let easy = cfg.backfill == BackfillMode::Easy;
            assert_eq!(starts(&log), reference_starts(&jobs, 8, easy, &picks));
        }
    }
}
