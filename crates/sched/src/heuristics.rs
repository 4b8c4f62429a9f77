//! The priority functions of Table III, plus two auxiliary heuristics used
//! in tests and ablations.

use std::convert::Infallible;

use rlsched_sim::{Outcomes, Policy, StreamSession, WaitingJob};
use rlsched_swf::Job;

/// Which priority function a [`PriorityScheduler`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// First Come First Served: `score = s_t`.
    Fcfs,
    /// Shortest Job First (by requested runtime): `score = r_t`.
    Sjf,
    /// `score = -(w_t/r_t)^3 * n_t` (Tang et al. \[3\]).
    Wfp3,
    /// `score = -w_t / (log2(n_t) * r_t)` (Tang et al. \[3\]).
    Unicep,
    /// `score = log10(r_t)*n_t + 870*log10(s_t)` (Carastan-Santos et al. \[4\]).
    F1,
    /// Longest Job First — the SJF mirror, used in tests/ablations only.
    Ljf,
    /// Fewest requested processors first — used in tests/ablations only.
    SmallestFirst,
}

impl HeuristicKind {
    /// The five schedulers of Table III, in the paper's column order.
    pub fn table3() -> [HeuristicKind; 5] {
        [
            HeuristicKind::Fcfs,
            HeuristicKind::Wfp3,
            HeuristicKind::Unicep,
            HeuristicKind::Sjf,
            HeuristicKind::F1,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Fcfs => "FCFS",
            HeuristicKind::Sjf => "SJF",
            HeuristicKind::Wfp3 => "WFP3",
            HeuristicKind::Unicep => "UNICEP",
            HeuristicKind::F1 => "F1",
            HeuristicKind::Ljf => "LJF",
            HeuristicKind::SmallestFirst => "SmallestFirst",
        }
    }

    /// The raw priority score; **smaller is scheduled first**.
    ///
    /// Guards: `log2(n)` is evaluated on `max(n, 2)` (a 1-processor job
    /// would otherwise divide by zero — the reference implementation
    /// produces `-inf`, i.e. top priority, so the clamp only softens an
    /// already-degenerate case) and `log10(s)` on `max(s, 1)` (windowed
    /// sequences start at `s = 0`).
    pub fn score(self, w: &WaitingJob<'_>) -> f64 {
        let wt = w.wait.max(0.0);
        let rt = w.job.time_bound();
        let nt = w.job.procs() as f64;
        let st = w.job.submit_time;
        match self {
            HeuristicKind::Fcfs => st,
            HeuristicKind::Sjf => rt,
            HeuristicKind::Wfp3 => -(wt / rt).powi(3) * nt,
            HeuristicKind::Unicep => -wt / ((nt.max(2.0)).log2() * rt),
            HeuristicKind::F1 => rt.log10() * nt + 870.0 * st.max(1.0).log10(),
            HeuristicKind::Ljf => -rt,
            HeuristicKind::SmallestFirst => nt,
        }
    }

    /// The score as a function of the job alone, for the kinds whose score
    /// never reads the waiting time (every kind but WFP3 and UNICEP, which
    /// return `None`). A job's `(score, submit, index)` key is then fixed
    /// when it is admitted, so an order over the keys can be kept
    /// incrementally (`rlsched_sim::StreamSession::rank_by`) instead of
    /// rescoring the queue at every decision.
    ///
    /// Each function calls [`HeuristicKind::score`] on the job with a zero
    /// wait, so its bits cannot drift from what [`select_streaming`]
    /// compares. Never NaN: [`Job::time_bound`] clamps through `f64::max`.
    pub fn static_key(self) -> Option<fn(&Job) -> f64> {
        fn at_admission(kind: HeuristicKind, job: &Job) -> f64 {
            kind.score(&WaitingJob {
                job,
                job_index: 0,
                wait: 0.0,
                can_run_now: false,
            })
        }
        match self {
            HeuristicKind::Fcfs => Some(|j| at_admission(HeuristicKind::Fcfs, j)),
            HeuristicKind::Sjf => Some(|j| at_admission(HeuristicKind::Sjf, j)),
            HeuristicKind::F1 => Some(|j| at_admission(HeuristicKind::F1, j)),
            HeuristicKind::Ljf => Some(|j| at_admission(HeuristicKind::Ljf, j)),
            HeuristicKind::SmallestFirst => Some(|j| at_admission(HeuristicKind::SmallestFirst, j)),
            HeuristicKind::Wfp3 | HeuristicKind::Unicep => None,
        }
    }

    /// The priority score computed from the *wire-visible* schedule-time
    /// parts of a job — waiting time, requested runtime bound, requested
    /// processors — with no absolute clock. This is what a serving tier's
    /// heuristic fallback can evaluate from a `QueueSnapshot`, where jobs
    /// carry `wait` but not `submit_time`.
    ///
    /// Every waiting job in one decision point shares the same current
    /// time `t`, so `s_t = t - w_t` and ordering by submit time ascending
    /// is ordering by wait descending: FCFS scores `-w_t` here and picks
    /// the same job as [`HeuristicKind::score`]. All other kinds except F1
    /// read only `(w_t, r_t, n_t)` and score identically to
    /// [`HeuristicKind::score`]. F1 genuinely needs the absolute submit
    /// time (`870·log10(s_t)` is not shift-invariant) and returns `None` —
    /// callers must reject it as a fallback kind up front
    /// ([`HeuristicKind::wire_scorable`]).
    pub fn score_parts(self, wait: f64, time_bound: f64, procs: u32) -> Option<f64> {
        let wt = wait.max(0.0);
        let rt = time_bound;
        let nt = procs as f64;
        match self {
            HeuristicKind::Fcfs => Some(-wt),
            HeuristicKind::Sjf => Some(rt),
            HeuristicKind::Wfp3 => Some(-(wt / rt).powi(3) * nt),
            HeuristicKind::Unicep => Some(-wt / ((nt.max(2.0)).log2() * rt)),
            HeuristicKind::F1 => None,
            HeuristicKind::Ljf => Some(-rt),
            HeuristicKind::SmallestFirst => Some(nt),
        }
    }

    /// True when [`HeuristicKind::score_parts`] can evaluate this kind —
    /// i.e. the kind is usable as a serving-tier fallback heuristic.
    pub fn wire_scorable(self) -> bool {
        self != HeuristicKind::F1
    }
}

/// Pick the queue slot a [`PriorityScheduler`] of `kind` would schedule,
/// from wire-visible job parts `(wait, time_bound, procs)` in FCFS queue
/// order — the serving-tier fallback selector.
///
/// Decision-equivalent to [`select_streaming`] on the same queue:
/// scores come from [`HeuristicKind::score_parts`] (identical
/// orderings, see there), and the tie-break mirrors its
/// `(score, submit_time, job_index)` key — within one decision point
/// submit ascending ⇔ wait descending, and the FCFS queue order makes
/// the slot index the final `(submit, trace-index)` tie-break.
///
/// Stateless over one snapshot: every call rescores the `jobs` it is
/// handed, O(n), for static-key kinds too. It does not inherit a
/// streaming replay's ranked head (`StreamSession::ranked_head`) — a
/// wire request carries at most one observation window of jobs and no
/// queue history to keep an order over.
///
/// Returns `None` when the iterator is empty or `kind` is not
/// wire-scorable (F1). Never allocates.
pub fn select_parts(
    kind: HeuristicKind,
    jobs: impl Iterator<Item = (f64, f64, u32)>,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    // (score asc, wait desc) — smaller key wins; earlier slot wins ties.
    let mut best_key = (f64::INFINITY, f64::NEG_INFINITY);
    for (slot, (wait, time_bound, procs)) in jobs.enumerate() {
        let score = kind.score_parts(wait, time_bound, procs)?;
        let key = (score, -wait);
        if best.is_none() || key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
            best_key = key;
            best = Some(slot);
        }
    }
    best
}

/// The queue rank with the smallest `(score, submit_time, job_index)` —
/// ties by submit time, then trace index — among a stream of waiting jobs:
/// the definition of what a priority function picks. One O(n) rescoring of
/// the queue per call.
///
/// [`PriorityScheduler`] asks it at every decision of the wait-dependent
/// kinds only (WFP3, UNICEP: their scores change between decisions, so
/// there is nothing to keep). Kinds with a [`HeuristicKind::static_key`]
/// are ranked incrementally instead, and this function is the reference
/// those ranked heads are tested against, decision for decision; it is
/// also how a snapshot (`QueueView::waiting`) is scored. Never allocates.
/// Returns `None` on an empty queue.
pub fn select_streaming<'a>(
    kind: HeuristicKind,
    jobs: impl Iterator<Item = WaitingJob<'a>>,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
    for (rank, w) in jobs.enumerate() {
        let key = (kind.score(&w), w.job.submit_time, w.job_index);
        if best.is_none()
            || key.0 < best_key.0
            || (key.0 == best_key.0
                && (key.1 < best_key.1 || (key.1 == best_key.1 && key.2 < best_key.2)))
        {
            best_key = key;
            best = Some(rank);
        }
    }
    best
}

/// A [`Policy`] that schedules the waiting job with the smallest priority
/// score, breaking ties by submit time then trace index (deterministic).
///
/// How it finds that job is a function of the kind alone. FCFS takes the
/// front of the wait queue (the session rejects non-monotone arrivals, so
/// the front *is* the `(submit, submit, index)` minimum). A kind with a
/// [`HeuristicKind::static_key`] has the session keep the queue ranked by
/// it and reads the head, O(log n). WFP3 and UNICEP age their jobs between
/// decisions and rescore the queue each time ([`select_streaming`]), O(n).
#[derive(Debug, Clone, Copy)]
pub struct PriorityScheduler {
    kind: HeuristicKind,
}

impl PriorityScheduler {
    /// Build a scheduler applying `kind`'s priority function.
    pub fn new(kind: HeuristicKind) -> Self {
        PriorityScheduler { kind }
    }

    /// The underlying priority function.
    pub fn kind(&self) -> HeuristicKind {
        self.kind
    }

    /// All Table III schedulers, ready to run.
    pub fn table3() -> Vec<PriorityScheduler> {
        HeuristicKind::table3().into_iter().map(Self::new).collect()
    }
}

impl Policy for PriorityScheduler {
    type Error = Infallible;

    fn attach<I: Iterator<Item = Job>, O: Outcomes>(&mut self, session: &mut StreamSession<I, O>) {
        if self.kind == HeuristicKind::Fcfs {
            return; // reads the front of the queue, not an order
        }
        if let Some(key) = self.kind.static_key() {
            session.rank_by(key);
        }
    }

    fn pick<I: Iterator<Item = Job>, O: Outcomes>(
        &mut self,
        session: &mut StreamSession<I, O>,
    ) -> Result<usize, Infallible> {
        let rank = match self.kind {
            HeuristicKind::Fcfs => Some(0),
            kind if kind.static_key().is_some() => session.ranked_head(),
            kind => select_streaming(kind, session.waiting()),
        };
        Ok(rank.expect("decision points always have waiting jobs"))
    }

    fn name(&self) -> &str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_sim::QueueView;

    fn view_of(jobs: &[Job], time: f64, free: u32, total: u32) -> QueueView<'_> {
        QueueView {
            time,
            free_procs: free,
            total_procs: total,
            waiting: jobs
                .iter()
                .enumerate()
                .map(|(i, job)| WaitingJob {
                    job,
                    job_index: i,
                    wait: time - job.submit_time,
                    can_run_now: job.procs() <= free,
                })
                .collect(),
        }
    }

    /// The slot `kind` schedules out of the snapshot `v`.
    fn pick(kind: HeuristicKind, v: &QueueView<'_>) -> usize {
        select_streaming(kind, v.waiting.iter().copied()).expect("a job waits")
    }

    #[test]
    fn fcfs_picks_earliest_submit() {
        let jobs = vec![
            Job::new(1, 30.0, 10.0, 1, 10.0),
            Job::new(2, 10.0, 10.0, 1, 10.0),
            Job::new(3, 20.0, 10.0, 1, 10.0),
        ];
        let v = view_of(&jobs, 40.0, 4, 4);
        assert_eq!(pick(HeuristicKind::Fcfs, &v), 1);
    }

    #[test]
    fn sjf_picks_shortest_request() {
        let jobs = vec![
            Job::new(1, 0.0, 500.0, 1, 500.0),
            Job::new(2, 0.0, 50.0, 1, 50.0),
            Job::new(3, 0.0, 5000.0, 1, 5000.0),
        ];
        let v = view_of(&jobs, 0.0, 4, 4);
        assert_eq!(pick(HeuristicKind::Sjf, &v), 1);
    }

    #[test]
    fn sjf_uses_requested_not_actual_runtime() {
        // Job 0 actually runs 1s but requested 1000s; job 1 actually runs
        // 500s but requested 10s. SJF must look at requests only.
        let jobs = vec![
            Job::new(1, 0.0, 1.0, 1, 1000.0),
            Job::new(2, 0.0, 500.0, 1, 10.0),
        ];
        let v = view_of(&jobs, 0.0, 4, 4);
        assert_eq!(pick(HeuristicKind::Sjf, &v), 1);
    }

    #[test]
    fn wfp3_favors_long_waiting_short_jobs() {
        // Same runtime/procs; the job waiting longer wins.
        let jobs = vec![
            Job::new(1, 90.0, 10.0, 2, 100.0),
            Job::new(2, 0.0, 10.0, 2, 100.0),
        ];
        let v = view_of(&jobs, 100.0, 4, 4);
        assert_eq!(pick(HeuristicKind::Wfp3, &v), 1);
    }

    #[test]
    fn wfp3_weighs_processor_count() {
        // Equal wait and runtime: more processors => more negative score
        // => scheduled first (the n_t factor scales the whole term).
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 1, 100.0),
            Job::new(2, 0.0, 10.0, 8, 100.0),
        ];
        let v = view_of(&jobs, 50.0, 8, 8);
        assert_eq!(pick(HeuristicKind::Wfp3, &v), 1);
    }

    #[test]
    fn unicep_favors_fewer_procs_for_equal_wait_runtime() {
        // score = -w/(log2(n)*r): smaller n => bigger magnitude => first.
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 16, 100.0),
            Job::new(2, 0.0, 10.0, 4, 100.0),
        ];
        let v = view_of(&jobs, 50.0, 16, 16);
        assert_eq!(pick(HeuristicKind::Unicep, &v), 1);
    }

    #[test]
    fn unicep_single_proc_job_does_not_panic() {
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 1, 100.0),
            Job::new(2, 0.0, 10.0, 4, 100.0),
        ];
        let v = view_of(&jobs, 50.0, 4, 4);
        let pick = pick(HeuristicKind::Unicep, &v);
        assert_eq!(pick, 0, "1-proc job gets top priority under the clamp");
    }

    #[test]
    fn f1_prefers_short_small_early_jobs() {
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 1, 36000.0),
            Job::new(2, 0.0, 10.0, 1, 60.0),
        ];
        let v = view_of(&jobs, 0.0, 4, 4);
        assert_eq!(pick(HeuristicKind::F1, &v), 1);
        // Submit time dominates via the 870x weight: a much later job loses
        // even with a shorter runtime.
        let jobs = vec![
            Job::new(1, 1.0, 10.0, 1, 36000.0),
            Job::new(2, 100000.0, 10.0, 1, 60.0),
        ];
        let v = view_of(&jobs, 100000.0, 4, 4);
        assert_eq!(pick(HeuristicKind::F1, &v), 0);
    }

    #[test]
    fn f1_zero_submit_time_is_finite() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 1, 60.0)];
        let v = view_of(&jobs, 0.0, 4, 4);
        let s = HeuristicKind::F1.score(&v.waiting[0]);
        assert!(s.is_finite());
    }

    #[test]
    fn ljf_mirrors_sjf() {
        let jobs = vec![
            Job::new(1, 0.0, 500.0, 1, 500.0),
            Job::new(2, 0.0, 50.0, 1, 50.0),
        ];
        let v = view_of(&jobs, 0.0, 4, 4);
        assert_eq!(pick(HeuristicKind::Ljf, &v), 0);
        assert_eq!(pick(HeuristicKind::SmallestFirst, &v), 0);
    }

    #[test]
    fn ties_break_by_submit_then_index() {
        let jobs = vec![
            Job::new(2, 5.0, 10.0, 1, 10.0),
            Job::new(1, 5.0, 10.0, 1, 10.0),
        ];
        let v = view_of(&jobs, 10.0, 4, 4);
        // Equal SJF scores and submit times: the lower trace index wins.
        assert_eq!(pick(HeuristicKind::Sjf, &v), 0);
    }

    #[test]
    fn select_parts_matches_priority_scheduler_on_views() {
        // The wire-visible selector must pick the same slot as the full
        // key (what PriorityScheduler schedules by) for every
        // wire-scorable kind, including under score ties (equal runtimes)
        // and wait ties (equal submits).
        let jobs = vec![
            Job::new(1, 0.0, 30.0, 4, 120.0),
            Job::new(2, 5.0, 30.0, 2, 120.0),
            Job::new(3, 5.0, 30.0, 2, 120.0),
            Job::new(4, 9.0, 80.0, 1, 90.0),
            Job::new(5, 12.0, 10.0, 8, 500.0),
        ];
        let v = view_of(&jobs, 40.0, 8, 8);
        for kind in [
            HeuristicKind::Fcfs,
            HeuristicKind::Sjf,
            HeuristicKind::Wfp3,
            HeuristicKind::Unicep,
            HeuristicKind::Ljf,
            HeuristicKind::SmallestFirst,
        ] {
            assert!(kind.wire_scorable());
            let want = pick(kind, &v);
            let got = select_parts(
                kind,
                v.waiting
                    .iter()
                    .map(|w| (w.wait, w.job.time_bound(), w.job.procs())),
            );
            assert_eq!(got, Some(want), "{} diverged", kind.name());
        }
    }

    #[test]
    fn static_key_is_the_score_wherever_the_score_ignores_the_wait() {
        let jobs = vec![
            Job::new(1, 0.0, 0.4, 1, 0.2),
            Job::new(2, 5.0, 30.0, 2, 120.0),
            Job::new(3, 86_400.0, 30.0, 64, 36_000.0),
        ];
        for kind in HeuristicKind::table3()
            .into_iter()
            .chain([HeuristicKind::Ljf, HeuristicKind::SmallestFirst])
        {
            let at = |time: f64| -> Vec<u64> {
                let v = view_of(&jobs, time, 8, 64);
                v.waiting.iter().map(|w| kind.score(w).to_bits()).collect()
            };
            let waits_ignored = at(86_400.0) == at(1e7);
            match kind.static_key() {
                Some(key) => {
                    assert!(waits_ignored, "{} reads the wait", kind.name());
                    let keys: Vec<u64> = jobs.iter().map(|j| key(j).to_bits()).collect();
                    assert_eq!(keys, at(86_400.0), "{} key drifted", kind.name());
                }
                None => assert!(!waits_ignored, "{} could be ranked", kind.name()),
            }
        }
    }

    #[test]
    fn select_parts_rejects_f1_and_empty_queues() {
        assert!(!HeuristicKind::F1.wire_scorable());
        assert_eq!(HeuristicKind::F1.score_parts(1.0, 2.0, 3), None);
        assert_eq!(
            select_parts(HeuristicKind::F1, std::iter::once((1.0, 2.0, 3))),
            None
        );
        assert_eq!(select_parts(HeuristicKind::Sjf, std::iter::empty()), None);
        assert_eq!(
            select_streaming(HeuristicKind::Sjf, std::iter::empty()),
            None
        );
    }

    #[test]
    fn table3_lists_five_named_schedulers() {
        let scheds = PriorityScheduler::table3();
        let names: Vec<&str> = scheds.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["FCFS", "WFP3", "UNICEP", "SJF", "F1"]);
    }

    #[test]
    fn full_episode_with_each_table3_scheduler() {
        use rlsched_sim::{run_episode, SimConfig};
        use rlsched_swf::JobTrace;
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                Job::new(
                    i + 1,
                    (i as f64) * 7.0,
                    30.0 + (i % 7) as f64 * 100.0,
                    1 + (i % 4),
                    40.0 + (i % 7) as f64 * 110.0,
                )
            })
            .collect();
        let t = JobTrace::new(jobs, 6);
        for mut s in PriorityScheduler::table3() {
            for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
                let m = run_episode(&t, cfg, &mut s).unwrap();
                assert_eq!(m.outcomes().len(), 40, "{} scheduled all jobs", s.name());
                assert!(m.avg_bounded_slowdown() >= 1.0);
            }
        }
    }
}
