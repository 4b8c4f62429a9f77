//! Scheduling metrics (§II-A3 of the paper): average waiting time, average
//! turnaround (response) time, average slowdown, average *bounded* slowdown,
//! resource utilization, and the per-user aggregations behind the fairness
//! experiments (§V-F).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// The interactive threshold of the bounded-slowdown metric: 10 seconds,
/// exactly as §II-A3 defines `max((w+e)/max(e, 10), 1)`.
pub const BSLD_THRESHOLD: f64 = 10.0;

/// What happened to one job in a simulated episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Index of the job in the episode trace (trace order).
    pub job_index: usize,
    /// Submit time (seconds from episode start).
    pub submit: f64,
    /// Time the job started running.
    pub start: f64,
    /// Time the job finished (start + actual runtime).
    pub end: f64,
    /// Processors the job occupied.
    pub procs: u32,
    /// User that submitted the job (SWF user id; -1 when unknown).
    pub user: i64,
}

impl JobOutcome {
    /// Waiting time `w = start - submit`.
    pub fn wait(&self) -> f64 {
        self.start - self.submit
    }

    /// Execution time `e = end - start`.
    pub fn exec(&self) -> f64 {
        self.end - self.start
    }

    /// Turnaround (response) time `w + e`.
    pub fn turnaround(&self) -> f64 {
        self.end - self.submit
    }

    /// Raw slowdown `(w + e) / e`, with the execution time floored at one
    /// second (zero-length jobs exist in archives and would divide by zero).
    pub fn slowdown(&self) -> f64 {
        let e = self.exec().max(1.0);
        (self.wait() + e) / e
    }

    /// Bounded slowdown `max((w + e) / max(e, 10), 1)` per §II-A3.
    pub fn bounded_slowdown(&self) -> f64 {
        let e = self.exec();
        ((self.wait() + e) / e.max(BSLD_THRESHOLD)).max(1.0)
    }
}

/// The optimization goals of the paper (§II-A3). All but `Utilization` are
/// minimized; `Utilization` is maximized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Average waiting time (`wait`).
    WaitTime,
    /// Average response/turnaround time (`resp`).
    Turnaround,
    /// Average raw slowdown (appendix A of the paper).
    Slowdown,
    /// Average bounded slowdown (`bsld`), the headline metric.
    BoundedSlowdown,
    /// Resource utilization (`util`).
    Utilization,
    /// Maximal per-user average bounded slowdown (the `Maximal` fairness
    /// aggregator of §V-F applied to bsld).
    FairMaxBoundedSlowdown,
}

impl MetricKind {
    /// True when a larger value is better (only utilization).
    pub fn maximize(self) -> bool {
        matches!(self, MetricKind::Utilization)
    }

    /// Short machine-friendly name used by the repro harness.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::WaitTime => "wait",
            MetricKind::Turnaround => "resp",
            MetricKind::Slowdown => "sld",
            MetricKind::BoundedSlowdown => "bsld",
            MetricKind::Utilization => "util",
            MetricKind::FairMaxBoundedSlowdown => "fair-max-bsld",
        }
    }
}

/// Running aggregates of the paper's metrics (§II-A3), folded one
/// [`JobOutcome`] at a time so no per-job state survives the episode. Every
/// session folds one as its jobs start, and an [`EpisodeMetrics`] is this
/// fold over its outcomes in trace order: the metrics are defined once,
/// here.
#[derive(Debug, Clone, Default)]
pub struct StreamMetrics {
    total_procs: u32,
    n: u64,
    sum_wait: f64,
    sum_turnaround: f64,
    sum_slowdown: f64,
    sum_bounded: f64,
    /// Busy processor-seconds, for the utilization integral.
    busy: f64,
    first_submit: f64,
    last_end: f64,
    /// Per-user (sum of bounded slowdowns, job count) for the fairness
    /// aggregator. Bounded by the number of distinct users, not jobs.
    per_user: HashMap<i64, (f64, u64)>,
}

impl StreamMetrics {
    pub(crate) fn new(total_procs: u32) -> Self {
        StreamMetrics {
            total_procs,
            first_submit: f64::INFINITY,
            last_end: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Room for `users` distinct users, so folding their jobs allocates
    /// nothing.
    pub(crate) fn reserve_users(&mut self, users: usize) {
        self.per_user.reserve(users);
    }

    /// Fold in the outcome of a job that has started; its end is already
    /// known.
    pub(crate) fn record(&mut self, o: &JobOutcome) {
        self.n += 1;
        self.sum_wait += o.wait();
        self.sum_turnaround += o.turnaround();
        self.sum_slowdown += o.slowdown();
        self.sum_bounded += o.bounded_slowdown();
        self.busy += o.exec() * o.procs as f64;
        self.first_submit = self.first_submit.min(o.submit);
        self.last_end = self.last_end.max(o.end);
        let e = self.per_user.entry(o.user).or_insert((0.0, 0));
        e.0 += o.bounded_slowdown();
        e.1 += 1;
    }

    /// Jobs folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    fn avg(&self, sum: f64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            sum / self.n as f64
        }
    }

    /// Average waiting time.
    pub fn avg_waiting_time(&self) -> f64 {
        self.avg(self.sum_wait)
    }

    /// Average turnaround (response) time.
    pub fn avg_turnaround(&self) -> f64 {
        self.avg(self.sum_turnaround)
    }

    /// Average raw slowdown.
    pub fn avg_slowdown(&self) -> f64 {
        self.avg(self.sum_slowdown)
    }

    /// Average bounded slowdown — the paper's headline metric.
    pub fn avg_bounded_slowdown(&self) -> f64 {
        self.avg(self.sum_bounded)
    }

    /// Makespan: last completion minus first submission.
    pub fn makespan(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.last_end - self.first_submit
        }
    }

    /// Resource utilization: busy processor-seconds divided by the cluster
    /// capacity over the interval from first submission to last completion
    /// (§II-A3 "average percentage of compute nodes allocated … over a given
    /// period of time").
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        self.busy / (span * self.total_procs as f64)
    }

    /// The `Maximal` fairness aggregator of §V-F: the worst per-user average
    /// bounded slowdown. Jobs with unknown user (-1) form their own group.
    pub fn max_user_bounded_slowdown(&self) -> f64 {
        self.per_user
            .values()
            .map(|&(s, c)| s / c as f64)
            .fold(0.0, f64::max)
    }

    /// Evaluate a named metric.
    pub fn metric(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::WaitTime => self.avg_waiting_time(),
            MetricKind::Turnaround => self.avg_turnaround(),
            MetricKind::Slowdown => self.avg_slowdown(),
            MetricKind::BoundedSlowdown => self.avg_bounded_slowdown(),
            MetricKind::Utilization => self.utilization(),
            MetricKind::FairMaxBoundedSlowdown => self.max_user_bounded_slowdown(),
        }
    }
}

/// Complete result of one scheduled episode: every job's outcome, in trace
/// order. Its metrics are the [`StreamMetrics`] fold over those outcomes,
/// summed in that order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeMetrics {
    outcomes: Vec<JobOutcome>,
    total_procs: u32,
}

impl EpisodeMetrics {
    /// Assemble metrics from per-job outcomes and the cluster size.
    pub fn new(outcomes: Vec<JobOutcome>, total_procs: u32) -> Self {
        EpisodeMetrics {
            outcomes,
            total_procs,
        }
    }

    /// Per-job outcomes, in trace order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Cluster size used for the utilization integral.
    pub fn total_procs(&self) -> u32 {
        self.total_procs
    }

    /// The outcomes folded in trace order.
    fn fold(&self) -> StreamMetrics {
        let mut m = StreamMetrics::new(self.total_procs);
        for o in &self.outcomes {
            m.record(o);
        }
        m
    }

    /// Average waiting time over all jobs.
    pub fn avg_waiting_time(&self) -> f64 {
        self.fold().avg_waiting_time()
    }

    /// Average turnaround time over all jobs.
    pub fn avg_turnaround(&self) -> f64 {
        self.fold().avg_turnaround()
    }

    /// Average raw slowdown over all jobs.
    pub fn avg_slowdown(&self) -> f64 {
        self.fold().avg_slowdown()
    }

    /// Average bounded slowdown over all jobs — the paper's primary metric.
    pub fn avg_bounded_slowdown(&self) -> f64 {
        self.fold().avg_bounded_slowdown()
    }

    /// Resource utilization ([`StreamMetrics::utilization`]).
    pub fn utilization(&self) -> f64 {
        self.fold().utilization()
    }

    /// The worst per-user average bounded slowdown (§V-F `Maximal`).
    pub fn max_user_bounded_slowdown(&self) -> f64 {
        self.fold().max_user_bounded_slowdown()
    }

    /// Evaluate a named metric.
    pub fn metric(&self, kind: MetricKind) -> f64 {
        self.fold().metric(kind)
    }

    /// Makespan: last completion minus first submission.
    pub fn makespan(&self) -> f64 {
        self.fold().makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(submit: f64, start: f64, end: f64, procs: u32, user: i64) -> JobOutcome {
        JobOutcome {
            job_index: 0,
            submit,
            start,
            end,
            procs,
            user,
        }
    }

    #[test]
    fn wait_exec_turnaround() {
        let o = outcome(10.0, 25.0, 125.0, 4, 1);
        assert_eq!(o.wait(), 15.0);
        assert_eq!(o.exec(), 100.0);
        assert_eq!(o.turnaround(), 115.0);
    }

    #[test]
    fn slowdown_matches_definition() {
        let o = outcome(0.0, 100.0, 200.0, 1, 1);
        assert_eq!(o.slowdown(), 2.0);
    }

    #[test]
    fn bounded_slowdown_clamps_short_jobs() {
        // 1-second job waiting 9 seconds: raw slowdown is 10, but bounded
        // slowdown is (9 + 1)/max(1, 10) = 1.
        let o = outcome(0.0, 9.0, 10.0, 1, 1);
        assert_eq!(o.slowdown(), 10.0);
        assert_eq!(o.bounded_slowdown(), 1.0);
    }

    #[test]
    fn bounded_slowdown_floors_at_one() {
        let o = outcome(0.0, 0.0, 1000.0, 1, 1);
        assert_eq!(o.bounded_slowdown(), 1.0);
    }

    #[test]
    fn bounded_slowdown_long_job() {
        // 100-second job waiting 100 seconds: (100+100)/max(100,10) = 2.
        let o = outcome(0.0, 100.0, 200.0, 1, 1);
        assert_eq!(o.bounded_slowdown(), 2.0);
    }

    #[test]
    fn utilization_full_cluster() {
        // Two jobs back to back occupying the whole 4-proc cluster.
        let m = EpisodeMetrics::new(
            vec![
                outcome(0.0, 0.0, 50.0, 4, 1),
                outcome(0.0, 50.0, 100.0, 4, 1),
            ],
            4,
        );
        assert!((m.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_half_cluster() {
        let m = EpisodeMetrics::new(vec![outcome(0.0, 0.0, 100.0, 2, 1)], 4);
        assert!((m.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_user_aggregation_and_max() {
        let m = EpisodeMetrics::new(
            vec![
                outcome(0.0, 0.0, 100.0, 1, 1),   // bsld 1
                outcome(0.0, 100.0, 200.0, 1, 2), // bsld 2
                outcome(0.0, 300.0, 400.0, 1, 2), // bsld 4
            ],
            4,
        );
        // User 1 averages 1, user 2 averages 3: the worst user is 2.
        assert!((m.max_user_bounded_slowdown() - 3.0).abs() < 1e-12);
        assert!((m.avg_bounded_slowdown() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn metric_dispatch_matches_direct_calls() {
        let m = EpisodeMetrics::new(vec![outcome(0.0, 10.0, 110.0, 2, 1)], 4);
        assert_eq!(m.metric(MetricKind::WaitTime), m.avg_waiting_time());
        assert_eq!(m.metric(MetricKind::Turnaround), m.avg_turnaround());
        assert_eq!(m.metric(MetricKind::Slowdown), m.avg_slowdown());
        assert_eq!(
            m.metric(MetricKind::BoundedSlowdown),
            m.avg_bounded_slowdown()
        );
        assert_eq!(m.metric(MetricKind::Utilization), m.utilization());
        assert_eq!(
            m.metric(MetricKind::FairMaxBoundedSlowdown),
            m.max_user_bounded_slowdown()
        );
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = EpisodeMetrics::new(vec![], 4);
        assert_eq!(m.avg_waiting_time(), 0.0);
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.makespan(), 0.0);
        assert_eq!(m.max_user_bounded_slowdown(), 0.0);
    }

    #[test]
    fn only_utilization_maximizes() {
        assert!(MetricKind::Utilization.maximize());
        assert!(!MetricKind::BoundedSlowdown.maximize());
        assert!(!MetricKind::FairMaxBoundedSlowdown.maximize());
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(MetricKind::BoundedSlowdown.name(), "bsld");
        assert_eq!(MetricKind::Utilization.name(), "util");
    }
}
