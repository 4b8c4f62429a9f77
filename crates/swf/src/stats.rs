//! Trace characteristics: the Table II columns of the paper plus the
//! per-user counts behind the fairness discussion (§V-F).

use std::collections::HashMap;

use crate::trace::JobTrace;

/// Summary statistics of a job trace, matching Table II of the paper:
/// cluster size, mean interarrival time `it`, mean requested runtime `rt`,
/// and mean requested processors `nt`, plus extra moments used by the
/// workload calibration tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of jobs summarized.
    pub jobs: usize,
    /// Cluster size (`size` column of Table II).
    pub max_procs: u32,
    /// Mean interarrival time in seconds (`it`).
    pub mean_interarrival: f64,
    /// Mean requested runtime in seconds (`rt`).
    pub mean_requested_time: f64,
    /// Mean requested processors (`nt`).
    pub mean_requested_procs: f64,
    /// Mean actual runtime in seconds.
    pub mean_run_time: f64,
    /// Coefficient of variation of interarrival times (burstiness signal —
    /// the PIK trace's defining property in §III-2).
    pub cv_interarrival: f64,
    /// Coefficient of variation of actual runtimes.
    pub cv_run_time: f64,
    /// Fraction of jobs whose processor request is a power of two.
    pub pow2_fraction: f64,
    /// Number of distinct users.
    pub users: usize,
    /// Jobs submitted by the most active user.
    pub max_user_jobs: usize,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt() / m
}

impl TraceStats {
    /// Compute statistics over an entire trace.
    pub fn from_trace(trace: &JobTrace) -> TraceStats {
        let jobs = trace.jobs();
        let inter: Vec<f64> = jobs
            .windows(2)
            .map(|w| w[1].submit_time - w[0].submit_time)
            .collect();
        let req_time: Vec<f64> = jobs.iter().map(|j| j.time_bound()).collect();
        let run_time: Vec<f64> = jobs.iter().map(|j| j.actual_runtime()).collect();
        let req_procs: Vec<f64> = jobs.iter().map(|j| j.procs() as f64).collect();
        let pow2 = jobs.iter().filter(|j| j.procs().is_power_of_two()).count();

        let mut per_user: HashMap<i64, usize> = HashMap::new();
        for j in jobs {
            *per_user.entry(j.user_id).or_insert(0) += 1;
        }

        TraceStats {
            jobs: jobs.len(),
            max_procs: trace.max_procs(),
            mean_interarrival: mean(&inter),
            mean_requested_time: mean(&req_time),
            mean_requested_procs: mean(&req_procs),
            mean_run_time: mean(&run_time),
            cv_interarrival: cv(&inter),
            cv_run_time: cv(&run_time),
            pow2_fraction: if jobs.is_empty() {
                0.0
            } else {
                pow2 as f64 / jobs.len() as f64
            },
            users: per_user.len(),
            max_user_jobs: per_user.values().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn mk_trace() -> JobTrace {
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 4, 200.0).with_user(1),
            Job::new(2, 10.0, 300.0, 8, 400.0).with_user(1),
            Job::new(3, 30.0, 200.0, 3, 300.0).with_user(2),
        ];
        JobTrace::new(jobs, 128)
    }

    #[test]
    fn basic_moments() {
        let s = TraceStats::from_trace(&mk_trace());
        assert_eq!(s.jobs, 3);
        assert_eq!(s.max_procs, 128);
        assert!((s.mean_interarrival - 15.0).abs() < 1e-9);
        assert!((s.mean_requested_time - 300.0).abs() < 1e-9);
        assert!((s.mean_requested_procs - 5.0).abs() < 1e-9);
        assert!((s.mean_run_time - 200.0).abs() < 1e-9);
    }

    #[test]
    fn pow2_fraction_counts_4_and_8() {
        let s = TraceStats::from_trace(&mk_trace());
        assert!((s.pow2_fraction - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn user_counts() {
        let s = TraceStats::from_trace(&mk_trace());
        assert_eq!(s.users, 2);
        assert_eq!(s.max_user_jobs, 2);
    }

    #[test]
    fn cv_zero_for_constant_series() {
        let jobs = (0..5)
            .map(|i| Job::new(i + 1, i as f64 * 10.0, 7.0, 2, 7.0))
            .collect();
        let s = TraceStats::from_trace(&JobTrace::new(jobs, 16));
        assert!(s.cv_interarrival.abs() < 1e-12);
        assert!(s.cv_run_time.abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let s = TraceStats::from_trace(&JobTrace::new(vec![], 16));
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_interarrival, 0.0);
        assert_eq!(s.pow2_fraction, 0.0);
    }
}
