//! One module per experiment family; the `repro` binary's header lists
//! which paper table or figure each experiment name regenerates.

pub mod ablations;
pub mod figures;
pub mod tables;

use rlsched_sched::PriorityScheduler;
use rlsched_sim::{MetricKind, Policy, SimConfig};
use rlsched_swf::JobTrace;
use rlscheduler::{evaluate_policy, mean_metric, Agent};

/// Evaluate the five Table III heuristics plus an optional RL agent over
/// shared windows; returns `(name, mean metric)` per scheduler, in the
/// paper's column order (FCFS, WFP3, UNICEP, SJF, F1, RL).
pub fn scheduler_row(
    windows: &[JobTrace],
    sim: SimConfig,
    metric: MetricKind,
    rl: Option<&Agent>,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for mut sched in PriorityScheduler::table3() {
        let results = evaluate_policy(windows, sim, &mut sched);
        out.push((sched.name().to_string(), mean_metric(&results, metric)));
    }
    if let Some(agent) = rl {
        let mut policy = agent.as_policy();
        let results = evaluate_policy(windows, sim, &mut policy);
        out.push(("RL".to_string(), mean_metric(&results, metric)));
    }
    out
}

/// The winner of a row under the metric's orientation.
pub fn best_of(row: &[(String, f64)], metric: MetricKind) -> (String, f64) {
    let pick = if metric.maximize() {
        row.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    } else {
        row.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    };
    pick.cloned().expect("non-empty row")
}

/// The loser of a row under the metric's orientation.
pub fn worst_of(row: &[(String, f64)], metric: MetricKind) -> (String, f64) {
    let pick = if metric.maximize() {
        row.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    } else {
        row.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    };
    pick.cloned().expect("non-empty row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_and_worst_respect_orientation() {
        let row = vec![("a".to_string(), 2.0), ("b".to_string(), 5.0)];
        assert_eq!(best_of(&row, MetricKind::BoundedSlowdown).0, "a");
        assert_eq!(worst_of(&row, MetricKind::BoundedSlowdown).0, "b");
        assert_eq!(best_of(&row, MetricKind::Utilization).0, "b");
        assert_eq!(worst_of(&row, MetricKind::Utilization).0, "a");
    }

    #[test]
    fn scheduler_row_covers_table3() {
        use rlsched_swf::Job;
        let jobs = (0..40u32)
            .map(|i| Job::new(i + 1, i as f64 * 10.0, 50.0, 1 + (i % 3), 100.0))
            .collect();
        let t = JobTrace::new(jobs, 4);
        let windows = vec![t];
        let row = scheduler_row(
            &windows,
            SimConfig::default(),
            MetricKind::BoundedSlowdown,
            None,
        );
        let names: Vec<&str> = row.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["FCFS", "WFP3", "UNICEP", "SJF", "F1"]);
        assert!(row.iter().all(|(_, v)| *v >= 1.0));
    }
}
