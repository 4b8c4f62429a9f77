//! The evaluation protocol of §V: schedule the *same* randomly sampled
//! job sequences with every scheduler and compare their metric means.
//!
//! "In each experiment, we scheduled a random job sequence that contains
//! long continuous jobs (1,024) … we repeated the evaluations 10 times …
//! across different scheduling algorithms, we used the same 10 random job
//! sequences to make fair comparisons." (§V-C2)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rlsched_sim::{run_episode, EpisodeMetrics, MetricKind, Policy, SimConfig};
use rlsched_swf::{JobTrace, SequenceSampler};

/// Default evaluation shape: 10 sequences of 1024 jobs.
pub const DEFAULT_EVAL_SEQS: usize = 10;
/// Default evaluation sequence length.
pub const DEFAULT_EVAL_LEN: usize = 1024;

/// Sample `n` windows of `seq_len` jobs from `trace`, reproducibly. The
/// same windows must be passed to every compared scheduler.
pub fn sample_eval_windows(trace: &JobTrace, n: usize, seq_len: usize, seed: u64) -> Vec<JobTrace> {
    let seq_len = seq_len.min(trace.len());
    let sampler = SequenceSampler::new(trace.len(), seq_len).expect("non-degenerate trace");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let off = sampler.offset_from_draw(rng.gen());
            trace.window(off, seq_len).expect("offset valid")
        })
        .collect()
}

/// Run one policy over every window; returns per-window episode metrics.
/// Panics on an empty window or a policy that fails to pick (a serving
/// tier lost mid-evaluation): a table cell has no use for half an answer.
pub fn evaluate_policy<P: Policy>(
    windows: &[JobTrace],
    sim: SimConfig,
    policy: &mut P,
) -> Vec<EpisodeMetrics> {
    windows
        .iter()
        .map(|w| run_episode(w, sim, policy).expect("window is schedulable and the policy picks"))
        .collect()
}

/// Mean of a metric over per-window results (one table cell of the paper).
pub fn mean_metric(results: &[EpisodeMetrics], kind: MetricKind) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|m| m.metric(kind)).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_sched::{HeuristicKind, PriorityScheduler};
    use rlsched_swf::Job;

    fn trace() -> JobTrace {
        let jobs = (0..200u32)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 30.0,
                    100.0 + (i % 7) as f64 * 150.0,
                    1 + (i % 4),
                    1500.0,
                )
            })
            .collect();
        JobTrace::new(jobs, 8)
    }

    #[test]
    fn windows_are_reproducible_and_shifted() {
        let t = trace();
        let a = sample_eval_windows(&t, 5, 50, 42);
        let b = sample_eval_windows(&t, 5, 50, 42);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.jobs(), y.jobs());
            assert_eq!(x.jobs()[0].submit_time, 0.0);
        }
    }

    #[test]
    fn different_seed_different_windows() {
        let t = trace();
        let a = sample_eval_windows(&t, 3, 50, 1);
        let b = sample_eval_windows(&t, 3, 50, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.jobs() != y.jobs()));
    }

    #[test]
    fn seq_len_clamped_to_trace() {
        let t = trace();
        let w = sample_eval_windows(&t, 2, 10_000, 3);
        assert_eq!(w[0].len(), 200);
    }

    #[test]
    fn paired_evaluation_is_fair() {
        // The same windows go to both schedulers; results are comparable
        // pairwise, which is the whole point of the protocol.
        let t = trace();
        let windows = sample_eval_windows(&t, 4, 60, 7);
        let mut fcfs = PriorityScheduler::new(HeuristicKind::Fcfs);
        let mut sjf = PriorityScheduler::new(HeuristicKind::Sjf);
        let rf = evaluate_policy(&windows, SimConfig::default(), &mut fcfs);
        let rs = evaluate_policy(&windows, SimConfig::default(), &mut sjf);
        assert_eq!(rf.len(), 4);
        assert_eq!(rs.len(), 4);
        let mf = mean_metric(&rf, MetricKind::BoundedSlowdown);
        let ms = mean_metric(&rs, MetricKind::BoundedSlowdown);
        assert!(mf >= 1.0 && ms >= 1.0);
    }

    #[test]
    fn mean_metric_empty_is_zero() {
        assert_eq!(mean_metric(&[], MetricKind::WaitTime), 0.0);
    }
}
