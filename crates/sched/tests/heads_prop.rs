//! Property tests for the priority heads: on random waiting queues with
//! many ties, [`select_streaming`] picks the waiting job with the smallest
//! `(score, submit_time, job_index)` key, for every [`HeuristicKind`], and
//! which job it picks does not depend on the order the queue arrives in.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rlsched_sched::{select_streaming, HeuristicKind};
use rlsched_sim::WaitingJob;
use rlsched_swf::Job;

const KINDS: [HeuristicKind; 7] = [
    HeuristicKind::Fcfs,
    HeuristicKind::Sjf,
    HeuristicKind::Wfp3,
    HeuristicKind::Unicep,
    HeuristicKind::F1,
    HeuristicKind::Ljf,
    HeuristicKind::SmallestFirst,
];

prop_compose! {
    /// Up to 40 jobs, each field drawn from a handful of values, so scores,
    /// submit times and both at once tie often.
    fn queue()(fields in prop::collection::vec((0u32..4, 0usize..3, 0u32..4), 1..40)) -> Vec<Job> {
        fields
            .iter()
            .enumerate()
            .map(|(i, &(submit, req, log_procs))| {
                let req = [10.0, 100.0, 1000.0][req];
                Job::new(i as u32 + 1, 10.0 * submit as f64, req, 1 << log_procs, req)
            })
            .collect()
    }
}

/// The jobs at the trace indices `order`, as waiting at t = 100.
fn waiting<'a>(jobs: &'a [Job], order: &[usize]) -> Vec<WaitingJob<'a>> {
    order
        .iter()
        .map(|&i| WaitingJob {
            job: &jobs[i],
            job_index: i,
            wait: 100.0 - jobs[i].submit_time,
            can_run_now: true,
        })
        .collect()
}

fn key(kind: HeuristicKind, w: &WaitingJob<'_>) -> (f64, f64, usize) {
    (kind.score(w), w.job.submit_time, w.job_index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn picks_the_smallest_key(jobs in queue()) {
        let q = waiting(&jobs, &(0..jobs.len()).collect::<Vec<_>>());
        for kind in KINDS {
            let rank = select_streaming(kind, q.iter().copied()).expect("the queue is not empty");
            let best = key(kind, &q[rank]);
            for w in &q {
                prop_assert!(best <= key(kind, w), "{}: {:?} over {:?}", kind.name(), best, key(kind, w));
            }
        }
    }

    #[test]
    fn pick_is_independent_of_queue_order(jobs in queue(), seed in any::<u64>()) {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let q = waiting(&jobs, &order);
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let shuffled = waiting(&jobs, &order);
        for kind in KINDS {
            let pick = |q: &[WaitingJob<'_>]| {
                q[select_streaming(kind, q.iter().copied()).expect("the queue is not empty")].job_index
            };
            prop_assert_eq!(pick(&q), pick(&shuffled), "{} under {:?}", kind.name(), order);
        }
    }
}
