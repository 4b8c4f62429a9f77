//! Property tests of the SchedGym conservation invariants under random
//! traces, random scheduling orders, and both backfilling modes — and of
//! the session against the reference simulator in `common`, on traces built
//! to hit what admission and the event loop treat specially.

mod common;

use proptest::prelude::*;

use rlsched_sim::{BackfillMode, SchedSession, SimConfig, SimError};
use rlsched_swf::{Job, JobTrace};

prop_compose! {
    fn arb_sim_job()(
        submit in 0.0f64..5_000.0,
        run in 1.0f64..2_000.0,
        procs in 1u32..8,
        over in 1.0f64..3.0,
    ) -> (f64, f64, u32, f64) {
        (submit, run, procs, run * over)
    }
}

fn trace_of(jobs: Vec<(f64, f64, u32, f64)>) -> JobTrace {
    let jobs = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (s, r, p, req))| Job::new(i as u32 + 1, s, r, p, req))
        .collect();
    JobTrace::new(jobs, 8)
}

prop_compose! {
    /// A raw record as an archive might hold it: submit times on a coarse
    /// grid (many ties), zero and sub-second runtimes, requests wider than
    /// the 8-processor cluster, requested times below the actual runtime or
    /// unrecorded, and one in seven unschedulable (no processor count).
    fn arb_raw_job()(
        submit in prop_oneof![(0u32..12).prop_map(|k| k as f64 * 40.0), 0.0f64..500.0],
        run in prop_oneof![Just(0.0f64), 0.0f64..1.0, 1.0f64..300.0],
        procs in 1u32..=12,
        req_factor in prop_oneof![Just(-1.0f64), 0.1f64..1.0, 1.0f64..3.0],
        unschedulable in (0u32..7).prop_map(|k| k == 0),
    ) -> Job {
        let mut job = Job::new(0, submit, run, procs, run * req_factor);
        if unschedulable {
            job.requested_procs = -1;
            job.used_procs = -1;
        }
        job
    }
}

/// Take up to `limit` decisions on `s`, decision `d` (counted from `from`)
/// choosing rank `picks[d]` (cycled, wrapped into range), verifying machine
/// invariants at every step; returns the ranks actually picked.
fn drive(s: &mut SchedSession, picks: &[usize], from: usize, limit: usize) -> Vec<usize> {
    let mut taken = Vec::new();
    while !s.done() && taken.len() < limit {
        let pos = picks[(from + taken.len()) % picks.len()] % s.queue_len();
        taken.push(pos);
        s.step(pos).unwrap();
        assert!(s.free_procs() <= s.total_procs());
    }
    taken
}

/// Drive a whole episode choosing queue positions from `picks`.
fn run_with_picks(
    trace: &JobTrace,
    cfg: SimConfig,
    picks: &[usize],
) -> rlsched_sim::EpisodeMetrics {
    let mut s = SchedSession::new(trace, cfg).unwrap();
    drive(&mut s, picks, 0, usize::MAX);
    s.metrics().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_job_runs_exactly_once(
        jobs in prop::collection::vec(arb_sim_job(), 1..50),
        picks in prop::collection::vec(0usize..64, 1..32),
        easy in any::<bool>(),
    ) {
        let trace = trace_of(jobs);
        let cfg = SimConfig {
            backfill: if easy { BackfillMode::Easy } else { BackfillMode::None },
        };
        let m = run_with_picks(&trace, cfg, &picks);
        prop_assert_eq!(m.outcomes().len(), trace.len());
        let mut seen: Vec<usize> = m.outcomes().iter().map(|o| o.job_index).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), trace.len(), "duplicate or missing jobs");
    }

    #[test]
    fn causality_and_duration_hold(
        jobs in prop::collection::vec(arb_sim_job(), 1..50),
        picks in prop::collection::vec(0usize..64, 1..32),
        easy in any::<bool>(),
    ) {
        let trace = trace_of(jobs);
        let cfg = SimConfig {
            backfill: if easy { BackfillMode::Easy } else { BackfillMode::None },
        };
        let m = run_with_picks(&trace, cfg, &picks);
        let sanitized = trace.sanitized();
        for o in m.outcomes() {
            let job = &sanitized.jobs()[o.job_index];
            prop_assert!(o.start >= job.submit_time, "job started before submission");
            prop_assert!((o.end - o.start - job.actual_runtime()).abs() < 1e-6);
        }
    }

    #[test]
    fn processors_never_oversubscribed(
        jobs in prop::collection::vec(arb_sim_job(), 1..40),
        picks in prop::collection::vec(0usize..64, 1..16),
        easy in any::<bool>(),
    ) {
        let trace = trace_of(jobs);
        let cfg = SimConfig {
            backfill: if easy { BackfillMode::Easy } else { BackfillMode::None },
        };
        let m = run_with_picks(&trace, cfg, &picks);
        // Reconstruct concurrent usage at every start instant.
        for probe in m.outcomes() {
            let t = probe.start;
            let used: u64 = m
                .outcomes()
                .iter()
                .filter(|o| o.start <= t && t < o.end)
                .map(|o| o.procs as u64)
                .sum();
            prop_assert!(used <= 8, "{used} procs in use at t={t}");
        }
    }

    #[test]
    fn session_matches_the_reference_simulator(
        jobs in prop::collection::vec(arb_raw_job(), 1..60),
        picks in prop::collection::vec(0usize..64, 1..32),
        easy in any::<bool>(),
    ) {
        let trace = JobTrace::new(jobs, 8);
        let cfg = SimConfig {
            backfill: if easy { BackfillMode::Easy } else { BackfillMode::None },
        };
        // What the session is documented to admit: the schedulable records,
        // sanitized and clamped, indexed by their position among themselves.
        let sane = trace.sanitized().clamp_to_cluster();
        let mut s = match SchedSession::new(&trace, cfg) {
            Ok(s) => s,
            Err(e) => {
                prop_assert_eq!(e, SimError::EmptyTrace);
                prop_assert!(sane.is_empty());
                return Ok(());
            }
        };
        let taken = drive(&mut s, &picks, 0, usize::MAX);
        let m = s.metrics().unwrap();
        let starts: Vec<f64> = m.outcomes().iter().map(|o| o.start).collect();
        prop_assert_eq!(starts, common::reference_starts(sane.jobs(), 8, easy, &taken));
        for (o, job) in m.outcomes().iter().zip(sane.jobs()) {
            prop_assert_eq!((o.submit, o.procs), (job.submit_time, job.procs()));
        }
    }

    #[test]
    fn a_cloned_session_continues_to_the_same_metrics(
        jobs in prop::collection::vec(arb_sim_job(), 2..50),
        picks in prop::collection::vec(0usize..64, 1..32),
        easy in any::<bool>(),
        split in 0usize..25,
    ) {
        let trace = trace_of(jobs);
        let cfg = SimConfig {
            backfill: if easy { BackfillMode::Easy } else { BackfillMode::None },
        };
        let mut original = SchedSession::new(&trace, cfg).unwrap();
        let before = drive(&mut original, &picks, 0, split).len();
        let mut clone = original.clone();
        let rest = drive(&mut original, &picks, before, usize::MAX);
        prop_assert_eq!(drive(&mut clone, &picks, before, usize::MAX), rest);
        prop_assert_eq!(clone.metrics().unwrap(), original.metrics().unwrap());
    }

    #[test]
    fn same_picks_same_schedule(
        jobs in prop::collection::vec(arb_sim_job(), 1..30),
        picks in prop::collection::vec(0usize..64, 1..16),
    ) {
        let trace = trace_of(jobs);
        let a = run_with_picks(&trace, SimConfig::with_backfill(), &picks);
        let b = run_with_picks(&trace, SimConfig::with_backfill(), &picks);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fcfs_order_preserves_queue_fifo_starts(
        jobs in prop::collection::vec(arb_sim_job(), 2..40),
    ) {
        // Under FCFS *without backfilling*, start times are monotone in
        // submit order for jobs the scheduler actually ordered (head picks).
        let trace = trace_of(jobs);
        let m = run_with_picks(&trace, SimConfig::no_backfill(), &[0]);
        let mut outcomes = m.outcomes().to_vec();
        outcomes.sort_by(|a, b| a.submit.partial_cmp(&b.submit).unwrap()
            .then(a.job_index.cmp(&b.job_index)));
        for w in outcomes.windows(2) {
            prop_assert!(w[0].start <= w[1].start + 1e-9,
                "FCFS/no-backfill must start jobs in arrival order");
        }
    }

    #[test]
    fn metrics_are_internally_consistent(
        jobs in prop::collection::vec(arb_sim_job(), 1..40),
        picks in prop::collection::vec(0usize..64, 1..16),
    ) {
        let trace = trace_of(jobs);
        let m = run_with_picks(&trace, SimConfig::with_backfill(), &picks);
        prop_assert!(m.avg_bounded_slowdown() >= 1.0 - 1e-12);
        prop_assert!(m.avg_slowdown() >= 1.0 - 1e-12);
        prop_assert!(m.avg_turnaround() >= m.avg_waiting_time());
        let u = m.utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        prop_assert!(m.max_user_bounded_slowdown() >= m.avg_bounded_slowdown() - 1e-9,
            "the max user's average bounds the global average from above");
    }
}
