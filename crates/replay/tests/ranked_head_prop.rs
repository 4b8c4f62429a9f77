//! The ranked head against the scan, in lockstep: for every kind with a
//! static key, `StreamSession::ranked_head` must name the rank
//! `select_streaming` picks at **every** decision point — not merely end
//! in the same metrics — and its order must stay bounded by the peak
//! queue depth however many jobs backfill starts behind its back.
//!
//! Traces are built to tie: a handful of requested times shared by many
//! jobs, several jobs per submit instant, sub-second runtimes and
//! requests (both clamp to 1 s), missing requests (`-1`, falls back to
//! the runtime), and 1-processor next to full-cluster jobs.

use proptest::prelude::*;

use rlsched_sched::{select_streaming, HeuristicKind};
use rlsched_sim::{SimConfig, StreamSession};
use rlsched_swf::Job;

const PROCS: u32 = 8;

const STATIC_KINDS: [HeuristicKind; 5] = [
    HeuristicKind::Fcfs,
    HeuristicKind::Sjf,
    HeuristicKind::F1,
    HeuristicKind::Ljf,
    HeuristicKind::SmallestFirst,
];

prop_compose! {
    /// `(gap to the previous submit, runtime, requested time, procs)`.
    fn arb_tying_job()(
        gap in prop_oneof![Just(0.0f64), Just(0.0f64), 0.0f64..40.0],
        run in prop_oneof![0.05f64..1.0, 1.0f64..300.0],
        requested in prop_oneof![
            Just(-1.0f64),
            Just(0.25f64),
            Just(60.0f64),
            Just(3600.0f64),
            1.0f64..400.0,
        ],
        procs in prop_oneof![Just(1u32), Just(PROCS), 1u32..=PROCS],
    ) -> (f64, f64, f64, u32) {
        (gap, run, requested, procs)
    }
}

fn jobs_of(parts: &[(f64, f64, f64, u32)]) -> Vec<Job> {
    let mut submit = 0.0;
    parts
        .iter()
        .enumerate()
        .map(|(i, &(gap, run, requested, procs))| {
            submit += gap;
            Job::new(i as u32 + 1, submit, run, procs, requested).with_user(i as u32 % 3)
        })
        .collect()
}

/// Replay `jobs` under `kind`: `plain_steps` decisions by the scan alone,
/// then switch the order on and hold the ranked head to the scan at every
/// remaining decision. Returns how many decisions were compared and the
/// peak queue depth.
fn lockstep(
    jobs: &[Job],
    cfg: SimConfig,
    kind: HeuristicKind,
    plain_steps: usize,
) -> Result<(usize, usize), TestCaseError> {
    let key = kind.static_key().expect("a static kind");
    let mut s = StreamSession::new(jobs.iter().cloned(), PROCS, cfg).expect("non-empty trace");
    let mut compared = 0;
    let mut ranked = false;
    for step in 0.. {
        if s.done() {
            break;
        }
        if step == plain_steps {
            s.rank_by(key);
            ranked = true;
        }
        let scan = select_streaming(kind, s.waiting()).expect("a decision point");
        if ranked {
            prop_assert_eq!(
                s.ranked_head(),
                Some(scan),
                "{} diverged at decision {} ({} waiting)",
                kind.name(),
                step,
                s.queue_len()
            );
            compared += 1;
        }
        if kind == HeuristicKind::Fcfs {
            // What the replay engine relies on to skip the order for FCFS.
            prop_assert_eq!(scan, 0);
        }
        s.step(scan).expect("scan picks a valid rank");
        prop_assert!(
            s.ranked_len() <= 2 * s.peak_queue_depth() + 65,
            "order holds {} entries against a peak queue of {}",
            s.ranked_len(),
            s.peak_queue_depth()
        );
    }
    prop_assert_eq!(
        s.ranked_head(),
        None,
        "nothing waits once the stream is done"
    );
    Ok((compared, s.peak_queue_depth()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ranked_head_is_the_scan_at_every_decision(
        parts in prop::collection::vec(arb_tying_job(), 1..400),
        plain_steps in prop_oneof![Just(0usize), 0usize..60],
    ) {
        let jobs = jobs_of(&parts);
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            for kind in STATIC_KINDS {
                lockstep(&jobs, cfg, kind, plain_steps)?;
            }
        }
    }
}

/// LJF under EASY is the worst case for lazy deletion: backfill starts the
/// short jobs, whose entries sit at the bottom of a longest-first order and
/// never surface. Only the rebuild on admission gets rid of them.
///
/// Batches of two wide long jobs and fourteen narrow short ones: the
/// first long job starts, the second is reserved behind it, and every
/// short job backfills into the two idle processors meanwhile.
#[test]
fn stale_entries_left_by_backfill_do_not_accumulate() {
    let jobs: Vec<Job> = (0..6_000u32)
        .map(|i| {
            let (run, procs) = if i % 16 < 2 { (100.0, 6) } else { (5.0, 1) };
            Job::new(i + 1, (i / 16) as f64 * 250.0, run, procs, run)
        })
        .collect();
    let (compared, peak) = lockstep(&jobs, SimConfig::with_backfill(), HeuristicKind::Ljf, 0)
        .unwrap_or_else(|e| panic!("{e}"));
    // Most jobs start by backfill, leaving their entries behind: far more
    // than the bound the order was held to after every step.
    let backfilled = jobs.len() - compared;
    assert!(
        backfilled > 4 * (2 * peak + 65),
        "{backfilled} jobs backfilled against a peak queue of {peak}: too few to test the bound"
    );
}
