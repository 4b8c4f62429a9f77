//! Table III against schedules worked out by hand, every start time a
//! literal derived in a comment.
//!
//! `crates/sim/tests/easy_by_hand.rs` holds the event loop (and EASY) to
//! FCFS and SJF picks it computes itself; this file holds
//! [`PriorityScheduler`] — the one head every driver asks — to all five
//! rows of the table on one five-job trace, without backfilling, each
//! through the way it finds its job and again through the
//! [`select_streaming`] scan that defines the pick: FCFS from the front of
//! the queue, SJF and F1 from the order the session keeps ranked, WFP3 and
//! UNICEP from the scan itself. The three functions whose scores need
//! arithmetic are
//!
//! | name   | score (smallest first)                        |
//! |--------|-----------------------------------------------|
//! | F1     | `log10(r)·n + 870·log10(max(s, 1))`           |
//! | WFP3   | `−(w/r)³·n`                                   |
//! | UNICEP | `−w / (log2(max(n, 2))·r)`                    |
//!
//! (`r` requested time, `n` processors, `s` submit time, `w` time waited;
//! ties go to the earlier submit, then the lower index.) The trace is built
//! so that each guard and the one real difference between the two
//! wait-driven functions decide a start time:
//!
//! * jobs 0 and 1 are submitted at 0, where `log10(s)` is −∞ without F1's
//!   `max(s, 1)`: both would score −∞, the tie would go to job 0, and F1
//!   would open like the others instead of with job 1;
//! * job 3 asks for one processor, where `log2(n)` is 0 without UNICEP's
//!   `max(n, 2)`: its score would be −∞ at t=100 and it would start before
//!   job 2, not 20 s after it;
//! * at t=100 WFP3 and UNICEP both rank job 3 ahead of job 4; at the next
//!   decision, t=150, both waits have grown by 50 s, and WFP3 — which cubes
//!   `w/r` and *multiplies* by the width where UNICEP divides by its
//!   logarithm — has changed its mind while UNICEP has not.
//!
//! The cluster has 4 processors. `run` is the actual runtime, `req` the
//! requested one; job 1 runs far short of its request and job 2 over it,
//! which only completions may know.
//!
//! | job | submit | procs | req  | run |
//! |-----|--------|-------|------|-----|
//! | 0   | 0      | 4     | 100  | 100 |
//! | 1   | 0      | 2     | 1000 | 50  |
//! | 2   | 20     | 4     | 5    | 20  |
//! | 3   | 50     | 1     | 10   | 6   |
//! | 4   | 75     | 4     | 10   | 10  |

use rlsched_sched::{select_streaming, HeuristicKind, PriorityScheduler};
use rlsched_sim::{run_episode, SimConfig, StreamSession};
use rlsched_swf::{Job, JobTrace};

const PROCS: u32 = 4;

fn jobs() -> Vec<Job> {
    // (submit, run, procs, req)
    [
        (0.0, 100.0, 4, 100.0),
        (0.0, 50.0, 2, 1000.0),
        (20.0, 20.0, 4, 5.0),
        (50.0, 6.0, 1, 10.0),
        (75.0, 10.0, 4, 10.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (submit, run, procs, req))| Job::new(i as u32 + 1, submit, run, procs, req))
    .collect()
}

/// The schedule of `kind` twice: from `PriorityScheduler` under the episode
/// driver (front, ranked head or scan, as the kind has it), and from a
/// bare session asked by the scan at every decision.
fn assert_schedule(kind: HeuristicKind, want: [f64; 5]) {
    let cfg = SimConfig::no_backfill();
    let trace = JobTrace::new(jobs(), PROCS);
    let m = run_episode(&trace, cfg, &mut PriorityScheduler::new(kind)).unwrap();
    let starts: Vec<f64> = m.outcomes().iter().map(|o| o.start).collect();
    assert_eq!(starts, want, "{kind:?}: run_episode + PriorityScheduler");

    let mut s = StreamSession::new(jobs().into_iter(), PROCS, cfg)
        .unwrap()
        .with_outcome_log();
    while !s.done() {
        let pos = select_streaming(kind, s.waiting()).expect("a job waits");
        s.step(pos).unwrap();
    }
    let m = s.log_metrics().unwrap();
    let starts: Vec<f64> = m.outcomes().iter().map(|o| o.start).collect();
    assert_eq!(starts, want, "{kind:?}: StreamSession + select_streaming");
}

#[test]
fn fcfs() {
    // t=0    jobs 0 and 1 wait; job 0 is first: starts on all 4 until 100.
    //        Job 1 is all that waits: picked, needs 2, blocked.
    // t=100  job 0 ends, job 1 starts (2 idle) until 150. Jobs 2, 3, 4
    //        arrived at 20, 50, 75; job 2 is first, needs 4: blocked.
    // t=150  job 1 ends, job 2 starts on all 4 until 170. Job 3: blocked.
    // t=170  job 2 ends, job 3 starts (3 idle) until 176. Job 4 needs 4.
    // t=176  job 3 ends, job 4 starts.
    assert_schedule(HeuristicKind::Fcfs, [0.0, 100.0, 150.0, 170.0, 176.0]);
}

#[test]
fn sjf() {
    // t=0    job 0 asks for 100, job 1 for 1000 (it will run 50, which SJF
    //        may not know): job 0 starts on all 4 until 100. Job 1: blocked.
    // t=100  job 0 ends, job 1 starts (2 idle) until 150. Jobs 2, 3, 4 ask
    //        for 5, 10, 10: job 2, needs 4: blocked.
    // t=150  job 1 ends, job 2 starts on all 4 until 170. Jobs 3 and 4 both
    //        ask for 10; the tie goes to the earlier submit (50 before 75):
    //        job 3, blocked.
    // t=170  job 2 ends, job 3 starts (3 idle) until 176. Job 4 needs 4.
    // t=176  job 3 ends, job 4 starts.
    // On this trace the shortest request is also the oldest at every
    // decision, so SJF ends where FCFS does; F1 below does not.
    assert_schedule(HeuristicKind::Sjf, [0.0, 100.0, 150.0, 170.0, 176.0]);
}

#[test]
fn f1() {
    // t=0    jobs 0 and 1 wait, both submitted at 0: 870·log10(max(0, 1)) = 0.
    //        Job 0: log10(100)·4 = 8. Job 1: log10(1000)·2 = 6. Job 1 starts
    //        (2 idle). Job 0 is all that waits: picked, needs 4, blocked.
    // t=20   job 2 arrives and queues behind the reservation.
    // t=50   job 1 ends (ran 50 of its 1000) before job 3, submitted at 50,
    //        is queued; job 0 starts on all 4 until 150. Decision over 2, 3:
    //        job 2: log10(5)·4 + 870·log10(20) = 2.80 + 1131.90 = 1134.70;
    //        job 3: log10(10)·1 + 870·log10(50) = 1 + 1478.10 = 1479.10.
    //        Job 2 (the 870 makes F1 all but FCFS once s > 1): blocked.
    // t=75   job 4 arrives.
    // t=150  job 0 ends, job 2 starts on all 4 until 170. Decision over 3, 4:
    //        job 3: 1479.10; job 4: log10(10)·4 + 870·log10(75) = 4 + 1631.30
    //        = 1635.30. Job 3: blocked.
    // t=170  job 2 ends, job 3 starts (3 idle) until 176. Job 4 needs 4.
    // t=176  job 3 ends, job 4 starts.
    assert_schedule(HeuristicKind::F1, [50.0, 0.0, 150.0, 170.0, 176.0]);
}

// WFP3 and UNICEP agree up to t=150, so the first half is derived once.
//
// t=0    jobs 0 and 1 have waited 0: both score −0, under either function.
//        The tie goes to equal submits, then to the lower index: job 0
//        starts on all 4 until 100. Job 1 is all that waits: picked,
//        blocked.
// t=100  job 0 ends, job 1 starts (2 idle) until 150. Jobs 2, 3, 4 have
//        waited 80, 50, 25; w/r = 16, 5, 2.5.
//        WFP3:   job 2: −16³·4 = −16384; job 3: −5³·1 = −125;
//                job 4: −2.5³·4 = −62.5.
//        UNICEP: job 2: −80/(log2(4)·5) = −8; job 3: −50/(log2(max(1, 2))·10)
//                = −5; job 4: −25/(log2(4)·10) = −1.25.
//        Job 2 either way, and either way job 3 ranks ahead of job 4. Job 2
//        needs 4: blocked.
// t=150  job 1 ends, job 2 starts on all 4 until 170 (it runs 20, not the 5
//        it asked for). Jobs 3 and 4 have now waited 100 and 75; w/r = 10,
//        7.5 — and here the two part.

#[test]
fn wfp3() {
    // t=150  job 3: −10³·1 = −1000; job 4: −7.5³·4 = −421.875·4 = −1687.5.
    //        Job 4 — at t=100 it trailed job 3 by −62.5 to −125; cubing has
    //        let its width overtake. Blocked.
    // t=170  job 2 ends, job 4 starts on all 4 until 180. Job 3: blocked.
    // t=180  job 4 ends, job 3 starts.
    assert_schedule(HeuristicKind::Wfp3, [0.0, 100.0, 150.0, 180.0, 170.0]);
}

#[test]
fn unicep() {
    // t=150  job 3: −100/(1·10) = −10; job 4: −75/(2·10) = −3.75. Still job
    //        3: width divides here, and by its logarithm only. Blocked.
    // t=170  job 2 ends, job 3 starts (3 idle) until 176. Job 4 needs 4.
    // t=176  job 3 ends, job 4 starts.
    assert_schedule(HeuristicKind::Unicep, [0.0, 100.0, 150.0, 170.0, 176.0]);
}
