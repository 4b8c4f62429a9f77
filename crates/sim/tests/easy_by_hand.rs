//! EASY backfilling against a schedule worked out by hand.
//!
//! Every other suite compares one implementation with another. This one
//! compares the session — through its materialized view and directly — and
//! the reference simulator the parity suites answer to (`common`) with
//! start times derived on paper from the rules in `stream.rs`'s module
//! docs, on a seven-job trace small enough to follow and built to sit on
//! the edges of the backfill rule:
//!
//! * a job that fits the idle processors but whose *request* crosses the
//!   shadow time (not started);
//! * a job whose request ends exactly at the shadow time (started: `≤`);
//! * a job that arrives while the reservation is blocked and backfills;
//! * a job refused early in a pass that is still refused after a later job
//!   in the same pass has started (a pass never needs a second look).
//!
//! The cluster has 4 processors. `run` is the actual runtime (completions),
//! `req` the requested one (SJF's key, the shadow time and the hole test).
//!
//! | job | submit | procs | req | run |
//! |-----|--------|-------|-----|-----|
//! | 0   | 0      | 2     | 10  | 10  |
//! | 1   | 0      | 4     | 5   | 5   |
//! | 2   | 0      | 1     | 12  | 12  |
//! | 3   | 0      | 1     | 10  | 6   |
//! | 4   | 3      | 1     | 6   | 4   |
//! | 5   | 5      | 1     | 4   | 4   |
//! | 6   | 5      | 3     | 1   | 1   |

mod common;

use rlsched_sim::{BackfillMode, SchedSession, SimConfig, StreamSession, WaitingJob};
use rlsched_swf::{Job, JobTrace};

const PROCS: u32 = 4;

fn jobs() -> Vec<Job> {
    // (submit, run, procs, req)
    [
        (0.0, 10.0, 2, 10.0),
        (0.0, 5.0, 4, 5.0),
        (0.0, 12.0, 1, 12.0),
        (0.0, 6.0, 1, 10.0),
        (3.0, 4.0, 1, 6.0),
        (5.0, 4.0, 1, 4.0),
        (5.0, 1.0, 3, 1.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (submit, run, procs, req))| Job::new(i as u32 + 1, submit, run, procs, req))
    .collect()
}

type Pick = fn(&mut dyn Iterator<Item = WaitingJob>) -> usize;

/// FCFS: the head of the submit-ordered queue.
fn fcfs(_: &mut dyn Iterator<Item = WaitingJob>) -> usize {
    0
}

/// SJF: smallest request, ties to the earlier submit, then the lower index.
fn sjf(waiting: &mut dyn Iterator<Item = WaitingJob>) -> usize {
    waiting
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let key = |w: &WaitingJob| (w.job.time_bound(), w.job.submit_time, w.job_index);
            key(a).partial_cmp(&key(b)).expect("finite keys")
        })
        .map(|(rank, _)| rank)
        .expect("decision points have waiting jobs")
}

/// Start time of every job, in trace order, from the materialized session,
/// and the rank picked at each decision.
fn session_starts(cfg: SimConfig, pick: Pick) -> (Vec<f64>, Vec<usize>) {
    let trace = JobTrace::new(jobs(), PROCS);
    let mut s: SchedSession = SchedSession::new(&trace, cfg).unwrap();
    let mut picks = Vec::new();
    while !s.done() {
        let pos = pick(&mut s.waiting_jobs());
        picks.push(pos);
        s.step(pos).unwrap();
    }
    let m = s.metrics().unwrap();
    (m.outcomes().iter().map(|o| o.start).collect(), picks)
}

/// The same from the streaming session.
fn stream_starts(cfg: SimConfig, pick: Pick) -> Vec<f64> {
    let mut s = StreamSession::new(jobs().into_iter(), PROCS, cfg)
        .unwrap()
        .with_outcome_log();
    while !s.done() {
        let pos = pick(&mut s.waiting());
        s.step(pos).unwrap();
    }
    let m = s.log_metrics().unwrap();
    m.outcomes().iter().map(|o| o.start).collect()
}

fn assert_schedule(cfg: SimConfig, pick: Pick, want: [f64; 7]) {
    let (starts, picks) = session_starts(cfg, pick);
    assert_eq!(starts, want, "SchedSession");
    assert_eq!(stream_starts(cfg, pick), want, "StreamSession");
    let easy = cfg.backfill == BackfillMode::Easy;
    let reference = common::reference_starts(&jobs(), PROCS, easy, &picks);
    assert_eq!(reference, want, "the reference simulator");
}

#[test]
fn fcfs_without_backfill() {
    // t=0   job 0 starts (2 of 4 procs). Job 1 needs 4: blocked, and with it
    //       the queue.
    // t=10  job 0 ends; job 1 starts, all 4 procs until 15.
    // t=15  job 1 ends. In queue order: job 2 (3 idle left), 3 (2), 4 (1),
    //       5 (0) all start. Job 6 needs 3: blocked.
    // t=19  jobs 4 and 5 end (15+4): 2 idle, not enough.
    // t=21  job 3 ends (15+6): 3 idle, job 6 starts.
    assert_schedule(
        SimConfig::no_backfill(),
        fcfs,
        [0.0, 10.0, 15.0, 15.0, 15.0, 15.0, 21.0],
    );
}

#[test]
fn fcfs_with_easy() {
    // t=0   job 0 starts (2 idle). Job 1 needs 4: reserved. Job 0 is due at
    //       10 by its request, which frees all 4: shadow = 10.
    //       Pass: job 2 fits (1 ≤ 2) but 0+12 > 10 — crosses the shadow,
    //       refused. Job 3: 1 ≤ 2 and 0+10 ≤ 10 — ends exactly at the
    //       shadow, started (1 idle). Job 2 would still fit the idle
    //       processor; it stays refused, its request has not changed.
    // t=3   job 4 arrives. Pass: job 2, 3+12 > 10, refused; job 4, 1 ≤ 1 and
    //       3+6 ≤ 10, started while the reservation is still blocked (0 idle).
    // t=5   jobs 5 and 6 arrive; nothing idle, nothing starts.
    // t=6   job 3 ends early (ran 6 of its 10): 1 idle. Pass: job 2,
    //       6+12 > 10, refused; job 5, 1 ≤ 1 and 6+4 ≤ 10, started (0 idle);
    //       job 6 needs 3, refused.
    // t=7   job 4 ends (3+4): 1 idle. Job 2 crosses, job 6 needs 3.
    // t=10  jobs 0 and 5 end: 4 idle, job 1 starts at its shadow time.
    //       Job 2 is picked next: blocked until job 1 is due, shadow = 15;
    //       job 6 needs 3 of 0 idle.
    // t=15  job 1 ends: job 2 starts (3 idle), then job 6 (3 ≤ 3).
    assert_schedule(
        SimConfig::with_backfill(),
        fcfs,
        [0.0, 10.0, 15.0, 0.0, 3.0, 6.0, 15.0],
    );
}

#[test]
fn sjf_without_backfill() {
    // t=0   shortest request is job 1 (5): starts on all 4 procs. Next is
    //       job 0 (10, tied with job 3, lower index): blocked.
    // t=5   job 1 ends — completions before same-instant arrivals — and
    //       jobs 5, 6 arrive. Job 0 starts (2 idle). Shortest is now job 6
    //       (1), which needs 3: blocked, and with it the queue.
    // t=15  job 0 ends: job 6 starts (1 idle), then job 5 (request 4, 0
    //       idle). Job 4 (6) is next: blocked.
    // t=16  job 6 ends (15+1): 3 idle. Jobs 4, 3 (10) and 2 (12) start.
    assert_schedule(
        SimConfig::no_backfill(),
        sjf,
        [5.0, 0.0, 16.0, 16.0, 16.0, 15.0, 15.0],
    );
}

#[test]
fn sjf_with_easy() {
    // t=0   job 1 starts on all 4 procs. Job 0 is reserved, shadow = 5;
    //       nothing is idle, so the passes at 0 and at 3 (job 4 arrives)
    //       start nothing.
    // t=5   job 1 ends, jobs 5 and 6 arrive, job 0 starts (2 idle, due at
    //       15). Job 6 (request 1) needs 3: reserved, shadow = 15.
    //       Pass over 2, 3, 4, 5: job 2 fits (1 ≤ 2) but 5+12 > 15, refused;
    //       job 3, 5+10 ≤ 15 exactly, started (1 idle); job 4, 5+6 ≤ 15,
    //       started (0 idle); job 5 has no processor.
    // t=9   job 4 ends (5+4): 1 idle. Job 2, 9+12 > 15, refused; job 5,
    //       9+4 ≤ 15, started.
    // t=11  job 3 ends (5+6); t=13 job 5 ends: job 2 still crosses.
    // t=15  job 0 ends: job 6 starts (1 idle), then job 2.
    assert_schedule(
        SimConfig::with_backfill(),
        sjf,
        [5.0, 0.0, 15.0, 5.0, 5.0, 9.0, 15.0],
    );
}
