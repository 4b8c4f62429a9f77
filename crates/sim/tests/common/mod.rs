//! The reference simulator: SchedGym's loop (§IV-D) with EASY backfilling
//! (§II-A4), written to be read, not to be fast — a `Vec` queue with
//! `remove(rank)`, a `Vec` of running jobs scanned for its minimum, the idle
//! processors recounted from it at every turn, the shadow time from a sorted
//! copy. It shares nothing with `rlsched_sim` but the `Job` record, so a test
//! that holds the crate's event loop to it compares two programs, not one
//! program with itself. [`reference_metrics`] scores a schedule the same
//! way: the §II-A3 metrics written out from their definitions.

// Not every suite that includes this file scores its schedules.
#![allow(dead_code)]

use std::collections::BTreeMap;

use rlsched_swf::Job;

struct Running {
    end: f64,
    /// When the job ends by its *request*: all that EASY may know.
    due: f64,
    procs: u32,
}

/// When `needed` processors will be idle if every running job runs for as
/// long as it requested: `now`, if they already are.
fn shadow_time(running: &[Running], mut free: u32, needed: u32, now: f64) -> f64 {
    let mut by_due: Vec<&Running> = running.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let mut at = now;
    for r in by_due {
        if free >= needed {
            break;
        }
        free += r.procs;
        at = r.due;
    }
    at
}

/// The start time of every job of `jobs` — submit-sorted, sanitized and
/// clamped to `procs` processors — when decision `d` schedules the waiting
/// job at queue rank `picks[d]`. Panics unless `picks` holds exactly one
/// in-range rank per decision.
pub fn reference_starts(jobs: &[Job], procs: u32, easy: bool, picks: &[usize]) -> Vec<f64> {
    let mut picks = picks.iter();
    let mut starts = vec![f64::NAN; jobs.len()];
    let mut now = jobs[0].submit_time;
    let mut arrived = 0; // jobs[arrived..] have not been submitted yet
    let mut queue: Vec<usize> = Vec::new(); // waiting jobs, in arrival order
    let mut running: Vec<Running> = Vec::new();
    // The picked job until it starts, and the shadow time fixed when it was
    // picked: nothing that starts while it waits may be due after that.
    let mut reserved: Option<(usize, f64)> = None;
    loop {
        while arrived < jobs.len() && jobs[arrived].submit_time <= now {
            queue.push(arrived);
            arrived += 1;
        }
        let free = procs - running.iter().map(|r| r.procs).sum::<u32>();
        let fits = |j: usize| jobs[j].procs() <= free;
        let starting = match reserved {
            Some((j, _)) if fits(j) => {
                reserved = None;
                Some(j)
            }
            // EASY: the first waiting job that fits and ends by the shadow.
            Some((_, shadow)) => queue
                .iter()
                .position(|&j| easy && fits(j) && now + jobs[j].time_bound() <= shadow)
                .map(|rank| queue.remove(rank)),
            None if !queue.is_empty() => {
                let j = queue.remove(*picks.next().expect("a pick per decision"));
                reserved = Some((j, shadow_time(&running, free, jobs[j].procs(), now)));
                continue;
            }
            None if arrived == jobs.len() => break,
            None => None,
        };
        if let Some(j) = starting {
            running.push(Running {
                end: now + jobs[j].actual_runtime(),
                due: now + jobs[j].time_bound(),
                procs: jobs[j].procs(),
            });
            starts[j] = now;
        } else {
            // Nothing can start: on to the next completion or submission.
            // Jobs ending at that instant free their processors before the
            // jobs submitted at it are queued (top of the loop).
            let ends = running.iter().map(|r| r.end);
            let next = ends.chain(jobs.get(arrived).map(|j| j.submit_time));
            now = now.max(next.fold(f64::INFINITY, f64::min));
            running.retain(|r| r.end > now);
        }
    }
    assert!(picks.next().is_none(), "more picks than decisions");
    starts
}

/// The §II-A3 metrics of one schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceMetrics {
    pub avg_wait: f64,
    pub avg_turnaround: f64,
    pub avg_slowdown: f64,
    pub avg_bounded_slowdown: f64,
    pub utilization: f64,
    pub makespan: f64,
    /// The worst user's average bounded slowdown (§V-F, `Maximal`).
    pub max_user_bounded_slowdown: f64,
}

/// The metrics of the schedule that starts `jobs[j]` at `starts[j]` on
/// `procs` processors — `jobs` as [`reference_starts`] takes them, `starts`
/// as it returns them. Every sum runs in trace order.
pub fn reference_metrics(jobs: &[Job], procs: u32, starts: &[f64]) -> ReferenceMetrics {
    assert_eq!(jobs.len(), starts.len(), "a start per job");
    let (mut wait, mut turnaround, mut slowdown, mut bounded) = (0.0, 0.0, 0.0, 0.0);
    // Processor-seconds the jobs kept busy.
    let mut busy = 0.0;
    let (mut first_submit, mut last_end) = (f64::INFINITY, f64::NEG_INFINITY);
    // Per user: (sum of bounded slowdowns, jobs).
    let mut users: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
    for (job, &start) in jobs.iter().zip(starts) {
        let end = start + job.actual_runtime();
        let w = start - job.submit_time;
        let e = end - start;
        // (w + e) / e, the execution time floored at one second so that a
        // zero-length job does not divide by zero.
        let sld = (w + e.max(1.0)) / e.max(1.0);
        // max((w + e) / max(e, 10), 1): jobs shorter than the 10-second
        // interactive threshold count as 10 seconds long.
        let bsld = ((w + e) / e.max(10.0)).max(1.0);
        wait += w;
        turnaround += end - job.submit_time;
        slowdown += sld;
        bounded += bsld;
        busy += e * job.procs() as f64;
        first_submit = first_submit.min(job.submit_time);
        last_end = last_end.max(end);
        let user = users.entry(job.user_id).or_insert((0.0, 0.0));
        user.0 += bsld;
        user.1 += 1.0;
    }
    let n = jobs.len() as f64;
    let makespan = last_end - first_submit;
    ReferenceMetrics {
        avg_wait: wait / n,
        avg_turnaround: turnaround / n,
        avg_slowdown: slowdown / n,
        avg_bounded_slowdown: bounded / n,
        // The share of the cluster's processor-seconds over the makespan
        // that jobs kept busy.
        utilization: busy / (makespan * procs as f64),
        makespan,
        max_user_bounded_slowdown: users.values().map(|&(s, c)| s / c).fold(0.0, f64::max),
    }
}
