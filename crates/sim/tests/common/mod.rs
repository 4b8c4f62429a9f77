//! The reference simulator: SchedGym's loop (§IV-D) with EASY backfilling
//! (§II-A4), written to be read, not to be fast — a `Vec` queue with
//! `remove(rank)`, a `Vec` of running jobs scanned for its minimum, the idle
//! processors recounted from it at every turn, the shadow time from a sorted
//! copy. It shares nothing with `rlsched_sim` but the `Job` record, so a test
//! that holds the crate's event loop to it compares two programs, not one
//! program with itself.

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
