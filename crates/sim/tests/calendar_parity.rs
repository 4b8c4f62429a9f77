//! Calendar parity. The wait queue (`IndexedQueue`: Fenwick ranks, push
//! ordinals, the backfill index) is held to a plain `Vec` of the same
//! entries, operation for operation. The session that runs on it is held to
//! the reference simulator in `common` — a `Vec` queue scanned rank by rank,
//! written from the paper and sharing no code with the crate — start time
//! for start time, across seeded traces, both backfill modes, selection
//! policies that exercise out-of-order removal, and bursts that queue
//! thousands deep.

mod common;

use common::reference_starts;
use rand::prelude::*;
use rlsched_sim::{BackfillMode, IndexedQueue, SchedSession, SimConfig, StreamSession, WaitingJob};
use rlsched_swf::{Job, JobTrace};

fn random_trace(seed: u64, n: usize, procs: u32) -> JobTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let jobs = (0..n)
        .map(|i| {
            t += rng.gen_range(0.0..40.0);
            Job::new(
                i as u32 + 1,
                t,
                rng.gen_range(1.0..300.0),
                rng.gen_range(1..=procs),
                rng.gen_range(1.0..400.0),
            )
            .with_user(rng.gen_range(0..7))
        })
        .collect();
    JobTrace::new(jobs, procs)
}

/// Run one episode choosing ranks with `pick`, and hold every start time
/// to the reference simulator under the same picks.
fn assert_parity(
    trace: &JobTrace,
    cfg: SimConfig,
    mut pick: impl FnMut(usize, &mut dyn Iterator<Item = WaitingJob>) -> usize,
) {
    let mut s = SchedSession::new(trace, cfg).unwrap();
    let mut picks = Vec::new();
    while !s.done() {
        let pos = pick(s.queue_len(), &mut s.waiting_jobs());
        picks.push(pos);
        s.step(pos).unwrap();
    }
    let metrics = s.metrics().unwrap();
    let starts: Vec<f64> = metrics.outcomes().iter().map(|o| o.start).collect();
    let sane = trace.sanitized().clamp_to_cluster();
    let easy = cfg.backfill == BackfillMode::Easy;
    assert_eq!(
        starts,
        reference_starts(sane.jobs(), sane.max_procs(), easy, &picks),
        "{cfg:?}"
    );
}

#[test]
fn fcfs_parity_across_seeds_and_modes() {
    for seed in 0..5 {
        let trace = random_trace(seed, 400, 16);
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            assert_parity(&trace, cfg, |_, _| 0);
        }
    }
}

#[test]
fn sjf_like_parity() {
    // Pick the shortest requested runtime: deep out-of-order removals.
    let pick = |_len: usize, waiting: &mut dyn Iterator<Item = WaitingJob>| {
        waiting
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.job
                    .time_bound()
                    .partial_cmp(&b.job.time_bound())
                    .unwrap()
                    .then(a.job_index.cmp(&b.job_index))
            })
            .map(|(rank, _)| rank)
            .unwrap_or(0)
    };
    for seed in 0..3 {
        let trace = random_trace(100 + seed, 400, 16);
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            assert_parity(&trace, cfg, pick);
        }
    }
}

#[test]
fn random_policy_parity() {
    // Seeded random rank picks: the reference panics on a rank past the
    // end of its queue, so the queue lengths agree at every decision too.
    for seed in 0..3 {
        let trace = random_trace(200 + seed, 300, 8);
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
            assert_parity(&trace, cfg, |len, _| rng.gen_range(0..len));
        }
    }
}

/// `rank_of_ord` against the `Vec` reference: pushing the ordinal itself as
/// the job index makes an entry's rank its position in the `Vec`.
#[test]
fn rank_of_ord_matches_linear_positions_across_compactions() {
    let mut rng = StdRng::seed_from_u64(0x07d);
    let mut linear: Vec<usize> = Vec::new();
    let mut indexed = IndexedQueue::with_capacity(16);
    let mut pushed = 0u64;
    let check_all = |linear: &[usize], indexed: &IndexedQueue, pushed: u64| {
        let mut rank_of = vec![None; pushed as usize];
        for (rank, &ord) in linear.iter().enumerate() {
            rank_of[ord] = Some(rank);
        }
        for ord in 0..pushed {
            assert_eq!(
                indexed.rank_of_ord(ord),
                rank_of[ord as usize],
                "ordinal {ord} of {pushed}"
            );
        }
        assert_eq!(indexed.rank_of_ord(pushed), None, "not pushed yet");
    };
    for op in 0..20_000 {
        if linear.len() < 2 || rng.gen_bool(0.52) {
            linear.push(pushed as usize);
            assert_eq!(
                indexed.push(pushed as usize),
                pushed,
                "ordinals count pushes"
            );
            assert_eq!(indexed.rank_of_ord(pushed), Some(linear.len() - 1));
            pushed += 1;
        } else {
            let rank = rng.gen_range(0..linear.len());
            let ord = linear.remove(rank) as u64;
            assert_eq!(indexed.rank_of_ord(ord), Some(rank));
            assert_eq!(indexed.remove_at(rank) as u64, ord);
            assert_eq!(indexed.rank_of_ord(ord), None, "removed");
        }
        if op % 101 == 0 {
            check_all(&linear, &indexed, pushed);
        }
    }
    check_all(&linear, &indexed, pushed);
    // Compaction fires whenever dead slots outnumber live ones by 64, so
    // this many removals against this few survivors crossed it many times.
    assert!(pushed as usize > 8 * linear.len());
}

/// `first_fit` against a scan of the same `(procs, bound)` pairs in a `Vec`.
///
/// The queue is pumped up to 2 500 entries from an index built for 16 (eight
/// doublings, past 1 024 slots) and drained to 40, three times over, so the
/// index is re-derived by many compactions, most of them far below its peak
/// capacity. The mix is built to defeat pruning on the minima: narrow-long
/// and wide-short decoys put `(1, 1.0)` on almost every node, so a query
/// that only a rare *needle* — narrow and short — satisfies has to back out
/// of subtree after subtree, and usually finds the needle behind a refused
/// prefix hundreds of entries long.
#[test]
fn first_fit_matches_a_linear_scan_across_growth_and_compactions() {
    let mut rng = StdRng::seed_from_u64(0xf17);
    let mut reference: Vec<(usize, u32, f64)> = Vec::new();
    let mut indexed = IndexedQueue::with_first_fit(16);
    let scan = |reference: &[(usize, u32, f64)], from: usize, free: u32, time: f64, shadow: f64| {
        (from..reference.len()).find(|&r| {
            let (_, procs, bound) = reference[r];
            procs <= free && time + bound <= shadow
        })
    };
    let (mut pushed, mut needles, mut behind_a_prefix) = (0usize, 0usize, 0usize);
    for target in [2_500, 40, 2_500, 40, 2_500, 40] {
        while reference.len() != target {
            let grow = reference.len() < target;
            if reference.len() < 2 || rng.gen_bool(if grow { 0.9 } else { 0.1 }) {
                let (procs, bound) = match rng.gen_range(0..400) {
                    0 => (1, 1.0),
                    1..=60 => (1, rng.gen_range(500.0..1000.0)),
                    61..=120 => (64, 1.0),
                    _ => (rng.gen_range(2..=64), rng.gen_range(10.0..1000.0)),
                };
                reference.push((pushed, procs, bound));
                assert_eq!(indexed.push_fit(pushed, procs, bound), pushed as u64);
                pushed += 1;
            } else {
                let rank = rng.gen_range(0..reference.len());
                assert_eq!(indexed.remove_at(rank), reference.remove(rank).0);
            }
            if pushed % 7 != 0 {
                continue;
            }
            let len = reference.len();
            let from = rng.gen_range(0..=len);
            let time = rng.gen_range(0.0..1e6);
            // A shadow some waiting job meets exactly, rounding included.
            let exact = time + reference[rng.gen_range(0..len)].2;
            let queries = [
                // Nothing: no processor idle, or no hole at all.
                (0, time, f64::INFINITY),
                (u32::MAX, time, time),
                // Everything.
                (u32::MAX, time, f64::INFINITY),
                // Needles only, by either dimension and by both.
                (1, time, time + 1.0),
                (1, time, time + 499.0),
                (63, time, time + 1.0),
                // Anything in between.
                (rng.gen_range(1..=64), time, exact),
                (
                    rng.gen_range(1..=64),
                    time,
                    time + rng.gen_range(0.0..1000.0),
                ),
            ];
            for (free, time, shadow) in queries {
                let want = scan(&reference, from, free, time, shadow);
                assert_eq!(
                    indexed.first_fit(from, free, time, shadow),
                    want,
                    "from {from} of {len}, free {free}, time {time}, shadow {shadow}"
                );
                if (free, shadow) == (1, time + 1.0) {
                    needles += want.is_some() as usize;
                    behind_a_prefix += want.is_some_and(|r| r >= from + 200) as usize;
                }
            }
            assert_eq!(indexed.first_fit(0, u32::MAX, time, f64::INFINITY), Some(0));
            assert_eq!(indexed.first_fit(len, u32::MAX, time, f64::INFINITY), None);
        }
        assert!(indexed.iter().eq(reference.iter().map(|e| e.0)));
    }
    assert!(pushed > 8_000, "{pushed} pushes");
    assert!(
        needles > 100 && behind_a_prefix > 30,
        "{needles} needle queries answered, {behind_a_prefix} behind 200+ refused entries"
    );
}

/// Bursts of same-instant jobs, so EASY backfills over a queue thousands
/// deep that compacts several times as it drains, under seeded random
/// picks: the session (first-fit descents) must reproduce the reference
/// simulator (rank-by-rank scan of a `Vec`) start for start.
#[test]
fn deep_burst_backfill_matches_the_scanning_session() {
    let procs = 64;
    for seed in 0..2 {
        let mut rng = StdRng::seed_from_u64(0xb0b + seed);
        let jobs: Vec<Job> = (0..6_400)
            .map(|i| {
                let run: f64 = rng.gen_range(1.0..300.0);
                Job::new(
                    i as u32 + 1,
                    // Two bursts; the second lands on the first's backlog.
                    if i < 3_200 { 0.0 } else { 20_000.0 },
                    run,
                    // Wide jobs to block on, narrow ones for a pass to
                    // start by the run of neighbours.
                    if rng.gen_bool(0.5) {
                        rng.gen_range(1..=4)
                    } else {
                        rng.gen_range(24..=procs)
                    },
                    run * rng.gen_range(1.0..3.0),
                )
                .with_user(rng.gen_range(0..7))
            })
            .collect();
        let mut stream =
            StreamSession::new(jobs.iter().cloned(), procs, SimConfig::with_backfill())
                .unwrap()
                .with_outcome_log();
        let mut picks = Vec::new();
        while !stream.done() {
            let p = rng.gen_range(0..stream.queue_len());
            picks.push(p);
            stream.step(p).unwrap();
        }
        assert!(stream.peak_queue_depth() >= 3_000);
        assert!(
            picks.len() < 6_400 / 2,
            "most jobs were backfilled: {} decisions",
            picks.len()
        );
        let metrics = stream.log_metrics().unwrap();
        let starts: Vec<f64> = metrics.outcomes().iter().map(|o| o.start).collect();
        // Every job is schedulable, sane and narrower than the cluster, so
        // the trace needs no sanitizing before the reference reads it.
        assert_eq!(starts, reference_starts(&jobs, procs, true, &picks));
    }
}
