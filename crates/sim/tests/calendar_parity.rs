//! Calendar parity: a session on the indexed (Fenwick) wait queue must be
//! bit-identical to one on the seed `Vec` queue — same trajectories, same
//! metrics — across seeded traces, both backfill modes, and selection
//! policies that exercise out-of-order removal.

use rand::prelude::*;
use rlsched_sim::{
    EpisodeMetrics, IndexedQueue, LinearQueue, LinearSession, QueueBackend, SchedSession,
    SimConfig, WaitingJob,
};
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

/// Run one episode on a given backend, choosing ranks with `pick`.
fn run<Q: QueueBackend>(
    trace: &JobTrace,
    cfg: SimConfig,
    mut pick: impl FnMut(usize, &mut dyn Iterator<Item = WaitingJob>) -> usize,
) -> EpisodeMetrics {
    let mut s = SchedSession::<Q>::with_queue(trace, cfg).unwrap();
    while !s.done() {
        let len = s.queue_len();
        let pos = pick(len, &mut s.waiting_jobs());
        s.step(pos).unwrap();
    }
    s.metrics().unwrap()
}

fn assert_parity(
    trace: &JobTrace,
    cfg: SimConfig,
    mut pick: impl FnMut(usize, &mut dyn Iterator<Item = WaitingJob>) -> usize + Clone,
) {
    let linear = run::<LinearQueue>(trace, cfg, &mut pick);
    let indexed = run::<IndexedQueue>(trace, cfg, &mut pick);
    assert_eq!(linear, indexed);
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
    // Seeded random rank picks: both sessions see identical queue lengths
    // at every decision (or the pick sequences would diverge), which this
    // test implicitly verifies as well.
    for seed in 0..3 {
        let trace = random_trace(200 + seed, 300, 8);
        for cfg in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            let picks = std::cell::RefCell::new(StdRng::seed_from_u64(seed ^ 0xbeef));
            let linear =
                run::<LinearQueue>(&trace, cfg, |len, _| picks.borrow_mut().gen_range(0..len));
            let picks2 = std::cell::RefCell::new(StdRng::seed_from_u64(seed ^ 0xbeef));
            let indexed =
                run::<IndexedQueue>(&trace, cfg, |len, _| picks2.borrow_mut().gen_range(0..len));
            assert_eq!(linear, indexed);
        }
    }
}

/// `rank_of_ord` against the `Vec` reference: pushing the ordinal itself as
/// the job index makes an entry's rank its position in the `Vec`.
#[test]
fn rank_of_ord_matches_linear_positions_across_compactions() {
    let mut rng = StdRng::seed_from_u64(0x07d);
    let mut linear = LinearQueue::default();
    let mut indexed = IndexedQueue::with_capacity(16);
    let mut pushed = 0u64;
    let check_all = |linear: &LinearQueue, indexed: &IndexedQueue, pushed: u64| {
        let mut rank_of = vec![None; pushed as usize];
        for (rank, ord) in linear.iter().enumerate() {
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
            linear.push_back(pushed as usize);
            assert_eq!(
                indexed.push(pushed as usize),
                pushed,
                "ordinals count pushes"
            );
            assert_eq!(indexed.rank_of_ord(pushed), Some(linear.len() - 1));
            pushed += 1;
        } else {
            let rank = rng.gen_range(0..linear.len());
            let ord = linear.remove_at(rank) as u64;
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

#[test]
fn linear_session_alias_still_works() {
    let trace = random_trace(7, 50, 8);
    let mut s = LinearSession::with_queue(&trace, SimConfig::with_backfill()).unwrap();
    while !s.done() {
        s.step(0).unwrap();
    }
    assert_eq!(s.metrics().unwrap().outcomes().len(), 50);
}
