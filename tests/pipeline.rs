//! Cross-crate integration: workload generation → SWF round trip →
//! simulation → heuristic scheduling, over all six named workloads.

use rlsched_repro::core::{evaluate_policy, mean_metric, sample_eval_windows};
use rlsched_repro::sched::{HeuristicKind, PriorityScheduler, RandomPolicy};
use rlsched_repro::sim::{run_episode, MetricKind, Policy, SimConfig};
use rlsched_repro::swf::{parse_str, write_string, JobTrace, TraceStats};
use rlsched_repro::workload::NamedWorkload;

#[test]
fn every_workload_round_trips_through_swf() {
    for w in NamedWorkload::all() {
        let t = w.generate(300, 5);
        let parsed = parse_str(&write_string(&t)).expect("own SWF parses");
        assert_eq!(parsed.jobs(), t.jobs(), "{}", w.name());
        assert_eq!(parsed.max_procs(), t.max_procs());
    }
}

#[test]
fn every_workload_schedules_under_every_heuristic() {
    for w in NamedWorkload::all() {
        let t = w.generate(250, 6);
        for kind in HeuristicKind::table3() {
            for sim in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
                let mut sched = PriorityScheduler::new(kind);
                let m = run_episode(&t, sim, &mut sched)
                    .unwrap_or_else(|e| panic!("{} / {}: {e}", w.name(), kind.name()));
                assert_eq!(m.outcomes().len(), t.sanitized().len());
                for o in m.outcomes() {
                    assert!(o.start >= o.submit, "{}: job started early", w.name());
                    assert!(o.end > o.start);
                }
                assert!(m.avg_bounded_slowdown() >= 1.0);
                let u = m.utilization();
                assert!((0.0..=1.0 + 1e-9).contains(&u), "{}: util {u}", w.name());
            }
        }
    }
}

#[test]
fn generated_moments_match_table2_targets() {
    for w in NamedWorkload::all() {
        let t = w.generate(2000, 7);
        let s = TraceStats::from_trace(&t);
        let tg = w.targets();
        assert!(
            (s.mean_interarrival - tg.it).abs() / tg.it < 1e-6,
            "{} it",
            w.name()
        );
        assert!(
            (s.mean_run_time - tg.rt).abs() / tg.rt < 1e-6,
            "{} rt",
            w.name()
        );
        assert_eq!(s.max_procs, tg.size, "{} size", w.name());
    }
}

/// The Tier-1 slice of Table V's orderings, on the windows `repro table5
/// --seed 1` evaluates (5 × 256 jobs sampled from a 3 000-job trace):
/// EASY backfilling cuts every Table III heuristic's mean bounded
/// slowdown by at least a quarter, and SJF beats FCFS with and without
/// it, on Lublin-1 and Lublin-2.
#[test]
fn backfilling_helps_fcfs_on_congested_traces() {
    let seed = 1u64;
    for w in [NamedWorkload::Lublin1, NamedWorkload::Lublin2] {
        let trace = w.generate(3000, seed ^ w.name().len() as u64);
        let windows = sample_eval_windows(&trace, 5, 256, seed ^ 0xEA11);
        let bsld = |kind: HeuristicKind, sim: SimConfig| {
            let results = evaluate_policy(&windows, sim, &mut PriorityScheduler::new(kind));
            mean_metric(&results, MetricKind::BoundedSlowdown)
        };
        for kind in HeuristicKind::table3() {
            let (plain, easy) = (
                bsld(kind, SimConfig::no_backfill()),
                bsld(kind, SimConfig::with_backfill()),
            );
            assert!(
                easy <= 0.75 * plain,
                "{} / {}: EASY {easy:.3} vs plain {plain:.3}",
                w.name(),
                kind.name()
            );
        }
        for sim in [SimConfig::no_backfill(), SimConfig::with_backfill()] {
            let (sjf, fcfs) = (
                bsld(HeuristicKind::Sjf, sim),
                bsld(HeuristicKind::Fcfs, sim),
            );
            assert!(
                sjf < fcfs,
                "{} {sim:?}: SJF {sjf:.3} vs FCFS {fcfs:.3}",
                w.name()
            );
        }
    }
}

#[test]
fn informed_heuristics_beat_random_on_average() {
    let t = NamedWorkload::Lublin1.generate(600, 8);
    let windows: Vec<_> = (0..4).map(|i| t.window(i * 120, 150).unwrap()).collect();
    fn mean_of<P: Policy>(windows: &[JobTrace], policy: &mut P) -> f64 {
        windows
            .iter()
            .map(|w| {
                run_episode(w, SimConfig::default(), policy)
                    .unwrap()
                    .metric(MetricKind::BoundedSlowdown)
            })
            .sum::<f64>()
            / windows.len() as f64
    }
    let mut sjf = PriorityScheduler::new(HeuristicKind::Sjf);
    let mut rnd = RandomPolicy::new(3);
    let sjf_score = mean_of(&windows, &mut sjf);
    let rnd_score = mean_of(&windows, &mut rnd);
    assert!(
        sjf_score < rnd_score,
        "SJF ({sjf_score:.2}) should beat Random ({rnd_score:.2}) on bsld"
    );
}
