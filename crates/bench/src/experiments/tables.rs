//! Table generators: Tables II, V, VI, VII, VIII, IX, X, XI of the paper.

use std::time::Instant;

use serde_json::json;

use rlsched_sched::{select_streaming, HeuristicKind};
use rlsched_sim::{MetricKind, QueueView, SimConfig, WaitingJob};
use rlsched_swf::{Job, TraceStats};
use rlsched_workload::NamedWorkload;
use rlscheduler::{evaluate_policy, mean_metric, sample_eval_windows, FilterMode, PolicyKind};

use crate::experiments::{best_of, scheduler_row, worst_of};
use crate::profile::Profile;
use crate::report::{fmt_metric, Report};

/// Table II: characteristics of the six job traces.
pub fn table2(p: &Profile, report: &mut Report) {
    report.section("Table II: job trace characteristics");
    let mut rows = Vec::new();
    for w in NamedWorkload::all() {
        let t = p.trace(w);
        let s = TraceStats::from_trace(&t);
        let tg = w.targets();
        rows.push(vec![
            w.name().to_string(),
            s.max_procs.to_string(),
            fmt_metric(s.mean_interarrival),
            fmt_metric(s.mean_run_time),
            fmt_metric(s.mean_requested_procs),
            format!("({}/{}/{})", tg.it, tg.rt, tg.nt),
        ]);
        report.record(
            w.name(),
            json!({
                "size": s.max_procs, "it": s.mean_interarrival,
                "rt": s.mean_requested_time, "nt": s.mean_requested_procs,
                "target": {"it": tg.it, "rt": tg.rt, "nt": tg.nt},
                "cv_interarrival": s.cv_interarrival,
                "users": s.users, "max_user_jobs": s.max_user_jobs,
            }),
        );
    }
    report.table(
        &["Trace", "size", "it(s)", "rt(s)", "nt", "paper (it/rt/nt)"],
        &rows,
    );
}

/// The scheduling-grid tables: V (bsld), VI (util), X (slowdown),
/// XI (wait). One RL agent is trained per (trace, backfill mode) on the
/// table's metric, then all schedulers run the same sampled windows.
pub fn scheduling_grid(p: &Profile, metric: MetricKind, table_name: &str, report: &mut Report) {
    report.section(&format!(
        "{table_name}: scheduling toward {} ({} profile)",
        metric.name(),
        p.name
    ));
    for (mode_name, sim) in [
        ("without backfilling", SimConfig::no_backfill()),
        ("with backfilling", SimConfig::with_backfill()),
    ] {
        let mut rows = Vec::new();
        for (wi, w) in NamedWorkload::training_four().iter().enumerate() {
            let trace = p.trace(*w);
            let windows = sample_eval_windows(&trace, p.eval_seqs, p.eval_len, p.seed ^ 0xEA11);
            let (agent, _curve) = p.train_agent(
                *w,
                PolicyKind::Kernel,
                metric,
                sim,
                FilterMode::Off,
                0x7AB1E
                    ^ (wi as u64) << 8
                    ^ metric.name().len() as u64
                    ^ (sim.backfill == rlsched_sim::BackfillMode::Easy) as u64,
            );
            let row = scheduler_row(&windows, sim, metric, Some(&agent));
            let best = best_of(&row, metric);
            report.record(
                &format!("{}/{}", mode_name, w.name()),
                json!(row
                    .iter()
                    .map(|(n, v)| json!({"sched": n, "value": v}))
                    .collect::<Vec<_>>()),
            );
            let mut cells = vec![w.name().to_string()];
            cells.extend(row.iter().map(|(n, v)| {
                let s = fmt_metric(*v);
                if *n == best.0 {
                    format!("*{s}")
                } else {
                    s
                }
            }));
            rows.push(cells);
        }
        println!("\n-- {mode_name} (* = best) --");
        report.table(
            &["Trace", "FCFS", "WFP3", "UNICEP", "SJF", "F1", "RL"],
            &rows,
        );
    }
}

/// Table VII: transfer — apply RL-X (trained on X, bsld) to every trace Y.
pub fn table7(p: &Profile, report: &mut Report) {
    report.section("Table VII: RL-X models applied to other traces (bsld)");
    let metric = MetricKind::BoundedSlowdown;
    let train_on = NamedWorkload::training_four();
    let eval_on = [
        NamedWorkload::Lublin1,
        NamedWorkload::SdscSp2,
        NamedWorkload::Hpc2n,
        NamedWorkload::Lublin2,
        NamedWorkload::AnlIntrepid,
    ];

    for (mode_name, sim) in [
        ("without backfilling", SimConfig::no_backfill()),
        ("with backfilling", SimConfig::with_backfill()),
    ] {
        // Train one model per source trace.
        let agents: Vec<_> = train_on
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (agent, _) = p.train_agent(
                    *w,
                    PolicyKind::Kernel,
                    metric,
                    sim,
                    FilterMode::Off,
                    0x77AB
                        ^ (i as u64) << 4
                        ^ (sim.backfill == rlsched_sim::BackfillMode::Easy) as u64,
                );
                agent
            })
            .collect();

        let mut rows = Vec::new();
        for y in eval_on {
            let trace = p.trace(y);
            let windows = sample_eval_windows(&trace, p.eval_seqs, p.eval_len, p.seed ^ 0x7E57);
            let heur = scheduler_row(&windows, sim, metric, None);
            let best = best_of(&heur, metric);
            let worst = worst_of(&heur, metric);
            let mut cells = vec![
                y.name().to_string(),
                format!("{} ({})", fmt_metric(best.1), best.0),
                format!("{} ({})", fmt_metric(worst.1), worst.0),
            ];
            let mut cross = Vec::new();
            for agent in &agents {
                let r = evaluate_policy(&windows, sim, &mut agent.as_policy());
                let v = mean_metric(&r, metric);
                cross.push(v);
                cells.push(fmt_metric(v));
            }
            report.record(
                &format!("{}/{}", mode_name, y.name()),
                json!({
                    "best_heuristic": {"name": best.0, "value": best.1},
                    "worst_heuristic": {"name": worst.0, "value": worst.1},
                    "rl_models": train_on.iter().zip(&cross)
                        .map(|(w, v)| json!({"trained_on": w.name(), "value": v}))
                        .collect::<Vec<_>>(),
                }),
            );
            rows.push(cells);
        }
        println!("\n-- {mode_name} --");
        report.table(
            &[
                "Trace",
                "Best Heur",
                "Worst Heur",
                "RL-Lublin-1",
                "RL-SDSC-SP2",
                "RL-HPC2N",
                "RL-Lublin-2",
            ],
            &rows,
        );
    }
}

/// Table VIII: bounded slowdown with Maximal fairness, on the two traces
/// that carry user structure (SDSC-SP2, HPC2N).
pub fn table8(p: &Profile, report: &mut Report) {
    report.section("Table VIII: bsld with Maximal per-user fairness");
    let metric = MetricKind::FairMaxBoundedSlowdown;
    for (mode_name, sim) in [
        ("without backfilling", SimConfig::no_backfill()),
        ("with backfilling", SimConfig::with_backfill()),
    ] {
        let mut rows = Vec::new();
        for (i, w) in [NamedWorkload::SdscSp2, NamedWorkload::Hpc2n]
            .iter()
            .enumerate()
        {
            let trace = p.trace(*w);
            let windows = sample_eval_windows(&trace, p.eval_seqs, p.eval_len, p.seed ^ 0xFA1E);
            let (agent, _) = p.train_agent(
                *w,
                PolicyKind::Kernel,
                metric,
                sim,
                FilterMode::Off,
                0xFA17 ^ (i as u64) << 3 ^ (sim.backfill == rlsched_sim::BackfillMode::Easy) as u64,
            );
            let row = scheduler_row(&windows, sim, metric, Some(&agent));
            let best = best_of(&row, metric);
            report.record(
                &format!("{}/{}", mode_name, w.name()),
                json!(row
                    .iter()
                    .map(|(n, v)| json!({"sched": n, "value": v}))
                    .collect::<Vec<_>>()),
            );
            let mut cells = vec![w.name().to_string()];
            cells.extend(row.iter().map(|(n, v)| {
                let s = fmt_metric(*v);
                if *n == best.0 {
                    format!("*{s}")
                } else {
                    s
                }
            }));
            rows.push(cells);
        }
        println!("\n-- {mode_name} (* = best) --");
        report.table(
            &["Trace", "FCFS", "WFP3", "UNICEP", "SJF", "F1", "RL"],
            &rows,
        );
    }
}

/// Table IX: computational cost — decision latency for 128 pending jobs
/// (SJF sort vs RL DNN inference) and one training epoch.
pub fn table9(p: &Profile, report: &mut Report) {
    report.section("Table IX: computational cost");

    // A 128-job decision point.
    let jobs: Vec<Job> = (0..128u32)
        .map(|i| {
            Job::new(
                i + 1,
                i as f64,
                60.0 + i as f64 * 7.0,
                1 + i % 16,
                100.0 + i as f64 * 9.0,
            )
        })
        .collect();
    let view = QueueView {
        time: 1000.0,
        free_procs: 64,
        total_procs: 256,
        waiting: jobs
            .iter()
            .enumerate()
            .map(|(i, job)| WaitingJob {
                job,
                job_index: i,
                wait: 1000.0 - job.submit_time,
                can_run_now: job.procs() <= 64,
            })
            .collect(),
    };

    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(select_streaming(
            HeuristicKind::Sjf,
            view.waiting.iter().copied(),
        ));
    }
    let sjf_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    // The paper times the 128-slot DNN; build the full-size agent.
    let full_agent = Profile {
        max_obsv: 128,
        ..*p
    }
    .agent(PolicyKind::Kernel, MetricKind::BoundedSlowdown, 0x71ED);
    // Through one reused decision head, the path every scheduling loop
    // and the replay engine run: encode, forward, clamp, no allocation.
    let mut head = full_agent.as_policy();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(head.decide(
            view.free_procs,
            view.total_procs,
            view.waiting.len(),
            view.waiting.iter().copied(),
        ));
    }
    let rl_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    // One training epoch at profile scale.
    let trace = p.trace(NamedWorkload::Lublin1);
    let mut agent = p.agent(PolicyKind::Kernel, MetricKind::BoundedSlowdown, 0x71EE);
    let mut cfg = p.train_cfg(SimConfig::default(), FilterMode::Off);
    cfg.epochs = 1;
    let t0 = Instant::now();
    let _ = rlscheduler::train(&mut agent, &trace, &cfg);
    let epoch_s = t0.elapsed().as_secs_f64();

    let rows = vec![
        vec![
            "SJF sorts 128 jobs and picks one".to_string(),
            format!("{sjf_ms:.3} ms"),
        ],
        vec![
            "RLScheduler DNN makes a decision (128 jobs)".to_string(),
            format!("{rl_ms:.3} ms"),
        ],
        vec![
            format!(
                "RLScheduler training, one epoch ({} traj x {} jobs)",
                cfg.trajectories_per_epoch, cfg.seq_len
            ),
            format!("{epoch_s:.2} s"),
        ],
        vec![
            "Estimated convergence (x epochs-to-converge)".to_string(),
            format!(
                "{:.1} min for ~{} epochs",
                epoch_s * p.epochs as f64 / 60.0,
                p.epochs
            ),
        ],
    ];
    report.table(&["Operation", "Time"], &rows);
    report.record(
        "timings",
        json!({
            "sjf_decision_ms": sjf_ms,
            "rl_decision_ms": rl_ms,
            "epoch_seconds": epoch_s,
            "paper": {"sjf_decision_ms": 0.71, "rl_decision_ms": 0.30, "epoch_seconds": 123.0}
        }),
    );
}
