//! The reproduction driver: regenerates every table and figure of the
//! RLScheduler paper's evaluation section.
//!
//! ```text
//! repro <experiment> [--full] [--seed N] [--out DIR]
//!
//! experiments:
//!   table2              trace characteristics
//!   fig3 fig7           PIK-IPLEX variance analysis / filter distribution
//!   fig8                policy-network architecture comparison
//!   fig9                trajectory filtering on/off
//!   fig10 fig11 fig12 fig13   training curves (bsld/util/slowdown/wait)
//!   table5 table6 table10 table11   scheduling grids (bsld/util/sld/wait)
//!   table7              transfer study (RL-X on trace Y)
//!   table8              fairness (Maximal per-user bsld)
//!   table9              computational cost
//!   ablate-obs ablate-filter-range   design ablations
//!   all                 every paper experiment above, in order
//! ```

use std::process::ExitCode;

use rlsched_bench::experiments::{ablations, figures, tables};
use rlsched_bench::{Profile, Report};
use rlsched_sim::MetricKind;

struct Args {
    experiment: String,
    full: bool,
    seed: Option<u64>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = None;
    let mut full = false;
    let mut seed = None;
    let mut out = "results".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed: {v}"))?);
            }
            "--out" => out = it.next().ok_or("--out needs a value")?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string())
            }
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        experiment: experiment.ok_or(USAGE.to_string())?,
        full,
        seed,
        out,
    })
}

const USAGE: &str = "usage: repro <experiment> [--full] [--seed N] [--out DIR]\n\
experiments: table2 fig3 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
table5 table6 table7 table8 table9 table10 table11 ablate-obs ablate-filter-range all";

fn run_one(id: &str, p: &Profile, out: &str) -> Result<(), String> {
    let mut report = Report::new(id, out);
    match id {
        "table2" => tables::table2(p, &mut report),
        "fig3" => figures::fig3(p, &mut report),
        "fig7" => figures::fig7(p, &mut report),
        "fig8" => figures::fig8(p, &mut report),
        "fig9" => figures::fig9(p, &mut report),
        "fig10" => figures::training_curves(p, MetricKind::BoundedSlowdown, "Fig 10", &mut report),
        "fig11" => figures::training_curves(p, MetricKind::Utilization, "Fig 11", &mut report),
        "fig12" => figures::training_curves(p, MetricKind::Slowdown, "Fig 12", &mut report),
        "fig13" => figures::training_curves(p, MetricKind::WaitTime, "Fig 13", &mut report),
        "table5" => tables::scheduling_grid(p, MetricKind::BoundedSlowdown, "Table V", &mut report),
        "table6" => tables::scheduling_grid(p, MetricKind::Utilization, "Table VI", &mut report),
        "table10" => tables::scheduling_grid(p, MetricKind::Slowdown, "Table X", &mut report),
        "table11" => tables::scheduling_grid(p, MetricKind::WaitTime, "Table XI", &mut report),
        "table7" => tables::table7(p, &mut report),
        "table8" => tables::table8(p, &mut report),
        "table9" => tables::table9(p, &mut report),
        "ablate-obs" => ablations::ablate_obs(p, &mut report),
        "ablate-filter-range" => ablations::ablate_filter_range(p, &mut report),
        other => return Err(format!("unknown experiment: {other}\n{USAGE}")),
    }
    report.save().map_err(|e| format!("saving report: {e}"))?;
    Ok(())
}

const ALL: &[&str] = &[
    "table2",
    "fig3",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "ablate-obs",
    "ablate-filter-range",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut profile = Profile::from_flag(args.full);
    if let Some(s) = args.seed {
        profile.seed = s;
    }
    println!(
        "profile: {} (traces {} jobs, {} epochs x {} traj x {} jobs, eval {} x {} jobs)",
        profile.name,
        profile.trace_jobs,
        profile.epochs,
        profile.trajectories,
        profile.train_seq,
        profile.eval_seqs,
        profile.eval_len
    );

    let t0 = std::time::Instant::now();
    let result = if args.experiment == "all" {
        ALL.iter()
            .try_for_each(|id| run_one(id, &profile, &args.out))
    } else {
        run_one(&args.experiment, &profile, &args.out)
    };
    println!("\n[total {:.1}s]", t0.elapsed().as_secs_f64());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
