//! Ablation benches beyond the paper: sensitivity of the two design
//! choices §IV of the paper calls out — the observation window (MAX_OBSV_SIZE)
//! and the trajectory-filter acceptance range.

use serde_json::json;

use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    evaluate_policy, mean_metric, sample_eval_windows, train, FilterMode, ObsConfig, PolicyKind,
    TrajectoryFilter,
};

use crate::profile::Profile;
use crate::report::{fmt_metric, Report};

/// MAX_OBSV_SIZE sweep: how much does the FCFS cutoff window matter?
pub fn ablate_obs(p: &Profile, report: &mut Report) {
    report.section("Ablation: observation window MAX_OBSV_SIZE (Lublin-1, bsld)");
    let trace = p.trace(NamedWorkload::Lublin1);
    let windows = sample_eval_windows(&trace, p.eval_seqs, p.eval_len, p.seed ^ 0xAB0);
    let mut rows = Vec::new();
    for (i, max_obsv) in [16usize, 32, 64, 128].into_iter().enumerate() {
        let mut agent = {
            let mut a = p.agent(
                PolicyKind::Kernel,
                MetricKind::BoundedSlowdown,
                0xAB1 ^ (i as u64) << 2,
            );
            // Rebuild with the swept window size.
            let mut cfg = a.config().clone();
            cfg.obs = ObsConfig {
                max_obsv,
                ..cfg.obs
            };
            a = rlscheduler::Agent::new(cfg);
            a
        };
        let curve = train(
            &mut agent,
            &trace,
            &p.train_cfg(SimConfig::default(), FilterMode::Off),
        );
        let results = evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy());
        let final_metric = mean_metric(&results, MetricKind::BoundedSlowdown);
        let last_train = curve.last().map(|e| e.mean_metric).unwrap_or(f64::NAN);
        report.record(
            &format!("obsv{max_obsv}"),
            json!({"eval_bsld": final_metric, "train_tail": last_train,
                   "params": agent.policy_param_count()}),
        );
        rows.push(vec![
            max_obsv.to_string(),
            agent.policy_param_count().to_string(),
            fmt_metric(last_train),
            fmt_metric(final_metric),
        ]);
    }
    report.table(
        &["MAX_OBSV", "policy params", "train tail bsld", "eval bsld"],
        &rows,
    );
}

/// Filter-range sweep on PIK-IPLEX: R ∈ {(med, mean), (med, 2·mean),
/// (med, 4·mean), off}.
pub fn ablate_filter_range(p: &Profile, report: &mut Report) {
    report.section("Ablation: trajectory-filter range R (PIK-IPLEX, bsld)");
    let trace = p.trace(NamedWorkload::PikIplex);
    let seq = p.train_seq;
    let base = TrajectoryFilter::fit(
        &trace,
        seq,
        p.filter_fit,
        MetricKind::BoundedSlowdown,
        SimConfig::default(),
        p.seed ^ 0xAB2,
    );
    println!(
        "fitted: median {}  mean {}",
        fmt_metric(base.median()),
        fmt_metric(base.mean())
    );

    let variants: Vec<(&str, Option<f64>)> = vec![
        ("(median, 1*mean)", Some(1.0)),
        ("(median, 2*mean)", Some(2.0)),
        ("(median, 4*mean)", Some(4.0)),
        ("no filter", None),
    ];
    let mut rows = Vec::new();
    for (i, (name, mult)) in variants.into_iter().enumerate() {
        let filter = match mult {
            Some(hi_mult) => FilterMode::TwoPhase {
                phase1_epochs: (p.epochs * 2 / 3).max(1),
                fit_samples: p.filter_fit,
                hi_mult,
            },
            None => FilterMode::Off,
        };
        let acceptance = mult
            .map(|m| {
                let mut f = base.clone();
                f.set_range(f.median(), m * f.mean());
                f.acceptance_rate()
            })
            .unwrap_or(1.0);
        let (_agent, curve) = p.train_agent(
            NamedWorkload::PikIplex,
            PolicyKind::Kernel,
            MetricKind::BoundedSlowdown,
            SimConfig::default(),
            filter,
            0xAB3 ^ (i as u64) << 3,
        );
        let tail: Vec<f64> = curve[curve.len() * 2 / 3..]
            .iter()
            .map(|e| e.mean_metric)
            .collect();
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        report.record(
            &format!("variant{i}"),
            json!({"range": name, "acceptance": acceptance, "tail_bsld": tail_mean}),
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.0}%", acceptance * 100.0),
            fmt_metric(tail_mean),
        ]);
    }
    report.table(&["Range R", "acceptance", "tail bsld"], &rows);
}
