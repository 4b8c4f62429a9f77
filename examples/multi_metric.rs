//! Domain scenario: the paper's core motivation — the *same* automated
//! scheduler adapts to different optimization goals (§V-D).
//!
//! An operations team first wants high utilization, then management pivots
//! to user experience (low bounded slowdown). With heuristics that means
//! swapping schedulers; with RLScheduler it means changing one line — the
//! reward — and retraining.
//!
//! ```text
//! cargo run --release --example multi_metric
//! ```

use rlsched_repro::core::prelude::*;
use rlsched_repro::sched::{HeuristicKind, PriorityScheduler};
use rlsched_repro::workload::NamedWorkload;

fn train_for(metric: MetricKind, trace: &rlsched_repro::swf::JobTrace, seed: u64) -> Agent {
    let mut cfg = AgentConfig::for_metric(metric);
    cfg.obs.max_obsv = 32;
    cfg.ppo.train_pi_iters = 15;
    cfg.ppo.train_v_iters = 15;
    cfg.ppo.minibatch = Some(512);
    cfg.seed = seed;
    let mut agent = Agent::new(cfg);
    let train_cfg = TrainConfig {
        epochs: 8,
        trajectories_per_epoch: 10,
        seq_len: 128,
        sim: SimConfig::with_backfill(),
        filter: FilterMode::Off,
        seed,
        n_envs: 8,
        ..TrainConfig::default()
    };
    train(&mut agent, trace, &train_cfg);
    agent
}

fn main() {
    let trace = NamedWorkload::Lublin2.generate(1500, 11);
    let windows = sample_eval_windows(&trace, 4, 256, 5);
    let sim = SimConfig::with_backfill();

    println!("goal 1: maximize utilization — retrain with reward = +util");
    let util_agent = train_for(MetricKind::Utilization, &trace, 1);
    println!("goal 2: minimize bounded slowdown — retrain with reward = -bsld");
    let bsld_agent = train_for(MetricKind::BoundedSlowdown, &trace, 2);

    println!("\n{:<12} {:>10} {:>10}", "scheduler", "util", "bsld");
    for kind in HeuristicKind::table3() {
        let mut sched = PriorityScheduler::new(kind);
        let r = evaluate_policy(&windows, sim, &mut sched);
        println!(
            "{:<12} {:>10.3} {:>10.2}",
            kind.name(),
            mean_metric(&r, MetricKind::Utilization),
            mean_metric(&r, MetricKind::BoundedSlowdown)
        );
    }
    for (name, agent) in [("RL-util", &util_agent), ("RL-bsld", &bsld_agent)] {
        let r = evaluate_policy(&windows, sim, &mut agent.as_policy());
        println!(
            "{:<12} {:>10.3} {:>10.2}",
            name,
            mean_metric(&r, MetricKind::Utilization),
            mean_metric(&r, MetricKind::BoundedSlowdown)
        );
    }

    println!(
        "\nSame code path, two policies: the reward function is the only thing\n\
         that changed between RL-util and RL-bsld (§IV-A of the paper)."
    );
}
