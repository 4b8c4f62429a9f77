//! Phase profiler for the PPO update loop (sibling of
//! `lockstep_profile`): attributes update wall time to minibatch gather /
//! forward / backward / optimizer, for the kernel network and for the
//! LeNet CNN (whose conv and pool backward run in the same fused sweep),
//! so regressions in any one phase are attributable.
//!
//! ```text
//! cargo run --release -p rlsched-bench --bin update_profile -- [reps]
//! ```
//!
//! Each network is updated at one fixed configuration: a 64-job window,
//! 5+5 iterations, minibatch 512 over an 8×128-step batch, on every
//! core. A committed reference run lives at
//! `crates/bench/PROFILE_update_phases.txt` — regenerate it when the
//! update path changes.
//!
//! That file was taken on a shared 2-core Intel Xeon VM
//! (`available_parallelism` = 2, AVX2+FMA) with `update_profile 20`,
//! after the batch began storing each window's valid job rows only: the
//! kernel net and the LeNet CNN at this configuration with 2 workers,
//! the quietest of three back-to-back runs (the box swings the walls
//! 20–50 % run to run; compare against a parent build run alternately,
//! never against this file). Its `batch rows` line is the batch's
//! observation storage, which is exact. The binary asserts forward and
//! backward non-zero and `total()` within 5 % of the wall.

use rlsched_rl::{collect_rollouts_vec, PpoConfig, UpdateProfile, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn print_profile(name: &str, p: &UpdateProfile, reps: u32, wall: std::time::Duration) {
    let total = p.total().as_secs_f64() * 1e3 / reps as f64;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / reps as f64;
    let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / p.total().as_secs_f64();
    println!("{name} ({:.2} ms/update wall):", ms(wall));
    println!(
        "  gather    : {:7.2} ms  ({:4.1}%)",
        ms(p.gather),
        pct(p.gather)
    );
    println!(
        "  forward   : {:7.2} ms  ({:4.1}%)",
        ms(p.forward),
        pct(p.forward)
    );
    println!(
        "  backward  : {:7.2} ms  ({:4.1}%)",
        ms(p.backward),
        pct(p.backward)
    );
    println!(
        "  optimizer : {:7.2} ms  ({:4.1}%)",
        ms(p.optimizer),
        pct(p.optimizer)
    );
    println!("  attributed: {total:7.2} ms");
    println!(
        "  rows      : {:.1}% of the windows' rows scored by the policy passes",
        100.0 * p.policy_rows as f64 / p.policy_window_rows as f64
    );
}

/// Profile `reps` updates of a fresh `kind` agent on one collected batch
/// and check that the fused attribution covers the wall.
fn profile(kind: PolicyKind, reps: u32) {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    let cfg = AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 5,
            train_v_iters: 5,
            minibatch: Some(512),
            ..PpoConfig::default()
        },
        seed: 5,
    };
    let mut agent = Agent::new(cfg);
    let encoder = *agent.encoder();
    let objective = agent.objective();
    let envs: Vec<SchedulingEnv> = (0..8)
        .map(|_| SchedulingEnv::new(trace.clone(), 128, SimConfig::default(), encoder, objective))
        .collect();
    let seeds: Vec<u64> = (0..8).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut VecEnv::new(envs), &seeds);
    println!(
        "batch: {} transitions, minibatch 512, 5 pi + 5 v iters, {}@64, reps {reps}, {} cores\n",
        batch.len(),
        kind.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Warm the fused scratch and the optimizer state.
    let _ = agent.ppo_mut().update(&batch);

    let mut prof = UpdateProfile::default();
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = agent.ppo_mut().update_profiled(&batch, &mut prof);
    }
    let wall = t0.elapsed();
    print_profile(&format!("{} (fused sweep)", kind.name()), &prof, reps, wall);
    // The fused path interleaves forward and backward per chunk and
    // apportions each pass's wall time between them: if that attribution
    // goes dark, fail here (CI smoke-runs this binary).
    assert!(
        !prof.forward.is_zero() && !prof.backward.is_zero(),
        "{}: fused forward/backward attribution went dark: {prof:?}",
        kind.name()
    );
    let coverage = prof.total().as_secs_f64() / wall.as_secs_f64();
    assert!(
        (0.95..=1.05).contains(&coverage),
        "{}: fused phases cover {:.1}% of the measured wall",
        kind.name(),
        100.0 * coverage
    );
    let (pi, vf) = agent.ppo().fused_scratch();
    println!(
        "  scratch   : {:.2} MB per-worker + {:.2} MB per-chunk partials (actor + critic)",
        (pi.worker_bytes() + vf.worker_bytes()) as f64 / 1e6,
        (pi.partial_bytes() + vf.partial_bytes()) as f64 / 1e6,
    );
    println!(
        "  batch rows: {:.2} MB stored (each window's valid job rows and their count; {:.2} MB as whole windows and masks)",
        batch.storage_bytes() as f64 / 1e6,
        (batch.len() * batch.n_actions() * (batch.features() + 1) * 4) as f64 / 1e6,
    );
    println!();
}

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    profile(PolicyKind::Kernel, reps);
    profile(PolicyKind::LeNet, reps);
}
