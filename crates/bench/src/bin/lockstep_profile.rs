//! Throwaway phase profiler for the lockstep rollout loop (not wired
//! into CI): times policy/value/sample/step/store separately at a given
//! n_envs so regressions in any one phase are attributable. The store
//! phase is the rollout arena's: each window held to the window contract
//! and its valid job rows appended.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_rl::{ArrivalArena, MaskedCategorical, PolicyModel, PpoConfig, ValueModel, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn main() {
    if std::env::args().nth(1).as_deref() == Some("collect") {
        collect_widths();
        return;
    }
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    const SEQ_LEN: usize = 64;
    let agent = Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    });
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    let proto = SchedulingEnv::new(
        trace,
        SEQ_LEN,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    );
    let mut venv = VecEnv::new((0..n).map(|_| proto.clone()).collect::<Vec<_>>());
    let seeds: Vec<u64> = (0..n as u64).collect();
    let (od, na) = (venv.obs_dim(), venv.n_actions());

    let (mut t_pi, mut t_v, mut t_s, mut t_step, mut t_store) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let mut scratch = rlsched_nn::Scratch::new();
    let (mut obs, mut masks) = (Vec::new(), Vec::new());
    let (mut next_obs, mut next_masks) = (Vec::new(), Vec::new());
    let (mut logps, mut values) = (Vec::new(), Vec::<f64>::new());
    let mut actions = Vec::new();
    let mut outcomes = Vec::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut steps = 0usize;
    let mut stored = 0.0f64;
    for _ in 0..reps {
        let mut arena = ArrivalArena::new(od, na, 1.0, 0.97, seeds.len());
        venv.reset_all(&seeds, &mut obs, &mut masks);
        while !venv.is_done() {
            let rows = venv.live_count();
            let t0 = Instant::now();
            agent
                .ppo()
                .policy
                .log_probs_fast_batch(&obs, &masks, rows, &mut scratch, &mut logps);
            let t1 = Instant::now();
            agent
                .ppo()
                .value
                .value_fast_batch(&obs, rows, &mut scratch, &mut values);
            let t2 = Instant::now();
            actions.clear();
            for r in 0..rows {
                let dist = MaskedCategorical::new(&logps[r * na..(r + 1) * na]);
                actions.push(dist.sample(&mut rng));
            }
            let t3 = Instant::now();
            venv.step_all(&actions, &mut next_obs, &mut next_masks, &mut outcomes);
            let t4 = Instant::now();
            for (r, out) in outcomes.iter().enumerate() {
                let (o, m) = (&obs[r * od..(r + 1) * od], &masks[r * na..(r + 1) * na]);
                arena.store(out.episode, o, m, actions[r], out.reward, values[r], 0.0);
                if out.done {
                    arena.finish_episode(out.episode, 0.0);
                }
            }
            let t5 = Instant::now();
            std::mem::swap(&mut obs, &mut next_obs);
            std::mem::swap(&mut masks, &mut next_masks);
            t_pi += (t1 - t0).as_secs_f64();
            t_v += (t2 - t1).as_secs_f64();
            t_s += (t3 - t2).as_secs_f64();
            t_step += (t4 - t3).as_secs_f64();
            t_store += (t5 - t4).as_secs_f64();
            steps += rows;
        }
        stored += arena.into_batch().storage_bytes() as f64;
    }
    let per = 1e9 / steps as f64;
    println!("n_envs={n}  steps={steps}");
    println!("  policy batch : {:8.1} ns/step", t_pi * per);
    println!("  value batch  : {:8.1} ns/step", t_v * per);
    println!("  sampling     : {:8.1} ns/step", t_s * per);
    println!("  step_all     : {:8.1} ns/step", t_step * per);
    println!(
        "  store        : {:8.1} ns/step  ({:.0} B/step stored)",
        t_store * per,
        stored / steps as f64
    );
    println!(
        "  total        : {:8.1} ns/step",
        (t_pi + t_v + t_s + t_step + t_store) * per
    );
}

/// Full `collect_rollouts_vec` (stores + GAE + batch assembly included)
/// of 32 episodes at several lockstep widths, timed in-process.
fn collect_widths() {
    use rlsched_rl::collect_rollouts_vec;
    const SEQ_LEN: usize = 64;
    let agent = Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    });
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    let proto = SchedulingEnv::new(
        trace,
        SEQ_LEN,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    );
    let seeds: Vec<u64> = (0..32).collect();
    let reps = 40;
    for &w in &[1usize, 2, 4, 8, 16, 32] {
        let mut venv = VecEnv::new((0..w).map(|_| proto.clone()).collect::<Vec<_>>());
        // warm
        let _ = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
        let t0 = Instant::now();
        let mut steps = 0usize;
        for _ in 0..reps {
            let (b, _s) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
            steps += b.len();
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "width {:2}: {:7.0} steps/s  ({:.2} us/step)",
            w,
            steps as f64 / dt,
            dt * 1e6 / steps as f64
        );
    }
}
