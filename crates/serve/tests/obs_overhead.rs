//! The telemetry layer's overhead contract on the serve hot path: a
//! `ShardEngine` push_snapshot+flush cycle (encode each snapshot into the
//! stack, one batched forward) with registry handles attached costs at
//! most 2 % more than the same cycle on a plain engine.
//!
//! The instrumented engine adds a few relaxed atomic RMWs per flush to a
//! forward that streams whole weight matrices. The two engines run in
//! alternated blocks, and the fastest block of each is compared: the
//! minimum is what a shared machine's noise leaves alone (the median of
//! the same blocks can read 10 % apart). On a shared 2-vCPU VM one
//! round's ratio still strayed past 2 % in 5–10 % of runs, at 40 to
//! 20 000 blocks alike, and two identical plain engines strayed as far,
//! so the test asserts on the median of five independent rounds. The
//! bound is only meaningful in an optimised build:
//!
//! ```text
//! cargo test --release -p rlsched-serve --test obs_overhead
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use rlsched_obs::Registry;
use rlsched_rl::PpoConfig;
use rlsched_serve::{EngineMetrics, ScorerSlot, ShardEngine};
use rlsched_sim::MetricKind;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob};

const MAX_OBSV: usize = 64;
const BATCH: usize = 8;
/// Independent rounds, alternated blocks per engine in each round, and
/// push_snapshot+flush cycles per block.
const ROUNDS: usize = 5;
const BLOCKS: usize = 2000;
const CYCLES: usize = 10;
/// In the median round, the instrumented engine's fastest block may take
/// at most this multiple of the plain engine's.
const BOUND: f64 = 1.02;

fn request_snapshots(n: usize) -> Vec<QueueSnapshot> {
    (0..n)
        .map(|i| {
            let depth = 1 + (7 * i + 3) % MAX_OBSV;
            QueueSnapshot {
                free_procs: 16 + (i as u32 % 48),
                total_procs: 256,
                queue_len: depth as u32,
                jobs: (0..depth)
                    .map(|j| SnapshotJob {
                        wait: 30.0 * (1 + (i + j) % 100) as f64,
                        time_bound: 600.0 * (1 + (i * 13 + j * 7) % 200) as f64,
                        procs: 1 + ((i + 3 * j) % 64) as u32,
                        can_run_now: (i + j) % 3 != 0,
                    })
                    .collect(),
            }
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the 2 % bound holds only in an optimised build: run with --release"
)]
fn instrumented_engine_cycle_costs_at_most_two_percent_more() {
    let agent = Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: MAX_OBSV,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
        seed: 5,
    });
    let scorer = agent.scorer_snapshot();
    let encoder = *agent.encoder();
    let snapshots = request_snapshots(BATCH);

    let mut plain = ShardEngine::new(ScorerSlot::new(scorer.clone()), BATCH);
    let reg = Registry::new();
    let mut inst = ShardEngine::new(ScorerSlot::new(scorer), BATCH);
    inst.instrument(EngineMetrics {
        rows: reg.counter("test_rows_total", &[]),
        batches: reg.counter("test_batches_total", &[]),
        batch_rows: reg.histogram("test_batch_rows", &[]),
        batch_max: reg.gauge("test_batch_max", &[]),
    });

    let block = |engine: &mut ShardEngine| {
        let t0 = Instant::now();
        for _ in 0..CYCLES {
            for snap in &snapshots {
                engine.push_snapshot(snap, &encoder);
            }
            black_box(engine.flush().len());
        }
        t0.elapsed()
    };
    // Warm both engines' scratch and the caches.
    block(&mut plain);
    block(&mut inst);

    let mut ratios = [0.0; ROUNDS];
    for ratio in &mut ratios {
        let (mut plain_min, mut inst_min) = (Duration::MAX, Duration::MAX);
        for i in 0..BLOCKS {
            // Swap the order every block, so neither engine always runs
            // second.
            if i % 2 == 0 {
                plain_min = plain_min.min(block(&mut plain));
                inst_min = inst_min.min(block(&mut inst));
            } else {
                inst_min = inst_min.min(block(&mut inst));
                plain_min = plain_min.min(block(&mut plain));
            }
        }
        *ratio = inst_min.as_secs_f64() / plain_min.as_secs_f64();
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];
    assert!(
        median <= BOUND,
        "median instrumented/plain ratio {median:.3} exceeds {BOUND}; rounds: {ratios:.3?}"
    );
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("test_batches_total", &[]),
        Some(((ROUNDS * BLOCKS + 1) * CYCLES) as u64),
        "the instrumented engine recorded every flush"
    );
}
