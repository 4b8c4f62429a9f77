//! Allocation-regression tests: the zero-allocation fast paths are load
//! bearing (they are the PR-over-PR performance story), so pin them with
//! hard bounds from the crate's counting allocator (`rlsched_bench::alloc`).
//!
//! Everything runs inside ONE test: the counter is process-global, so
//! concurrent tests would inflate each other's measurements.

use rlsched_bench::alloc::count_allocs;
use rlsched_nn::infer;
use rlsched_rl::{collect_rollouts_vec, ActorScratch, Env, MaskedCategorical, PpoConfig, VecEnv};
use rlsched_serve::{ScorerSlot, ShardEngine};
use rlsched_sim::{MetricKind, QueueView, SimConfig, WaitingJob};
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, RlPolicy, SchedulingEnv, SnapshotJob,
    JOB_FEATURES,
};

const SEQ_LEN: usize = 48;

fn agent_of(policy: PolicyKind, max_obsv: usize, iters: usize, minibatch: Option<usize>) -> Agent {
    Agent::new(AgentConfig {
        policy,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: iters,
            train_v_iters: iters,
            minibatch,
            ..PpoConfig::default()
        },
        seed: 5,
    })
}

/// A wire decision point that fills a `window`-slot encoder, with more
/// jobs queued beyond it.
fn window_snapshot(window: usize) -> QueueSnapshot {
    QueueSnapshot {
        free_procs: 3,
        total_procs: 8,
        queue_len: window as u32 + 5,
        jobs: (0..window)
            .map(|i| SnapshotJob {
                wait: 17.5 * i as f64,
                time_bound: 600.0 + i as f64,
                procs: 1 + i as u32 % 4,
                can_run_now: i % 4 < 3,
            })
            .collect(),
    }
}

/// 140 jobs of one to three processors, submitted a second apart.
fn submitted_jobs() -> Vec<rlsched_swf::Job> {
    (0..140)
        .map(|i| rlsched_swf::Job::new(i + 1, i as f64, 60.0 + i as f64, 1 + (i % 3), 600.0))
        .collect()
}

/// A decision point at `time` where the first `n` of `jobs` wait and two
/// of eight processors are free.
fn waiting_view(jobs: &[rlsched_swf::Job], n: usize, time: f64) -> QueueView<'_> {
    QueueView {
        time,
        free_procs: 2,
        total_procs: 8,
        waiting: jobs[..n]
            .iter()
            .enumerate()
            .map(|(i, job)| WaitingJob {
                job,
                job_index: i,
                wait: time - job.submit_time,
                can_run_now: job.procs() <= 2,
            })
            .collect(),
    }
}

/// One `as_policy` decision over `v`.
fn decide(head: &mut RlPolicy<'_>, v: &QueueView<'_>) -> usize {
    std::hint::black_box(head.decide(
        v.free_procs,
        v.total_procs,
        v.waiting.len(),
        v.waiting.iter().copied(),
    ))
}

fn env_for(agent: &Agent, sim: SimConfig) -> SchedulingEnv {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(512, 3));
    SchedulingEnv::new(trace, SEQ_LEN, sim, *agent.encoder(), agent.objective())
}

/// Drive one full episode with a head-of-queue policy (manual
/// single-env driving: clear the append-contract buffers per call).
fn run_episode(env: &mut SchedulingEnv, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
    obs.clear();
    mask.clear();
    env.reset(seed, obs, mask);
    loop {
        obs.clear();
        mask.clear();
        if env.step(0, obs, mask).done {
            break;
        }
    }
}

/// Warm an env, then count allocations across every non-terminal step of
/// a fresh episode (the terminal step computes the episode metrics and
/// may allocate the outcome table — that is reset-scale work, not
/// stepping).
fn steady_state_step_allocs(
    env: &mut SchedulingEnv,
    obs: &mut Vec<f32>,
    mask: &mut Vec<f32>,
) -> (u64, u64) {
    run_episode(env, 1, obs, mask);
    run_episode(env, 2, obs, mask);
    obs.clear();
    mask.clear();
    env.reset(3, obs, mask);
    let mut steps = 0u64;
    let mut allocs = 0u64;
    loop {
        let mut done = false;
        let step_allocs = count_allocs(|| {
            obs.clear();
            mask.clear();
            done = env.step(0, obs, mask).done
        });
        if done {
            break;
        }
        allocs += step_allocs;
        steps += 1;
    }
    (steps, allocs)
}

/// Lockstep ticks of 8 `env` copies under `agent` (batched actor and
/// critic scoring, per-row sampling, `VecEnv::step_all`) after a warm-up
/// round: `(ticks, ticks whose views differ in live job rows,
/// allocations)`.
fn lockstep_tick_allocs(agent: &Agent, env: &SchedulingEnv) -> (u64, u64, u64) {
    let mut venv = VecEnv::new((0..8).map(|_| env.clone()).collect::<Vec<_>>());
    let vec_seeds: Vec<u64> = (100..108).collect();
    let na = venv.n_actions();
    let mut scratch = ActorScratch::new();
    let (mut vobs, mut vmasks) = (Vec::new(), Vec::new());
    let (mut logps, mut values) = (Vec::new(), Vec::new());
    let mut actions: Vec<usize> = Vec::new();
    let mut outcomes = Vec::new();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(17)
    };
    let tick = |venv: &mut VecEnv<SchedulingEnv>,
                vobs: &mut Vec<f32>,
                vmasks: &mut Vec<f32>,
                scratch: &mut ActorScratch,
                logps: &mut Vec<f32>,
                values: &mut Vec<f32>,
                actions: &mut Vec<usize>,
                outcomes: &mut Vec<rlsched_rl::SlotOutcome>,
                rng: &mut rand::rngs::StdRng| {
        let rows = venv.live_count();
        let (ppo, nn) = (agent.ppo(), &mut scratch.nn);
        infer::log_probs(&ppo.policy, vobs, vmasks, rows, nn, logps);
        infer::window_mlp_forward(&ppo.value, vobs, rows, JOB_FEATURES, nn, values);
        actions.clear();
        for r in 0..rows {
            let dist = MaskedCategorical::new(&logps[r * na..(r + 1) * na]);
            actions.push(dist.sample(rng));
        }
        venv.step_all(actions, vobs, vmasks, outcomes);
    };
    // Warm a full round over MORE seeds than slots (grows every buffer
    // to its high-water mark and exercises the auto-reset path, which
    // legitimately allocates reset-scale state), then restart with a
    // seeds == slots schedule so the measured window contains no
    // auto-reset: the measurement pins the steady-state tick only.
    let warm_seeds: Vec<u64> = (200..212).collect();
    venv.reset_all(&warm_seeds, &mut vobs, &mut vmasks);
    while !venv.is_done() {
        tick(
            &mut venv,
            &mut vobs,
            &mut vmasks,
            &mut scratch,
            &mut logps,
            &mut values,
            &mut actions,
            &mut outcomes,
            &mut rng,
        );
    }
    venv.reset_all(&vec_seeds, &mut vobs, &mut vmasks);
    let mut tick_allocs = 0u64;
    let mut ticks = 0u64;
    // The kernel network scores only each view's job rows, so the ticks
    // must include views of different fill — and still not allocate.
    let mut mixed_ticks = 0u64;
    let window_len = vobs.len() / venv.live_count();
    for _ in 0..SEQ_LEN - 1 {
        let mut lives = vobs
            .chunks(window_len)
            .map(|v| rlsched_nn::infer::live_job_rows(v, rlscheduler::JOB_FEATURES));
        let first = lives.next();
        mixed_ticks += u64::from(lives.any(|l| Some(l) != first));
        tick_allocs += count_allocs(|| {
            tick(
                &mut venv,
                &mut vobs,
                &mut vmasks,
                &mut scratch,
                &mut logps,
                &mut values,
                &mut actions,
                &mut outcomes,
                &mut rng,
            )
        });
        ticks += 1;
    }
    (ticks, mixed_ticks, tick_allocs)
}

#[test]
fn fast_paths_do_not_regress_allocations() {
    let mut agent = agent_of(PolicyKind::Kernel, 16, 3, Some(256));
    let (mut obs, mut mask) = (Vec::new(), Vec::new());

    // ---- env stepping: 0 heap allocations per step at steady state ----
    let mut env = env_for(&agent, SimConfig::default());
    let (steps, step_allocs) = steady_state_step_allocs(&mut env, &mut obs, &mut mask);
    assert!(steps >= 40, "episode long enough to be a real measurement");
    assert_eq!(
        step_allocs, 0,
        "env.step must not allocate at steady state ({step_allocs} allocations over {steps} steps)"
    );

    // Same property with EASY backfilling (exercises the reservation /
    // shadow-time path and its reusable release buffer).
    let mut bf_env = env_for(&agent, SimConfig::with_backfill());
    let (_, bf_allocs) = steady_state_step_allocs(&mut bf_env, &mut obs, &mut mask);
    assert_eq!(bf_allocs, 0, "backfilling env.step must not allocate");

    // ---- streaming replay tick: 0 heap allocations at steady state.
    // The one-pass StreamSession exists to make multi-million-job
    // replays cheap, so its hot loop (the ranked SJF head + step:
    // admission, indexed-calendar ops, backfill, metric folding) must
    // not touch the heap once the slab, calendar and its ordinals, the
    // ranked order's heap (which EASY backfill litters with stale
    // entries and admission rebuilds in place), running heap and
    // per-user table have warmed to their high-water marks. The job
    // source is a formula (no per-job state), arrivals are paced just
    // under the cluster's capacity so the queue depth is stationary. ----
    {
        use rlsched_sched::{select_streaming, HeuristicKind};
        use rlsched_sim::StreamSession;
        let source = (0..10_000u32).map(|i| {
            rlsched_swf::Job::new(
                i + 1,
                i as f64 * 5.0,
                10.0 + (i as f64 * 37.0) % 100.0,
                1 + (i % 4),
                20.0 + (i as f64 * 53.0) % 150.0,
            )
            .with_user(i % 8)
        });
        let mut s = StreamSession::new(source, 32, SimConfig::with_backfill())
            .expect("synthetic stream is schedulable");
        s.rank_by(
            HeuristicKind::Sjf
                .static_key()
                .expect("SJF ranks statically"),
        );
        let ranked_tick = |s: &mut StreamSession<_>| {
            let pos = s.ranked_head().expect("decision point has waiting jobs");
            s.step(pos).expect("synthetic stream replays cleanly");
        };
        // Warm: most of the episode, growing every buffer to its
        // high-water mark.
        while !s.done() && s.started_count() < 9_000 {
            ranked_tick(&mut s);
        }
        let mut replay_ticks = 0u64;
        let mut replay_allocs = 0u64;
        while !s.done() && replay_ticks < 400 {
            replay_allocs += count_allocs(|| ranked_tick(&mut s));
            replay_ticks += 1;
        }
        assert!(
            replay_ticks >= 100,
            "enough replay ticks to be a real measurement ({replay_ticks})"
        );
        assert_eq!(
            replay_allocs, 0,
            "streaming replay tick must not allocate at steady state \
             ({replay_allocs} allocations over {replay_ticks} ticks)"
        );
        // The scan arm (what WFP3 and UNICEP replay through) stays
        // pinned as well.
        assert!(!s.done(), "a decision is left for the scan arm");
        let scan_allocs = count_allocs(|| {
            let pos = select_streaming(HeuristicKind::Wfp3, s.waiting())
                .expect("decision point has waiting jobs");
            s.step(pos).expect("synthetic stream replays cleanly");
        });
        assert_eq!(scan_allocs, 0, "select_streaming tick must not allocate");
    }

    // ---- SWF record scanner: a record is scanned in place inside the
    // reader's buffer, and only a line that straddles a refill is copied,
    // into a carry buffer that warms to the longest line once. Over a
    // 64-byte buffer nearly every (~70-byte) record straddles, so
    // streaming 10 000 records must allocate exactly as often as
    // streaming 100: the reader's buffer, the carry's growth and the
    // header, never a record. ----
    {
        use rlsched_swf::{Job, StreamReader, SwfHeader};
        use std::io::BufReader;
        // Every line has the same width, so the longest line is among
        // the first hundred.
        let swf = |n: u32| {
            let jobs = (0..n).map(|i| {
                Job::new(
                    100_000 + i,
                    1_000_000.0 + f64::from(i) * 7.0,
                    1_000.0 + f64::from(i % 9_000),
                    1 + i % 4,
                    3_600.5,
                )
            });
            let mut bytes = Vec::new();
            rlsched_swf::write_jobs(&SwfHeader::default(), 64, jobs, &mut bytes)
                .expect("writing to a Vec cannot fail");
            bytes
        };
        let (short, long) = (swf(100), swf(10_000));
        let stream_allocs = |bytes: &[u8]| {
            count_allocs(|| {
                let reader = StreamReader::new(BufReader::with_capacity(64, bytes));
                let mut read = 0;
                for job in reader {
                    job.expect("well-formed record");
                    read += 1;
                }
                assert!(read == 100 || read == 10_000);
            })
        };
        let (few, many) = (stream_allocs(&short), stream_allocs(&long));
        assert_eq!(
            few, many,
            "StreamReader: 10 000 records allocated {many} times, 100 records {few}"
        );
    }

    // ---- evaluation episode: what a `run_episode` allocates is set-up
    // (the job list, the outcome table, the session's buffers, the head's
    // scratch), never a decision — the heads read the wait queue in
    // place. Every job of these windows is submitted at time zero (so
    // the ranked order is sized once, for all of them) and, without
    // backfilling, started by a decision of its own: the long window
    // makes eight times the decisions of the short one over an eight
    // times deeper queue, through each way a head finds its job — the
    // ranked order (SJF), the scan (WFP3) and the kernel network. ----
    {
        use rlsched_sched::{HeuristicKind, PriorityScheduler};
        use rlsched_sim::run_episode;
        let burst = |n: u32| {
            let jobs = (0..n)
                .map(|i| {
                    rlsched_swf::Job::new(
                        i + 1,
                        0.0,
                        10.0 + (i as f64 * 37.0) % 100.0,
                        1 + (i % 4),
                        20.0 + (i as f64 * 53.0) % 150.0,
                    )
                })
                .collect();
            rlsched_swf::JobTrace::new(jobs, 8)
        };
        let (short, long) = (burst(64), burst(512));
        let cfg = SimConfig::no_backfill();
        // `rlsched_nn::simd` detects the CPU's kernels once, in a
        // process-wide `OnceLock`, on first use, and reading
        // `RLSCHED_FORCE_SCALAR` there allocates an `OsString` when the
        // variable is set: nothing before this block touches the network,
        // so the agent's first episode would pay it.
        rlsched_nn::simd::simd_enabled();
        let episode_allocs = |trace: &rlsched_swf::JobTrace, head: &str| {
            count_allocs(|| {
                let m = match head {
                    "agent" => run_episode(trace, cfg, &mut agent.as_policy()),
                    "sjf" => {
                        run_episode(trace, cfg, &mut PriorityScheduler::new(HeuristicKind::Sjf))
                    }
                    _ => run_episode(trace, cfg, &mut PriorityScheduler::new(HeuristicKind::Wfp3)),
                }
                .expect("the burst is schedulable");
                assert_eq!(m.outcomes().len(), trace.len());
            })
        };
        for head in ["sjf", "wfp3", "agent"] {
            let (few, many) = (episode_allocs(&short, head), episode_allocs(&long, head));
            assert_eq!(
                few, many,
                "{head}: a run_episode of 512 decisions allocated {many} times, one of 64 {few}"
            );
        }
    }

    // ---- greedy decision fast path: 0 allocations ----
    obs.clear();
    mask.clear();
    env.reset(4, &mut obs, &mut mask);
    let mut scratch = ActorScratch::new();
    let _ = agent.ppo().greedy_with(&obs, &mask, &mut scratch);
    let greedy_allocs = count_allocs(|| agent.ppo().greedy_with(&obs, &mask, &mut scratch));
    assert_eq!(greedy_allocs, 0, "greedy fast path must not allocate");

    // ---- an `as_policy` decision on a one-job window: the kernel
    // network scores that job's row and one zero row for the padding,
    // but sizes its buffers for the whole window — so after a first
    // one-job decision, neither another one nor a full window
    // allocates. ----
    {
        let jobs = submitted_jobs();
        let (one, full) = (
            waiting_view(&jobs, 1, 100.0),
            waiting_view(&jobs, 20, 100.0),
        );
        let mut head = agent.as_policy();
        assert_eq!(
            decide(&mut head, &one),
            0,
            "a one-job window has one choice"
        );
        let one_allocs = count_allocs(|| assert_eq!(decide(&mut head, &one), 0));
        let full_allocs = count_allocs(|| decide(&mut head, &full));
        assert_eq!(
            (one_allocs, full_allocs),
            (0, 0),
            "as_policy decisions after a one-job warm-up: one-job window, then a full one"
        );
    }

    // ---- PPO update (the chunked fused sweep): ZERO allocations at
    // steady state. The first call warms the minibatch index and per-row
    // buffers, the per-worker row copies, activation stashes and
    // gradient partials, and the Adam moment state; every later update
    // must not touch the heap at all — the whole point of the analytic
    // backward. Worker spawns allocate per fan-out by design, so the pin
    // runs on the one-worker budget: it isolates the update's own buffer
    // discipline from thread bring-up. ----
    let mut rollout_envs = VecEnv::new((0..4).map(|_| env.clone()).collect::<Vec<_>>());
    let seeds: Vec<u64> = (0..4).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut rollout_envs, &seeds);
    let _ = rlsched_nn::pool::with_threads(1, || agent.ppo_mut().update(&batch)); // warm-up iteration
    let fused_allocs = count_allocs(|| {
        rlsched_nn::pool::with_threads(1, || agent.ppo_mut().update(&batch));
    });
    assert_eq!(
        fused_allocs, 0,
        "Ppo::update must not allocate at steady state on the one-worker \
         budget ({fused_allocs} allocations after warm-up)"
    );

    // Without minibatching the update reads the whole batch through an
    // identity index (192 rows, three chunks): the same pin holds.
    let mut full_batch = agent_of(PolicyKind::Kernel, 16, 3, None);
    let _ = rlsched_nn::pool::with_threads(1, || full_batch.ppo_mut().update(&batch));
    let full_batch_allocs = count_allocs(|| {
        rlsched_nn::pool::with_threads(1, || full_batch.ppo_mut().update(&batch));
    });
    assert_eq!(
        full_batch_allocs, 0,
        "a full-batch Ppo::update must not allocate at steady state on the \
         one-worker budget ({full_batch_allocs} allocations after warm-up)"
    );

    // Same pin for the LeNet baseline: its conv and pool stages stash
    // their activations and gradients in the same per-worker scratch
    // (128-row minibatches: two chunks, so the merge runs too).
    let mut lenet = agent_of(PolicyKind::LeNet, 64, 2, Some(128));
    let lenet_env = env_for(&lenet, SimConfig::default());
    let mut lenet_envs = VecEnv::new((0..4).map(|_| lenet_env.clone()).collect::<Vec<_>>());
    let (lenet_batch, _stats) = collect_rollouts_vec(lenet.ppo(), &mut lenet_envs, &seeds);
    let _ = rlsched_nn::pool::with_threads(1, || lenet.ppo_mut().update(&lenet_batch));
    let lenet_allocs = count_allocs(|| {
        rlsched_nn::pool::with_threads(1, || lenet.ppo_mut().update(&lenet_batch));
    });
    assert_eq!(
        lenet_allocs, 0,
        "LeNet Ppo::update must not allocate at steady state on the \
         one-worker budget ({lenet_allocs} allocations after warm-up)"
    );

    // ---- rollout collection: with the per-step terms gone, a whole
    // 4-episode round must fit a small per-episode budget. The lockstep
    // VecEnv path replaced the per-env thread fan-out, so the bound
    // tightens from the historical 600 (measured ~561 on the old path)
    // to 400: what remains is the rollout arena's growth plus the
    // one-time lockstep scratch, not per-step or per-thread work. ----
    let rollout_allocs =
        count_allocs(|| collect_rollouts_vec(agent.ppo(), &mut rollout_envs, &seeds));
    assert!(
        rollout_allocs <= 400,
        "collect_rollouts_vec allocations regressed: {rollout_allocs} > 400 \
         (per-step allocations must stay out of the lockstep loop)"
    );

    // ---- lockstep tick: VecEnv::step_all + batched actor/critic scoring
    // + per-row sampling must be allocation-free at steady state. All
    // episodes share one seq_len, so every slot finishes on the same
    // tick; measuring seq_len - 1 ticks from a fresh schedule stays clear
    // of the terminal/metrics work and any auto-reset. ----
    let (ticks, mixed_ticks, tick_allocs) = lockstep_tick_allocs(&agent, &env);
    assert!(
        ticks >= 40,
        "enough lockstep ticks to be a real measurement"
    );
    assert!(
        mixed_ticks >= 10,
        "ticks whose views differ in live job rows: {mixed_ticks}"
    );
    assert_eq!(
        tick_allocs, 0,
        "VecEnv::step_all + batched scoring must not allocate at steady \
         state ({tick_allocs} allocations over {ticks} ticks of 8 envs)"
    );

    // ---- the same update and tick pins at the paper's 128-job window,
    // where the critic's ragged first layer sorts each chunk's rows and
    // walks an active-row list at full size. ----
    let mut wide = agent_of(PolicyKind::Kernel, 128, 2, Some(128));
    let wide_env = env_for(&wide, SimConfig::default());
    let mut wide_envs = VecEnv::new((0..4).map(|_| wide_env.clone()).collect::<Vec<_>>());
    let (wide_batch, _stats) = collect_rollouts_vec(wide.ppo(), &mut wide_envs, &seeds);
    let _ = rlsched_nn::pool::with_threads(1, || wide.ppo_mut().update(&wide_batch));
    let wide_allocs = count_allocs(|| {
        rlsched_nn::pool::with_threads(1, || wide.ppo_mut().update(&wide_batch));
    });
    assert_eq!(
        wide_allocs, 0,
        "a kernel@128 Ppo::update must not allocate at steady state on the \
         one-worker budget ({wide_allocs} allocations after warm-up)"
    );
    let (ticks, mixed_ticks, tick_allocs) = lockstep_tick_allocs(&wide, &wide_env);
    assert!(
        ticks >= 40 && mixed_ticks >= 10,
        "kernel@128 lockstep ticks: {ticks}, of mixed fill: {mixed_ticks}"
    );
    assert_eq!(
        tick_allocs, 0,
        "kernel@128 lockstep ticks must not allocate at steady state \
         ({tick_allocs} allocations over {ticks} ticks of 8 envs)"
    );

    // ---- kernel@128 `as_policy` decisions whose live job count moves
    // 16 → 128 → 16 → 97: every dense layer resizes its output to the
    // rows it scores without clearing it, and the buffers are sized for
    // the whole window, so once a first decision has run none of them
    // grows — not at the full window, nor when the count falls and
    // rises again. ----
    {
        let jobs = submitted_jobs();
        let views = [16, 128, 16, 97].map(|n| waiting_view(&jobs, n, 200.0));
        let mut head = wide.as_policy();
        decide(&mut head, &views[0]);
        let allocs: Vec<u64> = views[1..]
            .iter()
            .map(|v| count_allocs(|| decide(&mut head, v)))
            .collect();
        assert_eq!(
            allocs,
            [0, 0, 0],
            "kernel@128 as_policy decisions at 128, 16 and 97 live jobs after a \
             16-job one"
        );
    }

    // ---- the flat and conv arms of the one decision forward
    // (`rlsched_nn::infer::log_probs`): an MLP v1 and a LeNet `as_policy`
    // decision, and a 4-view `infer::log_probs`, allocate nothing once
    // one of each has run. ----
    {
        let jobs = submitted_jobs();
        let views = [16, 64, 5].map(|n| waiting_view(&jobs, n, 200.0));
        for kind in [PolicyKind::MlpV1, PolicyKind::LeNet] {
            let agent = agent_of(kind, 64, 1, None);
            let mut head = agent.as_policy();
            decide(&mut head, &views[0]);
            let decisions: Vec<u64> = views
                .iter()
                .map(|v| count_allocs(|| decide(&mut head, v)))
                .collect();

            let mut env = env_for(&agent, SimConfig::default());
            obs.clear();
            mask.clear();
            env.reset(6, &mut obs, &mut mask);
            let (vobs, vmasks) = (obs.repeat(4), mask.repeat(4));
            let (mut scratch, mut logps) = (rlsched_nn::Scratch::new(), Vec::new());
            let mut batch = || {
                infer::log_probs(
                    &agent.ppo().policy,
                    &vobs,
                    &vmasks,
                    4,
                    &mut scratch,
                    &mut logps,
                );
            };
            batch();
            let batch_allocs = count_allocs(batch);
            assert_eq!(
                (decisions, batch_allocs),
                (vec![0, 0, 0], 0),
                "{}: as_policy decisions at 16, 64 and 5 jobs after a 16-job one, \
                 then a 4-view batch after a first",
                kind.name()
            );
        }
    }

    // ---- serving: a ShardEngine push_snapshot+flush cycle (encode
    // into the stack, one batched forward, clamp) is allocation-free at
    // steady state — the same discipline as the infer/fused fast paths,
    // now holding for the serve tier's hot loop (hot-swap generation
    // check included). ----
    let slot = ScorerSlot::new(agent.scorer_snapshot());
    let mut engine = ShardEngine::new(slot, 8);
    let encoder = *agent.encoder();
    let snapshot = window_snapshot(encoder.n_actions());
    for _ in 0..2 {
        for _ in 0..8 {
            engine.push_snapshot(&snapshot, &encoder);
        }
        let _ = engine.flush(); // warm the stacked matrices + scratch
    }
    let engine_allocs = count_allocs(|| {
        for _ in 0..8 {
            engine.push_snapshot(&snapshot, &encoder);
        }
        std::hint::black_box(engine.flush().len());
    });
    assert_eq!(
        engine_allocs, 0,
        "ShardEngine push+flush must not allocate at steady state \
         ({engine_allocs} allocations for an 8-row batch)"
    );

    // A LeNet shard runs each conv stage over its whole batch, through
    // the shard's scratch, and allocates nothing either.
    let mut lenet_engine = ShardEngine::new(ScorerSlot::new(lenet.scorer_snapshot()), 8);
    let lenet_encoder = *lenet.encoder();
    let lenet_snapshot = window_snapshot(lenet_encoder.n_actions());
    let mut lenet_cycle = || {
        for _ in 0..8 {
            lenet_engine.push_snapshot(&lenet_snapshot, &lenet_encoder);
        }
        std::hint::black_box(lenet_engine.flush().len());
    };
    lenet_cycle(); // warm the stacked matrices, scratch and output rows
    lenet_cycle();
    let lenet_engine_allocs = count_allocs(lenet_cycle);
    assert_eq!(
        lenet_engine_allocs, 0,
        "a LeNet ShardEngine push+flush must not allocate at steady state \
         ({lenet_engine_allocs} allocations for an 8-row batch)"
    );

    // ---- telemetry recording: the whole point of rlsched-obs is that
    // instrumentation rides the hot paths for free, so every recording
    // primitive — counter inc, gauge set/set_max, striped histogram
    // record, and a *disabled* span guard — is pinned to exactly 0
    // allocations, and an *instrumented* ShardEngine keeps the
    // zero-allocation cycle pinned above. Registration allocates
    // (registry map entry); that happens once, outside the window. ----
    {
        use rlsched_obs::Registry;
        use rlsched_serve::EngineMetrics;
        let reg = Registry::new();
        let counter = reg.counter("alloc_pin_total", &[("k", "v")]);
        let gauge = reg.gauge("alloc_pin_depth", &[]);
        let ohist = reg.histogram("alloc_pin_ns", &[]);
        // Warm: first record on this thread claims its histogram
        // stripe, and the first span performs the process-wide one-time
        // init (the cached RLSCHED_TRACE read; plus, when tracing is
        // enabled, the preallocated trace ring). After that a span is
        // allocation-free on BOTH arms: disabled it never touches the
        // ring, enabled it writes a fixed-size record into preallocated
        // slots — so the 0-alloc pin below holds under RLSCHED_TRACE=1
        // too (CI runs that arm).
        counter.inc();
        gauge.set(1.0);
        ohist.record_value(500);
        {
            rlsched_obs::span!("alloc.warm");
        }
        let record_allocs = count_allocs(|| {
            for i in 0..64u64 {
                counter.inc();
                counter.add(3);
                gauge.set(i as f64);
                gauge.set_max(i as f64 * 2.0);
                ohist.record_value(1 + i * 997);
                rlsched_obs::span!("alloc.pin");
            }
        });
        assert_eq!(
            record_allocs, 0,
            "obs recording primitives must not allocate \
             ({record_allocs} allocations over 64 rounds)"
        );

        // Instrumented engine: same cycle as the pin above, now with
        // registry handles attached — still allocation-free.
        engine.instrument(EngineMetrics {
            rows: reg.counter("alloc_pin_rows_total", &[]),
            batches: reg.counter("alloc_pin_batches_total", &[]),
            batch_rows: reg.histogram("alloc_pin_batch_rows", &[]),
            batch_max: reg.gauge("alloc_pin_batch_max", &[]),
        });
        for _ in 0..8 {
            engine.push_snapshot(&snapshot, &encoder);
        }
        let _ = engine.flush(); // warm the metric handles
        let inst_allocs = count_allocs(|| {
            for _ in 0..8 {
                engine.push_snapshot(&snapshot, &encoder);
            }
            std::hint::black_box(engine.flush().len());
        });
        assert_eq!(
            inst_allocs, 0,
            "instrumented ShardEngine push+flush must not allocate at \
             steady state ({inst_allocs} allocations for an 8-row batch)"
        );
    }

    // ---- binary wire codec: a `Score` request encoded from a borrowed
    // snapshot and decoded with `read_frame_any_into` is allocation-free
    // at steady state. The client writes the snapshot straight into a
    // reused wire buffer (no `Request` value, no copy of the snapshot);
    // the reader decodes into a reused frame buffer and a reused
    // `Request` whose job vector has warmed to the window. This is the
    // whole point of the binary format — no intermediate String, no
    // serde_json Value, no per-float parse — so pin it to exactly 0.
    // (Pure codec: no sockets or threads inside the counted window.)
    // ----
    {
        use rlsched_serve::protocol::{encode_score_frame, read_frame_any_into};
        use rlsched_serve::{Request, WireFrame};
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        let mut text_line = String::new();
        let mut decoded = Request::scratch();
        let mut cycle = || {
            encode_score_frame(&mut wire, 7, &snapshot);
            let mut reader = &wire[..];
            read_frame_any_into(&mut reader, &mut payload, &mut text_line, &mut decoded)
                .expect("well-formed frame")
                .expect("frame present");
        };
        // Warm: grows the wire buffer, the payload buffer and the
        // decoded request's job vector to this window.
        cycle();
        let codec_allocs = count_allocs(|| {
            for _ in 0..16 {
                cycle();
            }
        });
        assert_eq!(
            codec_allocs, 0,
            "binary Score encode (from a borrowed snapshot) + decode must not \
             allocate at steady state ({codec_allocs} allocations over 16 round trips)"
        );
        assert_eq!(
            decoded,
            Request::Score {
                id: 7,
                snapshot: snapshot.clone(),
            }
        );
    }

    // ---- degraded-mode hot path: when a shard is down, every request
    // still crosses the heuristic fallback decision and the per-request
    // health accounting (histogram record). A tier surviving a failure
    // storm must not trade the model's zero-allocation discipline for a
    // malloc-per-request fallback. ----
    use rlsched_sched::{select_parts, HeuristicKind};
    use rlsched_serve::LatencyHistogram;
    let parts: Vec<(f64, f64, u32)> = (0..16)
        .map(|i| {
            (
                i as f64 * 37.0,
                600.0 + (i % 5) as f64 * 120.0,
                1 + (i as u32 % 4),
            )
        })
        .collect();
    let mut hist = LatencyHistogram::new(); // new() allocates; record() must not
    hist.record(std::time::Duration::from_micros(3));
    let fallback_allocs = count_allocs(|| {
        for kind in [
            HeuristicKind::Fcfs,
            HeuristicKind::Sjf,
            HeuristicKind::Wfp3,
            HeuristicKind::Unicep,
        ] {
            std::hint::black_box(select_parts(kind, parts.iter().copied()));
        }
        hist.record(std::time::Duration::from_micros(7));
        std::hint::black_box(hist.quantile_ns(0.99));
    });
    assert_eq!(
        fallback_allocs, 0,
        "fallback scoring + health accounting must not allocate \
         ({fallback_allocs} allocations)"
    );
}
