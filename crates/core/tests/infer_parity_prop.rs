//! Property tests: the allocation-free inference fast path must agree
//! with the reference tape running the network each policy trains as
//! (its `FusedPolicy`), for every Table IV architecture.
//!
//! The SIMD microkernel reorders float accumulation (FMA) against the
//! tape's MatMul, so fast-vs-tape log-probs are compared within tolerance
//! and the greedy *decision* (masked argmax — what actually schedules
//! jobs) must match exactly whenever the top two logits are not a
//! floating-point near-tie. Batched and single fast paths run the same
//! row-count-invariant kernels and must agree bit for bit.

use proptest::prelude::*;

use rlsched_nn::fused::{FusedHead, FusedPolicy};
use rlsched_nn::{infer, Scratch};
use rlsched_nn_ref::Graph;
use rlsched_rl::categorical::MASK_OFF;
use rlscheduler::{build_critic, build_policy, PolicyKind, JOB_FEATURES};

/// Window size: the smallest that every architecture accepts (LeNet
/// needs `max_obsv % 4 == 0 && >= 64`).
const K: usize = 64;

fn tape_log_probs(policy: &FusedPolicy, obs: &[f32], mask: &[f32]) -> Vec<f32> {
    let mut g = Graph::new();
    let o = g.input_from(obs, &[1, obs.len()]);
    let m = g.input_from(mask, &[1, mask.len()]);
    let (logits, _) = rlsched_nn_ref::forward(&mut g, policy, o, 1);
    let masked = g.add(logits, m);
    let lp = g.log_softmax(masked);
    g.value(lp).data().to_vec()
}

fn fast_log_probs(policy: &FusedPolicy, obs: &[f32], mask: &[f32]) -> Vec<f32> {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    infer::log_probs(policy, obs, mask, 1, &mut scratch, &mut out);
    out
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// The bit patterns of `xs`, for exact comparisons.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Gap between the largest and second-largest entries.
fn top2_gap(xs: &[f32]) -> f32 {
    let mut top = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &x in xs {
        if x > top {
            second = top;
            top = x;
        } else if x > second {
            second = x;
        }
    }
    top - second
}

fn build_obs(features: &[f32], valid: usize) -> (Vec<f32>, Vec<f32>) {
    let mut obs = vec![0.0f32; K * JOB_FEATURES];
    let mut mask = vec![MASK_OFF; K];
    for s in 0..valid {
        for f in 0..JOB_FEATURES {
            obs[s * JOB_FEATURES + f] = features[(s * JOB_FEATURES + f) % features.len()];
        }
        obs[s * JOB_FEATURES + JOB_FEATURES - 1] = 1.0;
        mask[s] = 0.0;
    }
    (obs, mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance property: for all five `PolicyKind`s, the
    /// `score` fast path and the reference tape's argmax pick the same
    /// job on random observations.
    #[test]
    fn fast_score_agrees_with_tape_argmax_all_kinds(
        features in prop::collection::vec(0.0f32..1.0, K * JOB_FEATURES),
        valid in 1usize..=K,
        seed in 0u64..50,
    ) {
        let (obs, mask) = build_obs(&features, valid);
        for kind in PolicyKind::all() {
            let policy = build_policy(kind, K, seed);
            let tape = tape_log_probs(&policy, &obs, &mask);
            let fast = fast_log_probs(&policy, &obs, &mask);
            prop_assert_eq!(fast.len(), tape.len());
            // Log-probs agree within float-reassociation tolerance.
            for (slot, (f, t)) in fast.iter().zip(&tape).enumerate() {
                if mask[slot] == 0.0 {
                    prop_assert!(
                        (f - t).abs() <= 1e-3 * (1.0 + t.abs()),
                        "{}: slot {} fast {} vs tape {}", kind.name(), slot, f, t
                    );
                }
            }
            // The decision itself matches whenever it is not a near-tie.
            if top2_gap(&tape) > 1e-4 {
                prop_assert_eq!(
                    argmax(&fast),
                    argmax(&tape),
                    "{}: fast/tape argmax diverged", kind.name()
                );
            }
            // Masked slots can never win.
            prop_assert!(argmax(&fast) < valid, "{}: picked a padded slot", kind.name());
        }
    }

    /// Batched scoring ≡ per-view scoring for all five `PolicyKind`s:
    /// row `i` of a batched `infer::log_probs` must equal a one-row call on
    /// view `i` alone bit for bit — the batch runs its rows through the
    /// SIMD kernel's 4-row blocks, a single view through the one-row
    /// tiles, and both give every row the same accumulation chain.
    #[test]
    fn batched_scores_agree_with_per_view_scores(
        features in prop::collection::vec(0.0f32..1.0, K * JOB_FEATURES),
        valids in prop::collection::vec(1usize..=K, 3),
        seed in 0u64..50,
    ) {
        let rows = valids.len();
        for kind in PolicyKind::all() {
            let policy = build_policy(kind, K, seed);
            let mut obs_all = Vec::new();
            let mut mask_all = Vec::new();
            let mut singles = Vec::new();
            for (i, &valid) in valids.iter().enumerate() {
                // Rotate the feature pool so the stacked views differ.
                let mut rotated = features.clone();
                rotated.rotate_left((i * 13) % features.len());
                let (obs, mask) = build_obs(&rotated, valid);
                singles.push(fast_log_probs(&policy, &obs, &mask));
                obs_all.extend_from_slice(&obs);
                mask_all.extend_from_slice(&mask);
            }
            let mut scratch = Scratch::new();
            let mut batched = Vec::new();
            infer::log_probs(&policy, &obs_all, &mask_all, rows, &mut scratch, &mut batched);
            prop_assert_eq!(batched.len(), rows * K, "{}: batch shape", kind.name());
            for (i, single) in singles.iter().enumerate() {
                prop_assert_eq!(
                    bits(&batched[i * K..(i + 1) * K]),
                    bits(single),
                    "{}: view {} batched vs single", kind.name(), i
                );
            }
        }
    }

    /// The kernel policy scores only each window's job rows and gives
    /// every padding slot the score of one zero row: on windows whose job
    /// rows end anywhere in 0..=K (a few zero rows inside the prefix
    /// stay), one-row and batched `infer::log_probs` over 1–20 views
    /// (so more than one block of `KERNEL_VIEW_BLOCK` views) equal a
    /// forward of every row of every window, bit for bit — full windows
    /// (half of them) included. A masked slot's
    /// log-prob cannot show its score (−1e9 swallows it), so every third
    /// view leaves its padding unmasked; and some last job rows hold only
    /// tiny values, which are still jobs.
    #[test]
    fn kernel_scores_of_live_prefixes_equal_a_whole_window_forward(
        lives in prop::collection::vec(prop_oneof![Just(K), 0usize..=K], 1..21),
        seed in 0u64..50,
        data_seed in 0u64..1000,
    ) {
        let policy = build_policy(PolicyKind::Kernel, K, seed);
        let kernel = &policy.mlp;
        let views = lives.len();
        let mut s = data_seed;
        let mut unit = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut obs = vec![0.0f32; views * K * JOB_FEATURES];
        let mut masks = vec![MASK_OFF; views * K];
        for (v, &live) in lives.iter().enumerate() {
            for j in 0..live {
                let row = &mut obs[(v * K + j) * JOB_FEATURES..][..JOB_FEATURES];
                if j + 1 == live && v % 2 == 1 {
                    row.iter_mut().for_each(|x| *x = 1e-3 * unit() + 1e-6);
                } else if j + 1 == live || unit() > 0.1 {
                    row.iter_mut().for_each(|x| *x = unit());
                    row[JOB_FEATURES - 1] = 1.0;
                }
            }
            let open = if v % 3 == 0 { K } else { live };
            masks[v * K..v * K + open].fill(0.0);
        }

        let mut scratch = Scratch::new();
        let (mut whole, mut expected) = (Vec::new(), Vec::new());
        for v in 0..views {
            let window = &obs[v * K * JOB_FEATURES..(v + 1) * K * JOB_FEATURES];
            infer::mlp_forward(kernel, window, K, &mut scratch, &mut whole);
            for (o, &m) in whole.iter_mut().zip(&masks[v * K..(v + 1) * K]) {
                *o += m;
            }
            infer::log_softmax_inplace(&mut whole);
            expected.extend_from_slice(&whole);
        }
        let mut batched = Vec::new();
        infer::log_probs(&policy, &obs, &masks, views, &mut scratch, &mut batched);
        prop_assert_eq!(bits(&batched), bits(&expected), "batched, lives {:?}", &lives);
        let mut single = Vec::new();
        for v in 0..views {
            infer::log_probs(
                &policy,
                &obs[v * K * JOB_FEATURES..(v + 1) * K * JOB_FEATURES],
                &masks[v * K..(v + 1) * K],
                1,
                &mut scratch,
                &mut single,
            );
            prop_assert_eq!(
                bits(&single),
                bits(&expected[v * K..(v + 1) * K]),
                "view {} of live {}", v, lives[v]
            );
        }
    }

    /// The critic's fast path agrees with its tape forward.
    #[test]
    fn value_fast_agrees_with_tape(
        features in prop::collection::vec(0.0f32..1.0, K * JOB_FEATURES),
        valid in 1usize..=K,
        seed in 0u64..50,
    ) {
        let (obs, _mask) = build_obs(&features, valid);
        let net = build_critic(K, seed);

        let mut g = Graph::new();
        let o = g.input_from(&obs, &[1, obs.len()]);
        let critic = FusedPolicy { convs: vec![], mlp: net.clone(), head: FusedHead::Flat };
        let (v, _) = rlsched_nn_ref::forward(&mut g, &critic, o, 1);
        let tape = g.value(v).data()[0] as f64;

        let mut fast = Vec::new();
        infer::window_mlp_forward(&net, &obs, 1, JOB_FEATURES, &mut Scratch::new(), &mut fast);
        let fast = fast[0] as f64;
        prop_assert!(
            (fast - tape).abs() <= 1e-4 * (1.0 + tape.abs()),
            "value fast {} vs tape {}", fast, tape
        );
    }
}

/// Agent-level contract: `greedy_batch` over the stacked encodings of
/// concurrent queue views (what a serving shard runs) picks the same jobs
/// as the `as_policy` head on each view alone, for every policy
/// architecture, and its batched log-probs are the single-view ones bit
/// for bit.
#[test]
fn greedy_batch_matches_per_view_as_policy() {
    use rlsched_sim::{MetricKind, QueueView, WaitingJob};
    use rlsched_swf::Job;
    use rlscheduler::{Agent, AgentConfig, ObsConfig};

    let jobs: Vec<Job> = (0..40u32)
        .map(|i| {
            Job::new(
                i + 1,
                i as f64 * 10.0,
                30.0 + (i % 7) as f64 * 120.0,
                1 + i % 5,
                60.0 + (i % 11) as f64 * 180.0,
            )
        })
        .collect();
    // Three views over different queue prefixes (different lengths and
    // cluster states).
    let views: Vec<QueueView<'_>> = [(40usize, 16u32), (13, 4), (27, 40)]
        .iter()
        .map(|&(len, free)| QueueView {
            time: 5000.0,
            free_procs: free,
            total_procs: 64,
            waiting: jobs[..len]
                .iter()
                .enumerate()
                .map(|(i, job)| WaitingJob {
                    job,
                    job_index: i,
                    wait: 5000.0 - job.submit_time,
                    can_run_now: job.procs() <= free,
                })
                .collect(),
        })
        .collect();

    for kind in PolicyKind::all() {
        let agent = Agent::new(AgentConfig {
            policy: kind,
            obs: ObsConfig {
                max_obsv: K,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: Default::default(),
            seed: 11,
        });
        let (mut obs_all, mut mask_all) = (Vec::new(), Vec::new());
        for view in &views {
            agent
                .encoder()
                .encode_extend(view, &mut obs_all, &mut mask_all);
        }
        let mut batched = Vec::new();
        rlsched_rl::greedy_batch(
            &agent.ppo().policy,
            &obs_all,
            &mask_all,
            views.len(),
            &mut rlsched_rl::ActorScratch::new(),
            &mut batched,
        );
        assert_eq!(batched.len(), views.len());
        let mut batched_logp = Vec::new();
        infer::log_probs(
            &agent.ppo().policy,
            &obs_all,
            &mask_all,
            views.len(),
            &mut Scratch::new(),
            &mut batched_logp,
        );
        let mut head = agent.as_policy();
        for (i, view) in views.iter().enumerate() {
            let (obs, mask) = agent.encoder().encode(view);
            let single = agent.ppo().logp_row(&obs, &mask);
            assert_eq!(
                bits(&batched_logp[i * K..(i + 1) * K]),
                bits(&single),
                "{}: view {i} batched/single log-probs",
                kind.name()
            );
            let decision = head.decide(
                view.free_procs,
                view.total_procs,
                view.waiting.len(),
                view.waiting.iter().copied(),
            );
            assert_eq!(
                decision,
                batched[i],
                "{}: view {i} as_policy vs greedy_batch",
                kind.name()
            );
            assert!(
                batched[i] < view.waiting.len(),
                "masking keeps it in the queue"
            );
        }
    }
}
