//! Property tests for the RLScheduler core: kernel-network permutation
//! equivariance (the Fig 2 requirement) and observation-encoder bounds.

use proptest::prelude::*;

use rlsched_nn::fused::FusedPolicy;
use rlsched_nn_ref::Graph;
use rlsched_rl::categorical::MASK_OFF;
use rlsched_sim::{QueueView, WaitingJob};
use rlsched_swf::Job;
use rlscheduler::{build_policy, ObsConfig, ObsEncoder, PolicyKind, JOB_FEATURES};

fn forward(policy: &FusedPolicy, obs: &[f32], mask: &[f32], k: usize) -> Vec<f32> {
    let mut g = Graph::new();
    let o = g.input_from(obs, &[1, obs.len()]);
    let m = g.input_from(mask, &[1, k]);
    let (logits, _) = rlsched_nn_ref::forward(&mut g, policy, o, 1);
    let masked = g.add(logits, m);
    let lp = g.log_softmax(masked);
    g.value(lp).data().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_scores_commute_with_any_permutation(
        features in prop::collection::vec(0.0f32..1.0, 8 * JOB_FEATURES),
        perm_seed in any::<u64>(),
        net_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let k = 8;
        let policy = build_policy(PolicyKind::Kernel, k, net_seed);
        let mask = vec![0.0f32; k];

        let before = forward(&policy, &features, &mask, k);

        // Random permutation of the job rows.
        let mut order: Vec<usize> = (0..k).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        order.shuffle(&mut rng);
        let mut permuted = vec![0.0f32; features.len()];
        for (new_slot, &old_slot) in order.iter().enumerate() {
            permuted[new_slot * JOB_FEATURES..(new_slot + 1) * JOB_FEATURES]
                .copy_from_slice(&features[old_slot * JOB_FEATURES..(old_slot + 1) * JOB_FEATURES]);
        }
        let after = forward(&policy, &permuted, &mask, k);

        for (new_slot, &old_slot) in order.iter().enumerate() {
            prop_assert!(
                (after[new_slot] - before[old_slot]).abs() < 1e-4,
                "probability moved with the job: slot {} -> {}",
                old_slot,
                new_slot
            );
        }
    }

    #[test]
    fn kernel_output_is_a_distribution_over_valid_slots(
        features in prop::collection::vec(0.0f32..1.0, 8 * JOB_FEATURES),
        valid in 1usize..8,
        net_seed in any::<u64>(),
    ) {
        let k = 8;
        let policy = build_policy(PolicyKind::Kernel, k, net_seed);
        let mask: Vec<f32> = (0..k).map(|i| if i < valid { 0.0 } else { MASK_OFF }).collect();
        let lp = forward(&policy, &features, &mask, k);
        let sum: f32 = lp.iter().map(|l| l.exp()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "sum {}", sum);
        for (i, &l) in lp.iter().enumerate() {
            if i >= valid {
                prop_assert!(l < -1e8, "masked slot {} has probability {}", i, l.exp());
            } else {
                prop_assert!(l.is_finite());
            }
        }
    }

    #[test]
    fn encoder_features_stay_in_unit_range(
        submits in prop::collection::vec(0.0f64..1e6, 1..12),
        runs in prop::collection::vec(1.0f64..1e7, 12),
        procs in prop::collection::vec(1u32..512, 12),
        now_offset in 0.0f64..1e6,
        free in 0u32..128,
    ) {
        let n = submits.len();
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job::new(i as u32 + 1, submits[i], runs[i], procs[i], runs[i] * 1.5))
            .collect();
        let now = submits.iter().cloned().fold(0.0, f64::max) + now_offset;
        let view = QueueView {
            time: now,
            free_procs: free.min(128),
            total_procs: 128,
            waiting: jobs
                .iter()
                .enumerate()
                .map(|(i, job)| WaitingJob {
                    job,
                    job_index: i,
                    wait: now - job.submit_time,
                    can_run_now: job.procs() <= free.min(128),
                })
                .collect(),
        };
        let enc = ObsEncoder::new(ObsConfig { max_obsv: 16, ..ObsConfig::default() });
        let (obs, mask) = enc.encode(&view);
        prop_assert_eq!(obs.len(), 16 * JOB_FEATURES);
        for &x in &obs {
            prop_assert!((0.0..=1.0).contains(&x), "feature {} out of range", x);
        }
        for (i, &m) in mask.iter().enumerate() {
            if i < n.min(16) {
                prop_assert_eq!(m, 0.0);
            } else {
                prop_assert!(m < -1e8);
            }
        }
    }
}
