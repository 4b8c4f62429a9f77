//! Property tests for the RL substrate: GAE identities, advantage
//! normalization, and masked categorical behavior.

use proptest::prelude::*;

use rlsched_rl::buffer::ArrivalArena;
use rlsched_rl::categorical::{MaskedCategorical, MASK_OFF};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gae_telescopes_to_return_minus_value(
        rewards in prop::collection::vec(-50.0f64..50.0, 1..30),
        values in prop::collection::vec(-20.0f64..20.0, 30),
    ) {
        // With gamma = lambda = 1 and terminal bootstrap 0:
        // A_t = G_t - V_t exactly (telescoping sum of TD errors).
        let n = rewards.len();
        let mut buf = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        for i in 0..n {
            buf.store(0, &[0.0, 0.0], &[0.0, 0.0], 0, rewards[i], values[i], -0.7);
        }
        buf.finish_episode(0, 0.0);
        let batch = buf.into_batch();
        // Recompute expectations directly.
        let mut g = vec![0.0f64; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc += rewards[i];
            g[i] = acc;
        }
        // returns must equal rewards-to-go
        for (i, (&r, &gi)) in batch.returns.iter().zip(&g).enumerate() {
            prop_assert!((r as f64 - gi).abs() < 1e-3,
                "return[{}] {} vs {}", i, r, gi);
        }
    }

    #[test]
    fn advantages_are_normalized(
        rewards in prop::collection::vec(-50.0f64..50.0, 2..40),
    ) {
        let n = rewards.len();
        let mut buf = ArrivalArena::new(2, 2, 1.0, 0.95, 1);
        for (i, &r) in rewards.iter().enumerate() {
            buf.store(0, &[i as f32, 1.0], &[0.0, 0.0], i % 2, r, 0.1 * i as f64, -0.7);
        }
        buf.finish_episode(0, 0.0);
        let batch = buf.into_batch();
        let mean: f64 = batch.advantages.iter().map(|&a| a as f64).sum::<f64>() / n as f64;
        prop_assert!(mean.abs() < 1e-4, "mean {mean}");
        if n >= 3 {
            let var: f64 = batch
                .advantages
                .iter()
                .map(|&a| (a as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            // Degenerate (all-equal) advantages give var 0 under the eps guard.
            prop_assert!(var < 1.2, "var {var}");
        }
    }

    #[test]
    fn categorical_sampling_respects_masks(
        weights in prop::collection::vec(0.01f32..5.0, 2..12),
        masked_idx in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let n = weights.len();
        let mut masked = vec![false; n];
        for m in &masked_idx {
            masked[m.index(n)] = true;
        }
        // Keep at least one valid action.
        masked[0] = false;
        let total: f32 = weights
            .iter()
            .zip(&masked)
            .filter(|(_, &m)| !m)
            .map(|(w, _)| *w)
            .sum();
        let logp: Vec<f32> = weights
            .iter()
            .zip(&masked)
            .map(|(w, &m)| if m { MASK_OFF } else { (w / total).ln() })
            .collect();
        let d = MaskedCategorical::new(&logp);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let a = d.sample(&mut rng);
            prop_assert!(!masked[a], "sampled masked action {a}");
        }
        prop_assert!(!masked[d.argmax()], "argmax picked a masked action");
    }

    #[test]
    fn entropy_bounds(
        weights in prop::collection::vec(0.01f32..5.0, 2..12),
    ) {
        let total: f32 = weights.iter().sum();
        let logp: Vec<f32> = weights.iter().map(|w| (w / total).ln()).collect();
        let h = MaskedCategorical::new(&logp).entropy();
        prop_assert!(h >= -1e-5, "entropy {h} negative");
        prop_assert!(
            h <= (weights.len() as f32).ln() + 1e-4,
            "entropy {h} exceeds ln(n)"
        );
    }

    #[test]
    fn delayed_reward_spreads_to_all_steps(
        len in 2usize..30,
        terminal in -100.0f64..-1.0,
    ) {
        // The paper's reward structure: zeros then one terminal value; with
        // gamma=1 every step's return equals the terminal reward.
        let mut buf = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        for i in 0..len {
            let r = if i == len - 1 { terminal } else { 0.0 };
            buf.store(0, &[0.0, 0.0], &[0.0, 0.0], 0, r, 0.0, -0.7);
        }
        buf.finish_episode(0, 0.0);
        let batch = buf.into_batch();
        for &r in &batch.returns {
            prop_assert!((r as f64 - terminal).abs() < 1e-3);
        }
    }
}
