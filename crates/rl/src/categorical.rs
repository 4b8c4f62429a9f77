//! Masked categorical distributions over action log-probabilities.
//!
//! The RLScheduler policy network emits one probability per waiting-job
//! slot (Fig 5). Padding slots (fewer than `MAX_OBSV_SIZE` jobs waiting)
//! must never be selected; masking is expressed as an additive offset of
//! [`MASK_OFF`] on invalid logits, which drives their softmax probability
//! to exactly zero in f32.

use rand::Rng;

pub use rlsched_nn::MASK_OFF;

/// A categorical distribution given by per-action log-probabilities
/// (typically a row of a `log_softmax` output).
#[derive(Debug, Clone)]
pub struct MaskedCategorical<'a> {
    logp: &'a [f32],
}

impl<'a> MaskedCategorical<'a> {
    /// Wrap a log-probability row.
    pub fn new(logp: &'a [f32]) -> Self {
        debug_assert!(!logp.is_empty());
        MaskedCategorical { logp }
    }

    /// Sample an action index proportional to `exp(logp)` — the training
    /// path ("sampling enables us to keep exploring", §IV-B1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f32 = rng.gen();
        let mut acc = 0.0f32;
        let mut last_valid = 0;
        for (i, &lp) in self.logp.iter().enumerate() {
            let p = lp.exp();
            if p > 0.0 {
                last_valid = i;
            }
            acc += p;
            if x < acc {
                return i;
            }
        }
        // Floating-point shortfall (acc summed to slightly under 1):
        // return the last action with non-zero probability.
        last_valid
    }

    /// The most probable action — the deterministic test-time path
    /// ("during testing, it is directly used to select the job with the
    /// highest probability", §IV-B1).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &lp) in self.logp.iter().enumerate() {
            if lp > self.logp[best] {
                best = i;
            }
        }
        best
    }

    /// Log-probability of a given action.
    pub fn log_prob(&self, action: usize) -> f32 {
        self.logp[action]
    }

    /// Shannon entropy in nats. Masked entries (probability 0) contribute
    /// nothing.
    pub fn entropy(&self) -> f32 {
        -self
            .logp
            .iter()
            .map(|&lp| {
                let p = lp.exp();
                if p > 0.0 {
                    p * lp
                } else {
                    0.0
                }
            })
            .sum::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn logp_of(probs: &[f32]) -> Vec<f32> {
        probs.iter().map(|p| p.ln()).collect()
    }

    #[test]
    fn sample_follows_probabilities() {
        let logp = logp_of(&[0.1, 0.6, 0.3]);
        let d = MaskedCategorical::new(&logp);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!((counts[1] as f32 / n as f32 - 0.6).abs() < 0.02);
        assert!((counts[0] as f32 / n as f32 - 0.1).abs() < 0.02);
    }

    #[test]
    fn masked_actions_never_sampled() {
        // Action 1 is masked (log-prob MASK_OFF → probability 0);
        // the others carry probabilities 0.9 and 0.1.
        let logp = vec![(0.9f32).ln(), MASK_OFF, (0.1f32).ln()];
        let d = MaskedCategorical::new(&logp);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert_ne!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn argmax_picks_mode() {
        let logp = logp_of(&[0.2, 0.5, 0.3]);
        assert_eq!(MaskedCategorical::new(&logp).argmax(), 1);
    }

    #[test]
    fn entropy_uniform_is_ln_n() {
        let logp = logp_of(&[0.25; 4]);
        let h = MaskedCategorical::new(&logp).entropy();
        assert!((h - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn entropy_deterministic_is_zero() {
        let logp = vec![0.0, MASK_OFF, MASK_OFF];
        let h = MaskedCategorical::new(&logp).entropy();
        assert!(h.abs() < 1e-6, "h={h}");
    }

    #[test]
    fn entropy_ignores_masked_slots_without_nan() {
        let logp = vec![(0.5f32).ln(), (0.5f32).ln(), MASK_OFF];
        let h = MaskedCategorical::new(&logp).entropy();
        assert!(h.is_finite());
        assert!((h - 2.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn sample_handles_shortfall() {
        // Probabilities that sum slightly below 1 after exp still return a
        // valid (unmasked) index.
        let logp = vec![(0.3f32).ln(), (0.69999f32).ln(), MASK_OFF];
        let d = MaskedCategorical::new(&logp);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) < 2);
        }
    }
}
