//! A seeded random policy: the "no knowledge" floor used in tests and as a
//! sanity baseline for RL training (a trained agent must beat it).

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlsched_sim::{Outcomes, Policy, StreamSession};
use rlsched_swf::Job;

/// Picks a uniformly random waiting job; reproducible from its seed.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// Build from a seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    type Error = Infallible;

    fn pick<I: Iterator<Item = Job>, O: Outcomes>(
        &mut self,
        session: &mut StreamSession<I, O>,
    ) -> Result<usize, Infallible> {
        Ok(self.rng.gen_range(0..session.queue_len()))
    }

    fn name(&self) -> &str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_sim::{run_episode, SimConfig};
    use rlsched_swf::{Job, JobTrace};

    fn mk_trace() -> JobTrace {
        let jobs = (0..30)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 5.0,
                    20.0 + (i % 5) as f64 * 30.0,
                    1 + (i % 3),
                    50.0,
                )
            })
            .collect();
        JobTrace::new(jobs, 4)
    }

    #[test]
    fn same_seed_same_schedule() {
        let t = mk_trace();
        let a = run_episode(&t, SimConfig::default(), &mut RandomPolicy::new(5)).unwrap();
        let b = run_episode(&t, SimConfig::default(), &mut RandomPolicy::new(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let t = mk_trace();
        let a = run_episode(&t, SimConfig::default(), &mut RandomPolicy::new(1)).unwrap();
        let b = run_episode(&t, SimConfig::default(), &mut RandomPolicy::new(2)).unwrap();
        // Not guaranteed in principle, but with 30 jobs the probability of
        // identical schedules under different seeds is negligible.
        assert_ne!(a, b);
    }

    #[test]
    fn selections_are_in_range() {
        let t = mk_trace();
        let m = run_episode(&t, SimConfig::with_backfill(), &mut RandomPolicy::new(42)).unwrap();
        assert_eq!(m.outcomes().len(), 30);
    }
}
