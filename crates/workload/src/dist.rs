//! Sampling helpers shared by the workload generators.

use rand::Rng;
use rand_distr::{Distribution, Gamma, LogNormal};

/// The two-stage uniform of the Lublin–Feitelson model: with probability
/// `prob` draw uniformly from `[low, med]`, otherwise from `[med, high]`.
/// Used for log2 of the job size (most jobs are small; a tail is large).
pub fn two_stage_uniform<R: Rng + ?Sized>(
    low: f64,
    med: f64,
    high: f64,
    prob: f64,
    rng: &mut R,
) -> f64 {
    debug_assert!(low <= med && med <= high && (0.0..=1.0).contains(&prob));
    if rng.gen::<f64>() < prob {
        rng.gen_range(low..=med)
    } else {
        rng.gen_range(med..=high)
    }
}

/// A hyper-gamma distribution: a two-component gamma mixture whose mixing
/// weight can depend on the job size (larger jobs run longer in the Lublin
/// model — the `p = pa·n + pb` coupling of \[18\]).
#[derive(Debug, Clone)]
pub struct HyperGamma {
    g1: Gamma<f64>,
    g2: Gamma<f64>,
}

impl HyperGamma {
    /// Build from the two components' (shape, scale) pairs.
    pub fn new(shape1: f64, scale1: f64, shape2: f64, scale2: f64) -> Self {
        HyperGamma {
            g1: Gamma::new(shape1, scale1).expect("valid gamma-1 parameters"),
            g2: Gamma::new(shape2, scale2).expect("valid gamma-2 parameters"),
        }
    }

    /// Sample with first-component probability `p` (clamped to [0, 1]).
    pub fn sample<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < p.clamp(0.0, 1.0) {
            self.g1.sample(rng)
        } else {
            self.g2.sample(rng)
        }
    }
}

/// A lognormal parameterized by the target mean and coefficient of
/// variation of the *resulting* distribution (not of the underlying
/// normal), which is how trace moments are naturally specified.
#[derive(Debug, Clone, Copy)]
pub struct LogNormalByMoments {
    inner: LogNormal<f64>,
}

impl LogNormalByMoments {
    /// `mean` must be positive; `cv` (σ/μ) must be non-negative.
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(cv >= 0.0, "coefficient of variation must be non-negative");
        // For X ~ LogNormal(mu, sigma): E X = exp(mu + sigma^2/2),
        // CV^2 = exp(sigma^2) - 1  =>  sigma^2 = ln(1 + CV^2).
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormalByMoments {
            inner: LogNormal::new(mu, sigma2.sqrt()).expect("finite lognormal parameters"),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng)
    }
}

/// Round a runtime request up to a "human" figure: users ask for round
/// numbers (15-minute multiples under 4 hours, hour multiples above).
/// Quantized requests create the ragged backfilling holes real schedulers
/// see.
pub fn quantize_request(seconds: f64) -> f64 {
    let s = seconds.max(60.0);
    let step = if s <= 4.0 * 3600.0 { 900.0 } else { 3600.0 };
    (s / step).ceil() * step
}

/// Round a sampled size to an allowed allocation: with probability
/// `pow2_prob` snap to the nearest power of two (SWF traces are dominated
/// by power-of-two requests), otherwise round to the nearest integer.
pub fn round_size<R: Rng + ?Sized>(raw: f64, pow2_prob: f64, max: u32, rng: &mut R) -> u32 {
    let raw = raw.max(1.0);
    let n = if rng.gen::<f64>() < pow2_prob {
        let log = raw.log2().round().max(0.0);
        2f64.powf(log)
    } else {
        raw.round()
    };
    (n as u32).clamp(1, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn two_stage_uniform_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = two_stage_uniform(1.0, 3.0, 8.0, 0.7, &mut r);
            assert!((1.0..=8.0).contains(&x));
        }
    }

    #[test]
    fn two_stage_uniform_mixes_with_prob() {
        let mut r = rng();
        let lows = (0..20000)
            .filter(|_| two_stage_uniform(0.0, 1.0, 2.0, 0.75, &mut r) <= 1.0)
            .count();
        let frac = lows as f64 / 20000.0;
        assert!((frac - 0.75).abs() < 0.02, "low-stage fraction {frac}");
    }

    #[test]
    fn hyper_gamma_interpolates_between_components() {
        let mut r = rng();
        let hg = HyperGamma::new(4.0, 1.0, 100.0, 1.0); // means 4 and 100
        let m = |p: f64, r: &mut StdRng| (0..20000).map(|_| hg.sample(p, r)).sum::<f64>() / 20000.0;
        let m1 = m(1.0, &mut r);
        let m0 = m(0.0, &mut r);
        let mh = m(0.5, &mut r);
        assert!((m1 - 4.0).abs() < 0.5, "p=1 mean {m1}");
        assert!((m0 - 100.0).abs() < 2.0, "p=0 mean {m0}");
        assert!((mh - 52.0).abs() < 4.0, "p=0.5 mean {mh}");
    }

    #[test]
    fn hyper_gamma_clamps_p() {
        let mut r = rng();
        let hg = HyperGamma::new(4.0, 1.0, 100.0, 1.0);
        // p outside [0,1] must not panic.
        let _ = hg.sample(-0.5, &mut r);
        let _ = hg.sample(1.5, &mut r);
    }

    #[test]
    fn lognormal_hits_requested_moments() {
        let mut r = rng();
        let d = LogNormalByMoments::new(500.0, 2.0);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - 500.0).abs() / 500.0 < 0.05,
            "sampled mean {mean} vs target 500"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lognormal_rejects_nonpositive_mean() {
        let _ = LogNormalByMoments::new(0.0, 1.0);
    }

    #[test]
    fn quantize_request_rounds_up_to_human_figures() {
        assert_eq!(quantize_request(1.0), 900.0);
        assert_eq!(quantize_request(900.0), 900.0);
        assert_eq!(quantize_request(901.0), 1800.0);
        assert_eq!(quantize_request(5.0 * 3600.0), 5.0 * 3600.0);
        assert_eq!(quantize_request(5.0 * 3600.0 + 1.0), 6.0 * 3600.0);
    }

    #[test]
    fn quantized_request_never_shrinks() {
        let mut r = rng();
        for _ in 0..1000 {
            let t: f64 = r.gen_range(60.0..1e5);
            assert!(quantize_request(t) >= t);
        }
    }

    #[test]
    fn round_size_within_bounds_and_pow2_bias() {
        let mut r = rng();
        let mut pow2 = 0;
        for _ in 0..2000 {
            let s = round_size(11.3, 0.8, 64, &mut r);
            assert!((1..=64).contains(&s));
            if s.is_power_of_two() {
                pow2 += 1;
            }
        }
        // ~80% snap to 8 or 16; a few non-pow2 roundings of 11.3 -> 11.
        assert!(pow2 as f64 / 2000.0 > 0.7);
    }

    #[test]
    fn round_size_clamps_to_max() {
        let mut r = rng();
        assert_eq!(round_size(1e9, 0.5, 128, &mut r), 128);
        assert_eq!(round_size(0.0, 0.5, 128, &mut r), 1);
    }
}
