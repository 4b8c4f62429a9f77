//! The Lublin–Feitelson workload model \[18\] ("The workload on parallel
//! supercomputers: modeling the characteristics of rigid jobs", JPDC 2003),
//! the generative model behind the paper's Lublin-1 and Lublin-2 traces.
//!
//! The model has three coupled components:
//!
//! 1. **Job size** (requested processors): a fraction of jobs is serial;
//!    parallel sizes follow a *two-stage log-uniform* (most jobs small, a
//!    tail large) with a strong bias toward powers of two.
//! 2. **Runtime**: a *hyper-gamma* mixture of a short-job and a long-job
//!    gamma component whose mixing probability decreases linearly with job
//!    size (`p = pa·n + pb`) — bigger jobs run longer.
//! 3. **Arrivals**: gamma-distributed interarrival gaps modulated by a
//!    daily cycle (rush hours arrive faster).
//!
//! Parameter values are calibrated against Table II of the RLScheduler
//! paper (see `named.rs`) rather than copied from the original C program:
//! the paper itself only specifies its two Lublin parameterizations through
//! the resulting trace moments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Gamma};

use rlsched_swf::{Job, JobTrace};

use crate::dist::{two_stage_uniform, HyperGamma};
use crate::users::UserModel;

/// Relative arrival intensity per hour of day (the daily cycle of [18]):
/// mornings ramp up, afternoons peak, nights are quiet. Normalized to mean
/// 1 in [`LublinModel::new`].
const HOURLY_INTENSITY: [f64; 24] = [
    0.35, 0.25, 0.20, 0.20, 0.25, 0.35, 0.55, 0.90, 1.30, 1.60, 1.75, 1.75, 1.65, 1.70, 1.75, 1.65,
    1.55, 1.35, 1.10, 0.90, 0.75, 0.60, 0.50, 0.40,
];

/// Parameters of the Lublin–Feitelson model.
#[derive(Debug, Clone)]
pub struct LublinParams {
    /// Total processors of the modeled cluster.
    pub cluster_size: u32,
    /// Probability a job is serial (1 processor).
    pub serial_prob: f64,
    /// Probability a parallel size snaps to a power of two.
    pub pow2_prob: f64,
    /// Two-stage log-uniform: lower bound of log2(size).
    pub ulow: f64,
    /// Two-stage log-uniform: breakpoint of log2(size).
    pub umed: f64,
    /// Two-stage log-uniform: upper bound of log2(size); defaults to
    /// log2(cluster_size).
    pub uhi: f64,
    /// Probability of the low stage.
    pub uprob: f64,
    /// Short-runtime gamma component (shape, scale), seconds.
    pub gamma_short: (f64, f64),
    /// Long-runtime gamma component (shape, scale), seconds.
    pub gamma_long: (f64, f64),
    /// Runtime mixing: `p(first component) = pa * n + pb`.
    pub pa: f64,
    /// See [`LublinParams::pa`].
    pub pb: f64,
    /// Interarrival gamma (shape, scale), seconds; modulated by the cycle.
    pub arrival_gamma: (f64, f64),
    /// Maximum runtime cap, seconds (archives cap at queue limits).
    pub max_runtime: f64,
    /// Number of users in the synthetic population.
    pub n_users: usize,
    /// Zipf exponent of user popularity.
    pub user_alpha: f64,
}

impl LublinParams {
    /// The paper's Lublin-1 shape: moderate sizes (mean ≈ 22 procs on a
    /// 256-proc cluster), long runtimes (mean ≈ 4.9 ks), interarrival
    /// ≈ 771 s.
    pub fn lublin1() -> Self {
        LublinParams {
            cluster_size: 256,
            serial_prob: 0.20,
            pow2_prob: 0.75,
            ulow: 1.0,
            umed: 4.2,
            uhi: 8.0,
            uprob: 0.75,
            gamma_short: (1.5, 600.0),
            gamma_long: (3.0, 6000.0),
            pa: -0.0045,
            pb: 0.86,
            arrival_gamma: (1.0, 771.0),
            max_runtime: 7.0 * 24.0 * 3600.0,
            n_users: 64,
            user_alpha: 0.9,
        }
    }

    /// The paper's Lublin-2 shape: larger jobs (mean ≈ 39 procs), shorter
    /// runtimes (mean ≈ 1.7 ks), faster arrivals (≈ 460 s).
    pub fn lublin2() -> Self {
        LublinParams {
            cluster_size: 256,
            serial_prob: 0.10,
            pow2_prob: 0.80,
            ulow: 1.5,
            umed: 5.0,
            uhi: 8.0,
            uprob: 0.68,
            gamma_short: (1.5, 300.0),
            gamma_long: (2.0, 2600.0),
            pa: -0.0030,
            pb: 0.82,
            arrival_gamma: (1.0, 460.0),
            max_runtime: 3.0 * 24.0 * 3600.0,
            n_users: 64,
            user_alpha: 0.9,
        }
    }
}

/// A ready-to-sample Lublin model.
#[derive(Debug, Clone)]
pub struct LublinModel {
    params: LublinParams,
    runtime: HyperGamma,
    arrival: Gamma<f64>,
    users: UserModel,
    cycle: [f64; 24],
}

impl LublinModel {
    /// Validate parameters and precompute samplers.
    pub fn new(params: LublinParams) -> Self {
        assert!(params.cluster_size >= 2, "cluster too small");
        assert!(params.ulow <= params.umed && params.umed <= params.uhi);
        let runtime = HyperGamma::new(
            params.gamma_short.0,
            params.gamma_short.1,
            params.gamma_long.0,
            params.gamma_long.1,
        );
        let arrival =
            Gamma::new(params.arrival_gamma.0, params.arrival_gamma.1).expect("valid gamma");
        let users = UserModel::zipf(params.n_users, params.user_alpha);
        let mean = HOURLY_INTENSITY.iter().sum::<f64>() / 24.0;
        let mut cycle = HOURLY_INTENSITY;
        for c in &mut cycle {
            *c /= mean;
        }
        LublinModel {
            params,
            runtime,
            arrival,
            users,
            cycle,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &LublinParams {
        &self.params
    }

    fn sample_size<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let p = &self.params;
        if rng.gen::<f64>() < p.serial_prob {
            return 1;
        }
        let log2_size = two_stage_uniform(p.ulow, p.umed, p.uhi, p.uprob, rng);
        crate::dist::round_size(2f64.powf(log2_size), p.pow2_prob, p.cluster_size, rng)
    }

    fn sample_runtime<R: Rng + ?Sized>(&self, size: u32, rng: &mut R) -> f64 {
        let p = self.params.pa * size as f64 + self.params.pb;
        self.runtime
            .sample(p, rng)
            .clamp(1.0, self.params.max_runtime)
    }

    fn sample_gap<R: Rng + ?Sized>(&self, now: f64, rng: &mut R) -> f64 {
        let hour = ((now / 3600.0) as usize) % 24;
        // Higher intensity => proportionally shorter gaps.
        (self.arrival.sample(rng) / self.cycle[hour]).max(1e-3)
    }

    /// Generate a trace of `n` jobs, reproducibly from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> JobTrace {
        let jobs: Vec<Job> = self.stream(n, seed).collect();
        JobTrace::new(jobs, self.params.cluster_size)
    }

    /// Stream `n` jobs one at a time, reproducibly from `seed`, without
    /// materializing the trace: the iterator drives the same sequential
    /// RNG walk as [`LublinModel::generate`] (which is now implemented on
    /// top of it), so the yielded jobs are bit-identical to the generated
    /// trace's — and already in submit order, since arrival times are a
    /// running sum of positive gaps.
    pub fn stream(&self, n: usize, seed: u64) -> LublinStream<'_> {
        LublinStream {
            model: self,
            rng: StdRng::seed_from_u64(seed),
            // Start mid-morning so the daily cycle is exercised from a
            // busy region, as archive traces do.
            t: 9.0 * 3600.0,
            next: 0,
            n,
        }
    }

    /// Write a seeded `n`-job synthetic trace straight to an SWF sink in
    /// one streaming pass (constant memory): the trace-scale replay
    /// fixture generator for the offline build environment, where no
    /// archive traces exist. The emitted document parses back (via
    /// either SWF reader) to exactly the jobs of
    /// [`LublinModel::generate`] with the model's cluster size.
    pub fn write_swf<W: std::io::Write>(
        &self,
        n: usize,
        seed: u64,
        w: W,
    ) -> Result<(), rlsched_swf::SwfError> {
        let mut header = rlsched_swf::SwfHeader::default();
        header
            .fields
            .insert("MaxProcs".to_string(), self.params.cluster_size.to_string());
        rlsched_swf::write_jobs(&header, self.params.cluster_size, self.stream(n, seed), w)
    }
}

/// The streaming counterpart of [`LublinModel::generate`]: yields the
/// exact same job sequence, one record at a time.
#[derive(Debug)]
pub struct LublinStream<'a> {
    model: &'a LublinModel,
    rng: StdRng,
    t: f64,
    next: usize,
    n: usize,
}

impl Iterator for LublinStream<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.next >= self.n {
            return None;
        }
        let m = self.model;
        self.t += m.sample_gap(self.t, &mut self.rng);
        let size = m.sample_size(&mut self.rng);
        let runtime = m.sample_runtime(size, &mut self.rng);
        let user = m.users.sample(&mut self.rng);
        let i = self.next;
        self.next += 1;
        // The Lublin model generates runtimes, not user estimates; as in
        // the reference setup, requested time equals the actual runtime.
        Some(Job::new(i as u32 + 1, self.t, runtime, size, runtime).with_user(user))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.next;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_swf::TraceStats;

    #[test]
    fn deterministic_given_seed() {
        let m = LublinModel::new(LublinParams::lublin1());
        let a = m.generate(200, 9);
        let b = m.generate(200, 9);
        assert_eq!(a.jobs(), b.jobs());
        let c = m.generate(200, 10);
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn lublin1_moments_near_table2() {
        let m = LublinModel::new(LublinParams::lublin1());
        let s = TraceStats::from_trace(&m.generate(10_000, 1));
        // Targets: it=771, rt=4862, nt=22. Structural sampling, so allow
        // generous tolerances; named.rs calibrates it/rt exactly.
        assert!(
            (s.mean_interarrival - 771.0).abs() / 771.0 < 0.35,
            "it={}",
            s.mean_interarrival
        );
        assert!(
            (s.mean_requested_time - 4862.0).abs() / 4862.0 < 0.35,
            "rt={}",
            s.mean_requested_time
        );
        assert!(
            (s.mean_requested_procs - 22.0).abs() / 22.0 < 0.35,
            "nt={}",
            s.mean_requested_procs
        );
    }

    #[test]
    fn lublin2_is_bigger_and_shorter_than_lublin1() {
        let m1 = LublinModel::new(LublinParams::lublin1());
        let m2 = LublinModel::new(LublinParams::lublin2());
        let s1 = TraceStats::from_trace(&m1.generate(8_000, 2));
        let s2 = TraceStats::from_trace(&m2.generate(8_000, 2));
        assert!(s2.mean_requested_procs > s1.mean_requested_procs);
        assert!(s2.mean_requested_time < s1.mean_requested_time);
        assert!(s2.mean_interarrival < s1.mean_interarrival);
    }

    #[test]
    fn sizes_respect_cluster_and_runtime_caps() {
        let p = LublinParams::lublin1();
        let cap = p.max_runtime;
        let m = LublinModel::new(p);
        let t = m.generate(5_000, 3);
        for j in t.jobs() {
            assert!(j.procs() >= 1 && j.procs() <= 256);
            assert!(j.run_time >= 1.0 && j.run_time <= cap);
            assert_eq!(j.requested_time, j.run_time);
        }
    }

    #[test]
    fn submit_times_strictly_increase() {
        let m = LublinModel::new(LublinParams::lublin2());
        let t = m.generate(2_000, 4);
        for w in t.jobs().windows(2) {
            assert!(w[1].submit_time > w[0].submit_time);
        }
    }

    #[test]
    fn pow2_bias_is_visible() {
        let m = LublinModel::new(LublinParams::lublin1());
        let s = TraceStats::from_trace(&m.generate(5_000, 5));
        assert!(s.pow2_fraction > 0.6, "pow2 fraction {}", s.pow2_fraction);
    }

    #[test]
    fn users_are_populated() {
        let m = LublinModel::new(LublinParams::lublin1());
        let t = m.generate(3_000, 6);
        let users = t.users();
        assert!(users.len() > 10, "expected a populated user base");
        assert!(users.iter().all(|&u| u >= 0));
    }

    #[test]
    fn daily_cycle_modulates_arrivals() {
        // Night hours (0-5) must show longer average gaps than peak hours
        // (9-16) on a long trace.
        let m = LublinModel::new(LublinParams::lublin1());
        let t = m.generate(20_000, 7);
        let mut night = (0.0, 0usize);
        let mut peak = (0.0, 0usize);
        for w in t.jobs().windows(2) {
            let gap = w[1].submit_time - w[0].submit_time;
            let hour = ((w[0].submit_time / 3600.0) as usize) % 24;
            if hour < 6 {
                night.0 += gap;
                night.1 += 1;
            } else if (9..17).contains(&hour) {
                peak.0 += gap;
                peak.1 += 1;
            }
        }
        let night_mean = night.0 / night.1 as f64;
        let peak_mean = peak.0 / peak.1 as f64;
        assert!(
            night_mean > 1.5 * peak_mean,
            "night {night_mean} vs peak {peak_mean}"
        );
    }

    #[test]
    fn stream_matches_generate_bit_for_bit() {
        let m = LublinModel::new(LublinParams::lublin1());
        let streamed: Vec<_> = m.stream(300, 17).collect();
        let generated = m.generate(300, 17);
        assert_eq!(streamed.as_slice(), generated.jobs());
        // Arrivals are monotone, so streaming order IS trace order.
        for w in streamed.windows(2) {
            assert!(w[0].submit_time <= w[1].submit_time);
        }
    }

    #[test]
    fn write_swf_round_trips_through_both_readers() {
        let m = LublinModel::new(LublinParams::lublin2());
        let mut buf = Vec::new();
        m.write_swf(150, 3, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = rlsched_swf::parse_str(&text).unwrap();
        assert_eq!(parsed.max_procs(), m.params().cluster_size);
        assert_eq!(parsed.jobs(), m.generate(150, 3).jobs());
        let streamed: Vec<_> = rlsched_swf::StreamReader::new(text.as_bytes())
            .map(|j| j.unwrap())
            .collect();
        assert_eq!(streamed.as_slice(), parsed.jobs());
    }
}
