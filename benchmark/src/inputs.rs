//! Input synthesis: everything a workload feeds the program is made here,
//! from the seed alone, before any clock starts. The time it takes is
//! harness work, reported as `input_gen_s` and excluded from every metric.

use std::io::{BufWriter, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rlsched_rl::PpoConfig;
use rlsched_sim::MetricKind;
use rlsched_swf::{Job, SwfHeader};
use rlsched_workload::{LublinModel, LublinParams};
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind};

/// When the jobs of a trace are submitted. Sizes, runtimes and users
/// always come from the Lublin-1 model; only the arrival process varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// The model's own arrivals with every submit time multiplied by this
    /// factor. The calibrated model offers load ≈ 1, so an unstretched long
    /// replay random-walks its queue upward and measures backlog, not the
    /// engine; 1.5 keeps EASY-FCFS stationary and shallow, 2.5 keeps a
    /// no-backfill queue stationary too.
    Stretched(f64),
    /// Bulk submissions: `size` jobs arrive at the same instant, and the
    /// next batch only after the cluster has long drained. The queue depth
    /// at each decision is then `size, size − 1, …` whatever the seed —
    /// a deep queue whose depth profile is exact, where a critically
    /// loaded stationary trace's depth moves 20–40 % from seed to seed.
    Batches { size: usize },
}

/// Seconds between batches: a few times what 256 processors need to
/// drain the largest batch used.
const BATCH_GAP_S: f64 = 5e7;

/// The Lublin-1 job stream for `seed` under `arrivals`.
pub fn lublin_jobs(
    model: &LublinModel,
    n: usize,
    seed: u64,
    arrivals: Arrivals,
) -> impl Iterator<Item = Job> + '_ {
    model.stream(n, seed).enumerate().map(move |(k, mut j)| {
        j.submit_time = match arrivals {
            Arrivals::Stretched(factor) => j.submit_time * factor,
            Arrivals::Batches { size } => (k / size) as f64 * BATCH_GAP_S,
        };
        j
    })
}

/// The Lublin-1 model and its cluster size.
pub fn lublin1() -> (LublinModel, u32) {
    let params = LublinParams::lublin1();
    let cluster = params.cluster_size;
    (LublinModel::new(params), cluster)
}

/// Write `jobs` as an SWF file at `path`, flushed and closed before
/// returning, so no measured pass ever waits on a write.
pub fn write_swf(path: &Path, cluster: u32, jobs: impl Iterator<Item = Job>) -> Result<(), String> {
    let mut header = SwfHeader::default();
    header
        .fields
        .insert("MaxProcs".to_string(), cluster.to_string());
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    rlsched_swf::write_jobs(&header, cluster, jobs, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}

/// Weight seed of every benchmark agent. Fixed, not derived from the
/// workload seed: the workload seed varies the *inputs*, and an untrained
/// network's decisions (hence queue dynamics and pass length) would swing
/// with its initial weights.
pub const AGENT_SEED: u64 = 0xA6E7;

/// The paper's decision network: kernel policy over a 128-job window.
/// `ppo` is the only part the train workload changes.
pub fn kernel_agent(ppo: PpoConfig) -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig::default(),
        metric: MetricKind::BoundedSlowdown,
        ppo,
        seed: AGENT_SEED,
    })
}

/// When each pipelined burst of one connection is due, in nanoseconds
/// from the start of the pass: burst `k` at `k · period`, shifted by half
/// a period on odd connections so the two connections interleave, plus a
/// seeded jitter of up to ± an eighth of a period so bursts do not beat
/// against the server's coalesce window. A pure function of its arguments.
pub fn burst_schedule(seed: u64, conn: usize, bursts: usize, period_ns: u64) -> Vec<u64> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let phase = if conn % 2 == 1 { period_ns / 2 } else { 0 };
    let jitter = period_ns / 8;
    (0..bursts as u64)
        .map(|k| {
            // Start one period in so a negative jitter never precedes t = 0.
            let nominal = (k + 1) * period_ns + phase;
            nominal - jitter + rng.gen_range(0..=2 * jitter)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_a_pure_function_of_the_seed() {
        let (model, _) = lublin1();
        for arrivals in [Arrivals::Stretched(1.5), Arrivals::Batches { size: 100 }] {
            let a: Vec<Job> = lublin_jobs(&model, 500, 7, arrivals).collect();
            let b: Vec<Job> = lublin_jobs(&model, 500, 7, arrivals).collect();
            let c: Vec<Job> = lublin_jobs(&model, 500, 8, arrivals).collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert!(a.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
        }
    }

    #[test]
    fn burst_schedule_is_seeded_monotone_and_interleaved() {
        let period = 4_000_000;
        let a = burst_schedule(3, 0, 200, period);
        assert_eq!(a, burst_schedule(3, 0, 200, period));
        assert_ne!(a, burst_schedule(4, 0, 200, period));
        let b = burst_schedule(3, 1, 200, period);
        assert_ne!(a, b);
        for s in [&a, &b] {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "bursts stay ordered");
        }
        // Jitter is bounded by an eighth of a period around the nominal time.
        for (k, &t) in a.iter().enumerate() {
            let nominal = (k as u64 + 1) * period;
            assert!(t.abs_diff(nominal) <= period / 8);
        }
        let mean_gap = (b.iter().sum::<u64>() as f64 - a.iter().sum::<u64>() as f64) / 200.0;
        assert!((mean_gap - period as f64 / 2.0).abs() < period as f64 / 8.0);
    }
}
