//! Observation encoding (§IV-B3 of the paper).
//!
//! RLScheduler observes at most `MAX_OBSV_SIZE` waiting jobs (default 128,
//! "as many HPC job management systems, such as Slurm, also limit the
//! number of pending jobs to the same order of magnitude"). Each job is
//! embedded as a fixed vector of normalized, *schedule-time* attributes —
//! never the actual runtime — plus cluster-availability context ("the
//! vector also contains available resources", §IV-B3). Overflowing jobs
//! are cut off in FCFS order; missing slots are zero-padded and masked.

use rlsched_rl::categorical::MASK_OFF;
use rlsched_sim::WaitingJob;
use serde::{Deserialize, Serialize};

/// Features per job vector. See [`ObsEncoder::encode_jobs_extend`] for the
/// layout.
pub const JOB_FEATURES: usize = 7;

/// Default observation window, as in the paper.
pub const DEFAULT_MAX_OBSV: usize = 128;

/// Normalization constants and window size for observation encoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Maximum jobs observed (`MAX_OBSV_SIZE`).
    pub max_obsv: usize,
    /// Wait-time normalization cap, seconds.
    pub max_wait: f64,
    /// Requested-runtime normalization cap, seconds.
    pub max_request_time: f64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            max_obsv: DEFAULT_MAX_OBSV,
            max_wait: 12.0 * 3600.0,
            max_request_time: 3.0 * 24.0 * 3600.0,
        }
    }
}

/// Encodes a decision point into the fixed `[max_obsv × JOB_FEATURES]`
/// observation plus the additive action mask.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObsEncoder {
    /// The active configuration.
    pub cfg: ObsConfig,
}

impl ObsEncoder {
    /// Build an encoder.
    pub fn new(cfg: ObsConfig) -> Self {
        ObsEncoder { cfg }
    }

    /// Flattened observation width.
    pub fn obs_dim(&self) -> usize {
        self.cfg.max_obsv * JOB_FEATURES
    }

    /// Action-space size (= observation window).
    pub fn n_actions(&self) -> usize {
        self.cfg.max_obsv
    }

    /// Append one decision point streamed straight from the simulator's
    /// queue ([`rlsched_sim::StreamSession::waiting`]: no per-step `Vec` of
    /// waiting jobs is built) onto the buffers without clearing them:
    /// `max_obsv × JOB_FEATURES` observation values and `max_obsv` mask
    /// values, so several decision points stack into one batched greedy
    /// decision ([`rlsched_rl::greedy_batch`], which also bounds each
    /// row's action by its `queue_len`). `queue_len` is the total number of
    /// waiting jobs the iterator would yield (used for the queue-pressure
    /// feature).
    ///
    /// Per-job feature layout (all in `[0, 1]`):
    /// `[wait_norm, request_time_norm, procs_norm, can_run_now,
    /// free_frac, queue_pressure, valid]`. The mask is additive (0 for
    /// selectable slots, very negative otherwise); because the queue is
    /// FCFS-ordered, observation slot `i` *is* queue position `i`, so an
    /// agent action maps directly to `SchedSession::step(action)`.
    pub fn encode_jobs_extend<'a>(
        &self,
        free_procs: u32,
        total_procs: u32,
        queue_len: usize,
        waiting: impl Iterator<Item = WaitingJob<'a>>,
        obs: &mut Vec<f32>,
        mask: &mut Vec<f32>,
    ) {
        self.encode_slots_extend(
            free_procs,
            total_procs,
            queue_len,
            waiting.map(SnapshotJob::from),
            obs,
            mask,
        );
    }

    /// Append one [`QueueSnapshot`]'s window — the wire-request sibling of
    /// [`ObsEncoder::encode_jobs_extend`]. Both paths funnel through the
    /// same per-slot arithmetic, so a snapshot of a decision point encodes
    /// **bit-identically** to encoding its waiting jobs directly; a
    /// serving tier scoring snapshots therefore reproduces the in-process
    /// decision bits exactly.
    pub fn encode_snapshot_extend(
        &self,
        snap: &QueueSnapshot,
        obs: &mut Vec<f32>,
        mask: &mut Vec<f32>,
    ) {
        self.encode_slots_extend(
            snap.free_procs,
            snap.total_procs,
            snap.queue_len(),
            snap.jobs.iter().copied(),
            obs,
            mask,
        );
    }

    /// The shared encode loop: both entry points (simulator stream, wire
    /// snapshot) map their jobs to [`SnapshotJob`] slot features
    /// and lands here, keeping the paths bit-identical by construction.
    fn encode_slots_extend(
        &self,
        free_procs: u32,
        total_procs: u32,
        queue_len: usize,
        waiting: impl Iterator<Item = SnapshotJob>,
        obs: &mut Vec<f32>,
        mask: &mut Vec<f32>,
    ) {
        let k = self.cfg.max_obsv;
        let obs_base = obs.len();
        let mask_base = mask.len();
        obs.resize(obs_base + k * JOB_FEATURES, 0.0);
        mask.resize(mask_base + k, MASK_OFF);
        let obs = &mut obs[obs_base..];
        let mask = &mut mask[mask_base..];
        let free_frac = (free_procs as f64 / total_procs as f64) as f32;
        let pressure = (queue_len as f64 / k as f64).min(1.0) as f32;
        for (slot, w) in waiting.take(k).enumerate() {
            let base = slot * JOB_FEATURES;
            obs[base] = (w.wait / self.cfg.max_wait).min(1.0) as f32;
            obs[base + 1] = (w.time_bound / self.cfg.max_request_time).min(1.0) as f32;
            obs[base + 2] = (w.procs as f64 / total_procs as f64).min(1.0) as f32;
            obs[base + 3] = if w.can_run_now { 1.0 } else { 0.0 };
            obs[base + 4] = free_frac;
            obs[base + 5] = pressure;
            obs[base + 6] = 1.0;
            mask[slot] = 0.0;
        }
    }
}

/// One waiting job's schedule-time features as a serving request carries
/// them: exactly the inputs [`ObsEncoder`] reads from a [`WaitingJob`],
/// decoupled from the borrowed [`rlsched_swf::Job`] record so the view
/// can cross a process boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotJob {
    /// Seconds the job has been waiting.
    pub wait: f64,
    /// Requested runtime bound (never the actual runtime).
    pub time_bound: f64,
    /// Requested processors.
    pub procs: u32,
    /// True when the request fits the currently free processors.
    pub can_run_now: bool,
}

impl From<WaitingJob<'_>> for SnapshotJob {
    // Runs once per waiting job per decision, from loops instantiated in
    // other crates (no LTO): without the hint it is a call each time.
    #[inline]
    fn from(w: WaitingJob<'_>) -> Self {
        SnapshotJob {
            wait: w.wait,
            time_bound: w.job.time_bound(),
            procs: w.job.procs(),
            can_run_now: w.can_run_now,
        }
    }
}

/// A serializable decision point: the owned, wire-friendly form of a
/// session's waiting jobs that a remote client sends to a policy-serving
/// tier.
///
/// `jobs` may be truncated to the encoder window (slots past `max_obsv`
/// never influence the observation); `queue_len` preserves the *full*
/// waiting-queue length so the queue-pressure feature and the
/// action-clamp bound survive the truncation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// Idle processors.
    pub free_procs: u32,
    /// Cluster size.
    pub total_procs: u32,
    /// Total waiting jobs (≥ `jobs.len()` when truncated).
    pub queue_len: u32,
    /// The observable window of waiting jobs, FCFS order.
    pub jobs: Vec<SnapshotJob>,
}

impl QueueSnapshot {
    /// Full waiting-queue length (the action-clamp bound).
    pub fn queue_len(&self) -> usize {
        self.queue_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_swf::Job;

    /// `jobs` waiting at `time` (FCFS order) with `free` of `total`
    /// processors idle, encoded.
    fn encode_at(
        e: &ObsEncoder,
        jobs: &[Job],
        time: f64,
        free: u32,
        total: u32,
    ) -> (Vec<f32>, Vec<f32>) {
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        let waiting = waiting(jobs, time, free);
        e.encode_jobs_extend(
            free,
            total,
            jobs.len(),
            waiting.into_iter(),
            &mut obs,
            &mut mask,
        );
        (obs, mask)
    }

    /// `jobs` as the session would list them at `time` with `free` idle
    /// processors.
    fn waiting(jobs: &[Job], time: f64, free: u32) -> Vec<WaitingJob<'_>> {
        jobs.iter()
            .enumerate()
            .map(|(i, job)| WaitingJob {
                job,
                job_index: i,
                wait: time - job.submit_time,
                can_run_now: job.procs() <= free,
            })
            .collect()
    }

    #[test]
    fn dims_follow_config() {
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        });
        assert_eq!(e.obs_dim(), 16 * JOB_FEATURES);
        assert_eq!(e.n_actions(), 16);
    }

    #[test]
    fn encodes_features_in_layout_order() {
        let jobs = vec![Job::new(1, 0.0, 100.0, 8, 3600.0)];
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 4,
            max_wait: 14400.0,
            max_request_time: 7200.0,
        });
        let (obs, mask) = encode_at(&e, &jobs, 7200.0, 16, 32);
        assert_eq!(obs.len(), 4 * JOB_FEATURES);
        assert!((obs[0] - 0.5).abs() < 1e-6, "wait 7200/14400");
        assert!((obs[1] - 0.5).abs() < 1e-6, "request 3600/7200");
        assert!((obs[2] - 0.25).abs() < 1e-6, "procs 8/32");
        assert_eq!(obs[3], 1.0, "fits in 16 free");
        assert!((obs[4] - 0.5).abs() < 1e-6, "free fraction");
        assert!((obs[5] - 0.25).abs() < 1e-6, "1 of 4 slots used");
        assert_eq!(obs[6], 1.0, "valid flag");
        assert_eq!(mask[0], 0.0);
        assert_eq!(mask[1], MASK_OFF);
    }

    #[test]
    fn padding_slots_are_zero_and_masked() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 1, 10.0)];
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 3,
            ..ObsConfig::default()
        });
        let (obs, mask) = encode_at(&e, &jobs, 0.0, 4, 4);
        for slot in 1..3 {
            for f in 0..JOB_FEATURES {
                assert_eq!(obs[slot * JOB_FEATURES + f], 0.0);
            }
            assert_eq!(mask[slot], MASK_OFF);
        }
    }

    #[test]
    fn overflow_is_cut_off_fcfs() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::new(i + 1, i as f64, 10.0, 1, 10.0))
            .collect();
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 3,
            ..ObsConfig::default()
        });
        let (obs, mask) = encode_at(&e, &jobs, 10.0, 4, 4);
        // All three slots valid; they are the three earliest arrivals
        // (queue order), with strictly decreasing wait times.
        assert!(mask.iter().all(|&m| m == 0.0));
        let w0 = obs[0];
        let w1 = obs[JOB_FEATURES];
        let w2 = obs[2 * JOB_FEATURES];
        assert!(w0 > w1 && w1 > w2, "waits {w0} {w1} {w2}");
    }

    #[test]
    fn normalization_caps_at_one() {
        let jobs = vec![Job::new(1, 0.0, 1e9, 1000, 1e9)];
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 2,
            ..ObsConfig::default()
        });
        let (obs, _) = encode_at(&e, &jobs, 1e9, 4, 4);
        for (f, &v) in obs.iter().enumerate().take(3) {
            assert!(v <= 1.0, "feature {f} = {v}");
        }
    }

    #[test]
    fn snapshot_encoding_is_bit_identical_to_view_encoding() {
        // The wire path (QueueSnapshot) and the in-process path
        // (the session's waiting jobs) must produce the same observation bits — that is
        // what makes remote serving decisions exactly reproducible.
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i + 1, i as f64 * 3.0, 40.0 + i as f64, 1 + i, 500.0))
            .collect();
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 4,
            ..ObsConfig::default()
        });
        let (obs, mask) = encode_at(&e, &jobs, 30.0, 5, 16);
        let snap = QueueSnapshot {
            free_procs: 5,
            total_procs: 16,
            queue_len: jobs.len() as u32,
            jobs: waiting(&jobs, 30.0, 5)
                .into_iter()
                .take(e.cfg.max_obsv)
                .map(SnapshotJob::from)
                .collect(),
        };
        assert_eq!(snap.queue_len(), 6, "full queue length survives truncation");
        assert_eq!(snap.jobs.len(), 4, "window truncated to max_obsv");
        let (mut sobs, mut smask) = (Vec::new(), Vec::new());
        e.encode_snapshot_extend(&snap, &mut sobs, &mut smask);
        assert_eq!(obs, sobs, "snapshot observation bits match the view's");
        assert_eq!(mask, smask, "snapshot mask bits match the view's");
        // …and the snapshot survives a JSON round trip with the same bits.
        let json = serde_json::to_string(&snap).unwrap();
        let back: QueueSnapshot = serde_json::from_str(&json).unwrap();
        let (mut robs, mut rmask) = (Vec::new(), Vec::new());
        e.encode_snapshot_extend(&back, &mut robs, &mut rmask);
        assert_eq!(obs, robs, "wire round trip preserves observation bits");
        assert_eq!(mask, rmask);
    }

    #[test]
    fn cannot_run_flag_when_cluster_busy() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 8, 10.0)];
        let e = ObsEncoder::new(ObsConfig {
            max_obsv: 2,
            ..ObsConfig::default()
        });
        let (obs, _) = encode_at(&e, &jobs, 0.0, 4, 16);
        assert_eq!(obs[3], 0.0, "8 procs do not fit 4 free");
    }
}
