//! Owned job traces: slicing, windowing and sequence sampling.
//!
//! The paper trains on random *sequences* of 256 consecutive jobs and
//! evaluates on sequences of 1024 consecutive jobs sampled from the first
//! 10K jobs of each trace (§V-A, §V-C2). [`SequenceSampler`] implements that
//! protocol; the same sampled offsets are reused across schedulers so that
//! comparisons are paired, exactly as the paper does ("across different
//! scheduling algorithms, we used the same 10 random job sequences").

use crate::job::Job;
use crate::parse::SwfHeader;
use crate::SwfError;

/// An owned trace: a list of jobs (sorted by submit time) plus the cluster
/// size it was recorded on.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    jobs: Vec<Job>,
    max_procs: u32,
    header: SwfHeader,
}

impl JobTrace {
    /// Build a trace from jobs and a cluster size. Jobs are sorted by submit
    /// time (stable, so equal-time jobs keep trace order; a `NaN` submit,
    /// which an SWF line can spell, sorts last). Records are kept
    /// verbatim — including `-1` unknown markers — so that parse/write round
    /// trips are lossless; call [`JobTrace::sanitized`] before simulating.
    pub fn new(jobs: Vec<Job>, max_procs: u32) -> Self {
        Self::with_header(jobs, max_procs, SwfHeader::default())
    }

    /// Like [`JobTrace::new`] but keeps parsed header metadata.
    pub fn with_header(mut jobs: Vec<Job>, max_procs: u32, header: SwfHeader) -> Self {
        jobs.sort_by(|a, b| {
            let (x, y) = (a.submit_time, b.submit_time);
            x.partial_cmp(&y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        });
        JobTrace {
            jobs,
            max_procs: max_procs.max(1),
            header,
        }
    }

    /// Drop unschedulable records and normalize unknown markers, producing a
    /// trace safe for simulation (see [`Job::sanitized`]).
    pub fn sanitized(&self) -> JobTrace {
        JobTrace {
            jobs: self
                .jobs
                .iter()
                .filter(|j| j.is_schedulable())
                .map(|j| j.sanitized())
                .collect(),
            max_procs: self.max_procs,
            header: self.header.clone(),
        }
    }

    /// The jobs, ordered by submit time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total processors of the cluster this trace targets.
    pub fn max_procs(&self) -> u32 {
        self.max_procs
    }

    /// Parsed SWF header metadata.
    pub fn header(&self) -> &SwfHeader {
        &self.header
    }

    /// Keep only the first `n` jobs (the paper uses the first 10K jobs of
    /// every trace, §V-A).
    pub fn truncated(&self, n: usize) -> JobTrace {
        JobTrace {
            jobs: self.jobs.iter().take(n).cloned().collect(),
            max_procs: self.max_procs,
            header: self.header.clone(),
        }
    }

    /// A window of `len` consecutive jobs starting at job index `start`,
    /// with submit times shifted so the first job arrives at t=0.
    ///
    /// Shifting makes every sampled sequence start from an idle cluster at
    /// time zero, which is how SchedGym replays sequences ("starting from an
    /// idle cluster, it loads jobs from job trace one by one", §IV-D).
    pub fn window(&self, start: usize, len: usize) -> Result<JobTrace, SwfError> {
        if start >= self.jobs.len() || start + len > self.jobs.len() {
            return Err(SwfError::Invalid {
                job: None,
                reason: format!(
                    "window [{start}, {}) out of range for trace of {} jobs",
                    start + len,
                    self.jobs.len()
                ),
            });
        }
        let t0 = self.jobs[start].submit_time;
        let jobs = self.jobs[start..start + len]
            .iter()
            .map(|j| {
                let mut j = j.clone();
                j.submit_time -= t0;
                j
            })
            .collect();
        Ok(JobTrace {
            jobs,
            max_procs: self.max_procs,
            header: self.header.clone(),
        })
    }

    /// Jobs that request more processors than the cluster has cannot ever be
    /// scheduled; clamp them to the cluster size (archives contain a handful
    /// of such records; the reference simulator does the same).
    pub fn clamp_to_cluster(&self) -> JobTrace {
        let mut t = self.clone();
        for j in &mut t.jobs {
            if j.procs() > t.max_procs {
                j.requested_procs = t.max_procs as i64;
            }
        }
        t
    }

    /// Distinct user ids appearing in the trace (for fairness experiments).
    pub fn users(&self) -> Vec<i64> {
        let mut users: Vec<i64> = self.jobs.iter().map(|j| j.user_id).collect();
        users.sort_unstable();
        users.dedup();
        users
    }
}

/// Samples fixed-length windows of consecutive jobs at random offsets,
/// reproducibly from a caller-provided RNG-like seed sequence.
///
/// Randomness is injected as raw `u64` draws so this crate stays free of a
/// rand dependency; callers pass a closure (see `sample_offsets_with`).
#[derive(Debug, Clone)]
pub struct SequenceSampler {
    trace_len: usize,
    seq_len: usize,
}

impl SequenceSampler {
    /// A sampler for sequences of `seq_len` jobs out of a trace of
    /// `trace_len` jobs.
    pub fn new(trace_len: usize, seq_len: usize) -> Result<Self, SwfError> {
        if seq_len == 0 || seq_len > trace_len {
            return Err(SwfError::Invalid {
                job: None,
                reason: format!(
                    "cannot sample sequences of {seq_len} jobs from a trace of {trace_len}"
                ),
            });
        }
        Ok(SequenceSampler { trace_len, seq_len })
    }

    /// Number of valid starting offsets.
    pub fn offset_count(&self) -> usize {
        self.trace_len - self.seq_len + 1
    }

    /// Map a raw random draw onto a valid starting offset.
    pub fn offset_from_draw(&self, draw: u64) -> usize {
        (draw % self.offset_count() as u64) as usize
    }

    /// Draw `n` offsets using the provided source of raw randomness.
    pub fn sample_offsets_with<F: FnMut() -> u64>(&self, n: usize, mut draw: F) -> Vec<usize> {
        (0..n).map(|_| self.offset_from_draw(draw())).collect()
    }

    /// The configured sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace(n: usize) -> JobTrace {
        let jobs = (0..n)
            .map(|i| Job::new(i as u32 + 1, i as f64 * 10.0, 5.0, 2, 8.0))
            .collect();
        JobTrace::new(jobs, 64)
    }

    #[test]
    fn new_sorts_by_submit_time() {
        let jobs = vec![
            Job::new(2, 50.0, 1.0, 1, 1.0),
            Job::new(1, 10.0, 1.0, 1, 1.0),
        ];
        let t = JobTrace::new(jobs, 4);
        assert_eq!(t.jobs()[0].id, 1);
        assert_eq!(t.jobs()[1].id, 2);
    }

    #[test]
    fn a_nan_submit_sorts_last_instead_of_panicking() {
        let jobs = vec![
            Job::new(1, f64::NAN, 1.0, 1, 1.0),
            Job::new(2, 50.0, 1.0, 1, 1.0),
            Job::new(3, f64::NAN, 1.0, 1, 1.0),
            Job::new(4, 10.0, 1.0, 1, 1.0),
        ];
        let ids: Vec<u32> = JobTrace::new(jobs, 4).jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, [4, 2, 1, 3]);
    }

    #[test]
    fn window_shifts_to_zero() {
        let t = mk_trace(10);
        let w = t.window(3, 4).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w.jobs()[0].submit_time, 0.0);
        assert_eq!(w.jobs()[1].submit_time, 10.0);
        assert_eq!(w.jobs()[0].id, 4);
    }

    #[test]
    fn window_out_of_range_errors() {
        let t = mk_trace(10);
        assert!(t.window(8, 4).is_err());
        assert!(t.window(10, 1).is_err());
        assert!(t.window(0, 11).is_err());
    }

    #[test]
    fn window_at_exact_end_is_ok() {
        let t = mk_trace(10);
        let w = t.window(6, 4).unwrap();
        assert_eq!(w.jobs().last().unwrap().id, 10);
    }

    #[test]
    fn truncated_takes_prefix() {
        let t = mk_trace(10).truncated(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.jobs()[2].id, 3);
    }

    #[test]
    fn clamp_to_cluster_caps_oversized_requests() {
        let jobs = vec![Job::new(1, 0.0, 1.0, 1000, 1.0)];
        let t = JobTrace::new(jobs, 64).clamp_to_cluster();
        assert_eq!(t.jobs()[0].procs(), 64);
    }

    #[test]
    fn users_are_deduped_sorted() {
        let jobs = vec![
            Job::new(1, 0.0, 1.0, 1, 1.0).with_user(5),
            Job::new(2, 1.0, 1.0, 1, 1.0).with_user(3),
            Job::new(3, 2.0, 1.0, 1, 1.0).with_user(5),
        ];
        let t = JobTrace::new(jobs, 4);
        assert_eq!(t.users(), vec![3, 5]);
    }

    #[test]
    fn sampler_rejects_bad_lengths() {
        assert!(SequenceSampler::new(10, 0).is_err());
        assert!(SequenceSampler::new(10, 11).is_err());
        assert!(SequenceSampler::new(10, 10).is_ok());
    }

    #[test]
    fn sampler_offsets_in_range() {
        let s = SequenceSampler::new(100, 30).unwrap();
        assert_eq!(s.offset_count(), 71);
        let mut x = 0u64;
        let offs = s.sample_offsets_with(50, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert!(offs.iter().all(|&o| o + 30 <= 100));
    }

    #[test]
    fn sanitized_drops_unschedulable_jobs() {
        let mut bad = Job::new(1, 0.0, -1.0, 1, 1.0);
        bad.run_time = -1.0;
        bad.requested_procs = -1;
        bad.used_procs = -1;
        let ok = Job::new(2, 0.0, 5.0, 1, 5.0);
        let t = JobTrace::new(vec![bad, ok], 4);
        assert_eq!(t.len(), 2, "construction is lossless");
        let s = t.sanitized();
        assert_eq!(s.len(), 1);
        assert_eq!(s.jobs()[0].id, 2);
    }

    #[test]
    fn sanitized_normalizes_markers() {
        let mut j = Job::new(1, 0.0, 0.0, 2, -1.0);
        j.used_procs = -1;
        let s = JobTrace::new(vec![j], 4).sanitized();
        assert_eq!(s.jobs()[0].run_time, 1.0);
        assert_eq!(s.jobs()[0].requested_time, 1.0);
        assert_eq!(s.jobs()[0].used_procs, 2);
    }
}
