//! The batch-job record: the 18 fields of the Standard Workload Format,
//! with the semantics the scheduler and simulator rely on.
//!
//! Two fields deserve special care because the whole paper hinges on the
//! distinction:
//!
//! * [`Job::run_time`] — the *actual* runtime, known only to the simulator
//!   (SchedGym replays it when a job finishes).
//! * [`Job::requested_time`] — the user's runtime estimate / upper bound.
//!   This is the only runtime information a scheduler may look at; SJF, F1
//!   and the RL observation encoder all consume `requested_time`.

use serde::{Deserialize, Serialize};

/// Completion status of a job as recorded in an SWF trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Job failed.
    Failed,
    /// Job completed normally.
    Completed,
    /// Partial execution, will be continued (status 2/3 in SWF).
    Partial,
    /// Job was cancelled.
    Cancelled,
    /// Status not recorded (-1 in SWF).
    Unknown,
}

impl JobStatus {
    /// Decode the SWF status field.
    pub fn from_swf(v: i64) -> Self {
        match v {
            0 => JobStatus::Failed,
            1 => JobStatus::Completed,
            2 | 3 => JobStatus::Partial,
            5 => JobStatus::Cancelled,
            _ => JobStatus::Unknown,
        }
    }

    /// Encode back to the SWF status field.
    pub fn to_swf(self) -> i64 {
        match self {
            JobStatus::Failed => 0,
            JobStatus::Completed => 1,
            JobStatus::Partial => 2,
            JobStatus::Cancelled => 5,
            JobStatus::Unknown => -1,
        }
    }
}

/// A single batch job (one SWF record).
///
/// Times are in seconds relative to the trace start; `-1` ("unknown") values
/// from SWF are normalized by [`Job::sanitized`] before the simulator uses
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// SWF field 1: job number (1-based in archives; we keep it verbatim).
    pub id: u32,
    /// SWF field 2: submit time in seconds since trace start.
    pub submit_time: f64,
    /// SWF field 3: wait time recorded in the original trace (informational;
    /// the simulator recomputes waits from its own schedule).
    pub trace_wait_time: f64,
    /// SWF field 4: actual runtime in seconds. Simulator-only knowledge.
    pub run_time: f64,
    /// SWF field 5: number of allocated processors in the original run.
    pub used_procs: i64,
    /// SWF field 6: average CPU time used per processor.
    pub avg_cpu_time: f64,
    /// SWF field 7: used memory per processor (KB).
    pub used_memory: f64,
    /// SWF field 8: requested number of processors.
    pub requested_procs: i64,
    /// SWF field 9: requested (estimated upper bound) runtime in seconds.
    pub requested_time: f64,
    /// SWF field 10: requested memory per processor (KB).
    pub requested_memory: f64,
    /// SWF field 11: completion status.
    pub status: JobStatus,
    /// SWF field 12: user id.
    pub user_id: i64,
    /// SWF field 13: group id.
    pub group_id: i64,
    /// SWF field 14: executable (application) number.
    pub executable_id: i64,
    /// SWF field 15: queue number.
    pub queue_id: i64,
    /// SWF field 16: partition number.
    pub partition_id: i64,
    /// SWF field 17: preceding job number (-1 if none).
    pub preceding_job: i64,
    /// SWF field 18: think time from preceding job.
    pub think_time: f64,
}

impl Job {
    /// A minimal job for tests and synthetic generation: everything else is
    /// "unknown" per SWF conventions.
    pub fn new(id: u32, submit_time: f64, run_time: f64, procs: u32, requested_time: f64) -> Self {
        Job {
            id,
            submit_time,
            trace_wait_time: -1.0,
            run_time,
            used_procs: procs as i64,
            avg_cpu_time: -1.0,
            used_memory: -1.0,
            requested_procs: procs as i64,
            requested_time,
            requested_memory: -1.0,
            status: JobStatus::Completed,
            user_id: -1,
            group_id: -1,
            executable_id: -1,
            queue_id: -1,
            partition_id: -1,
            preceding_job: -1,
            think_time: -1.0,
        }
    }

    /// Set the user id (builder style; used by generators with user models).
    pub fn with_user(mut self, user: u32) -> Self {
        self.user_id = user as i64;
        self
    }

    /// The processor count the *scheduler* must provision: requested procs,
    /// falling back to allocated procs when the request is unrecorded.
    /// Always at least 1 (and at most `u32::MAX`, not a wrapped remainder).
    pub fn procs(&self) -> u32 {
        let p = if self.requested_procs > 0 {
            self.requested_procs
        } else {
            self.used_procs
        };
        p.clamp(1, i64::from(u32::MAX)) as u32
    }

    /// The runtime bound the *scheduler* may use: the user estimate, falling
    /// back to the actual runtime when no estimate was recorded (standard
    /// practice when replaying archive traces). Always at least 1 second so
    /// that priority functions dividing by it are well defined.
    pub fn time_bound(&self) -> f64 {
        let t = if self.requested_time > 0.0 {
            self.requested_time
        } else {
            self.run_time
        };
        t.max(1.0)
    }

    /// Actual runtime clamped to at least one second (SWF records zero-length
    /// jobs; a zero runtime breaks slowdown metrics and event ordering).
    pub fn actual_runtime(&self) -> f64 {
        self.run_time.max(1.0)
    }

    /// Normalize "unknown" (-1) markers into usable values and clamp
    /// non-positive runtimes, returning a record safe for simulation.
    pub fn sanitized(&self) -> Job {
        let mut j = self.clone();
        j.requested_procs = self.procs() as i64;
        if j.used_procs <= 0 {
            j.used_procs = j.requested_procs;
        }
        j.requested_time = self.time_bound();
        j.run_time = self.actual_runtime();
        if j.submit_time < 0.0 {
            j.submit_time = 0.0;
        }
        j
    }

    /// True when the record can be scheduled at all (positive runtime and
    /// processor request after sanitization).
    pub fn is_schedulable(&self) -> bool {
        self.run_time >= 0.0 && (self.requested_procs > 0 || self.used_procs > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trip() {
        for s in [
            JobStatus::Failed,
            JobStatus::Completed,
            JobStatus::Partial,
            JobStatus::Cancelled,
            JobStatus::Unknown,
        ] {
            assert_eq!(JobStatus::from_swf(s.to_swf()), s);
        }
    }

    #[test]
    fn status_decodes_3_as_partial() {
        assert_eq!(JobStatus::from_swf(3), JobStatus::Partial);
    }

    #[test]
    fn procs_prefers_requested() {
        let mut j = Job::new(1, 0.0, 10.0, 4, 20.0);
        j.used_procs = 8;
        assert_eq!(j.procs(), 4);
    }

    #[test]
    fn procs_falls_back_to_used() {
        let mut j = Job::new(1, 0.0, 10.0, 4, 20.0);
        j.requested_procs = -1;
        j.used_procs = 8;
        assert_eq!(j.procs(), 8);
    }

    #[test]
    fn procs_is_at_least_one() {
        let mut j = Job::new(1, 0.0, 10.0, 1, 20.0);
        j.requested_procs = -1;
        j.used_procs = -1;
        assert_eq!(j.procs(), 1);
    }

    #[test]
    fn procs_saturates_instead_of_wrapping() {
        let mut j = Job::new(1, 0.0, 10.0, 1, 20.0);
        j.requested_procs = 1 << 53;
        assert_eq!(j.procs(), u32::MAX);
    }

    #[test]
    fn time_bound_prefers_estimate_and_clamps() {
        let j = Job::new(1, 0.0, 10.0, 1, 20.0);
        assert_eq!(j.time_bound(), 20.0);
        let mut j = Job::new(1, 0.0, 10.0, 1, -1.0);
        assert_eq!(j.time_bound(), 10.0);
        j.run_time = 0.0;
        assert_eq!(j.time_bound(), 1.0);
    }

    #[test]
    fn sanitized_fixes_unknowns() {
        let mut j = Job::new(7, -5.0, 0.0, 2, -1.0);
        j.used_procs = -1;
        let s = j.sanitized();
        assert_eq!(s.submit_time, 0.0);
        assert_eq!(s.run_time, 1.0);
        assert_eq!(s.requested_procs, 2);
        assert_eq!(s.used_procs, 2);
        assert_eq!(s.requested_time, 1.0);
    }

    #[test]
    fn with_user_sets_user() {
        let j = Job::new(1, 0.0, 1.0, 1, 1.0).with_user(42);
        assert_eq!(j.user_id, 42);
    }
}
