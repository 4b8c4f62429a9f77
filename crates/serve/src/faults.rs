//! Deterministic fault injection for the serving tier.
//!
//! A [`FaultPlan`] is a script, not a dice roll: each entry names the
//! shard and the (lifetime) batch index at which the fault fires, so a
//! chaos test replays the exact same failure sequence every run. The
//! plan is installed through [`crate::ServeConfig::faults`]; the
//! server's one scoring routine calls [`FaultPlan::before_score`] right
//! before each batched forward, on whichever thread holds the shard's
//! core — a connection thread over its rows of a run scored inline, or
//! any thread over a batch from the inbox — which is where a scripted
//! panic (a poisoned model batch, a kernel bug) or stall (a page-cache
//! hiccup, a noisy neighbour) lands in a real tier.
//!
//! A scripted panic is an ordinary Rust panic — it exercises the
//! production `catch_unwind` supervision path, not a special test hook.
//! A stall sleeps in the scoring position with the shard's core locked,
//! so requests queued behind it age past their in-queue deadline.
//!
//! [`write_torn_frame`] is the client-side counterpart: it writes a
//! deliberately truncated frame (with or without the terminating
//! newline) so tests can drive the server's resync path and the
//! client's reconnect path.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::Serialize;

/// One scripted fault on one shard: a panic (`stall: None`) or a sleep
/// before scoring each of its batches `[batch, batch + times)`, keyed by
/// that shard's lifetime attempted-batch counter (batch 0 is the shard's
/// first batch, from its inbox or a run's rows scored inline; a panicked
/// attempt still advances the counter, a batch a parked shard answers by
/// fallback does not).
#[derive(Debug, Clone, Copy)]
struct ScriptedFault {
    batch: u64,
    times: u64,
    stall: Option<Duration>,
}

/// A deterministic, replayable schedule of shard faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    shards: Mutex<HashMap<usize, Vec<ScriptedFault>>>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults fire until scripted).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Script `times` consecutive panics on `shard`, starting at its
    /// `batch`-th attempted batch. `times > budget` consecutive panics
    /// drives the shard into `Failed`; fewer exercises respawn.
    pub fn panic_at(&self, shard: usize, batch: u64, times: u64) {
        self.script(shard, batch, times, None);
    }

    /// Script one `stall`-long sleep on `shard` before its `batch`-th
    /// attempted batch.
    pub fn stall_at(&self, shard: usize, batch: u64, stall: Duration) {
        self.stall_batches(shard, batch, 1, stall);
    }

    /// Script a `stall`-long sleep on `shard` before each of its
    /// attempted batches `[batch, batch + times)`: a fixed service time.
    pub fn stall_batches(&self, shard: usize, batch: u64, times: u64, stall: Duration) {
        self.script(shard, batch, times, Some(stall));
    }

    /// How many scripted faults have fired: a panic as it is raised, a
    /// stall as it begins (so a test knows a core is held in a stall).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    fn script(&self, shard: usize, batch: u64, times: u64, stall: Option<Duration>) {
        let fault = ScriptedFault {
            batch,
            times,
            stall,
        };
        self.lock().entry(shard).or_default().push(fault);
    }

    /// The scoring hook: called with the shard's lifetime batch counter
    /// immediately before every batched forward, whichever thread runs
    /// it — over a batch from the inbox, or over a connection thread's
    /// rows of a run scored inline. Panics or sleeps per the
    /// script, with the shard's core locked; a no-op for unscripted
    /// (shard, batch) pairs — and for every shard when the plan is
    /// empty, so leaving a plan installed in production config costs one
    /// map lookup.
    pub fn before_score(&self, shard: usize, batch: u64) {
        let stall = {
            let shards = self.lock();
            let Some(faults) = shards.get(&shard) else {
                return;
            };
            let mut stall = None;
            for f in faults {
                if batch < f.batch || batch - f.batch >= f.times {
                    continue;
                }
                if f.stall.is_none() {
                    self.fired.fetch_add(1, Ordering::SeqCst);
                    // The guard must drop before the unwind so a
                    // panicking shard cannot poison the plan for its
                    // siblings — but Mutex poisoning is also tolerated in
                    // lock() for belt and braces.
                    drop(shards);
                    panic!("injected fault: shard {shard} panic at batch {batch}");
                }
                stall = f.stall;
            }
            stall
        };
        if let Some(d) = stall {
            self.fired.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(d);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, Vec<ScriptedFault>>> {
        // A scripted panic unwinds through the scope that held this lock
        // only via explicit drop-before-panic above; if a future edit
        // gets that wrong, recover the map instead of cascading.
        self.shards
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Serialize `frame` as the wire would, then write only its first
/// `keep` bytes (newline included in the count). `keep` at or beyond
/// the full frame length writes the frame intact. Tests follow this
/// with a stream shutdown to model a client dying mid-write, or with a
/// valid frame to model a corrupted line the server must resync past.
pub fn write_torn_frame<T: Serialize, W: Write>(
    w: &mut W,
    frame: &T,
    keep: usize,
) -> std::io::Result<()> {
    let mut line = serde_json::to_string(frame).map_err(std::io::Error::from)?;
    line.push('\n');
    let torn = &line.as_bytes()[..keep.min(line.len())];
    w.write_all(torn)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscripted_shards_and_batches_are_untouched() {
        let plan = FaultPlan::new();
        plan.before_score(0, 0); // empty plan: no-op
        plan.panic_at(1, 5, 1);
        plan.before_score(0, 5); // other shard
        plan.before_score(1, 4); // before the window
        plan.before_score(1, 6); // after the window
    }

    #[test]
    fn scripted_panic_fires_for_exactly_its_window() {
        let plan = FaultPlan::new();
        plan.panic_at(0, 2, 2);
        plan.before_score(0, 1);
        for batch in [2, 3] {
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.before_score(0, batch)
            }));
            assert!(hit.is_err(), "batch {batch} must panic");
        }
        // The plan survives its own panics (no poisoned-lock cascade).
        plan.before_score(0, 4);
    }

    #[test]
    fn torn_frames_truncate_at_the_requested_byte() {
        let req = crate::protocol::Request::Stats { id: 7 };
        let mut full = Vec::new();
        write_torn_frame(&mut full, &req, usize::MAX).unwrap();
        assert!(full.ends_with(b"\n"));
        let mut torn = Vec::new();
        write_torn_frame(&mut torn, &req, 5).unwrap();
        assert_eq!(&torn[..], &full[..5]);
    }
}
