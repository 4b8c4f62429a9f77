//! The shard's scoring engine: encode request snapshots into one
//! stacked `[n, obs_dim]` matrix, score it through a single batched
//! forward of the snapshot's policy network, and hand back one clamped
//! action per row.
//!
//! This is the allocation-free core the network layer wraps: all
//! buffers (the stacked observations/masks, the network scratch, the
//! action row) live in the engine and only ever grow to their
//! high-water mark, so a steady-state `push_snapshot` + `flush` cycle
//! touches the heap zero times — the same discipline as `nn::infer`
//! and `nn::fused` (pinned by the alloc-regression suite).
//!
//! # Decision parity
//!
//! The engine scores through a [`ScorerSnapshot`], which holds the agent's
//! policy network and runs the forward `Agent::as_policy` runs, and the
//! forward kernels are row-count invariant — so row `i` of a coalesced batch computes
//! exactly the bits the in-process decision head would for the same
//! decision point, regardless of what else landed in the batch, which
//! shard scored it, or where the batch happened to be cut. The
//! serve parity suite pins this for every `PolicyKind`.
//!
//! # Hot swap
//!
//! An engine watches a [`ScorerSlot`]: a mutex-guarded current snapshot
//! plus a generation counter. [`ScorerSlot::swap`] installs new weights
//! atomically; each engine notices the generation bump at its next
//! flush and re-clones the `Arc` (pointer-cheap, no weight copy). A
//! batch is always scored by exactly one snapshot — requests are never
//! dropped or split across generations mid-batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rlsched_obs::{Counter, Gauge, Histogram};
use rlsched_rl::{greedy_batch, ActorScratch};
use rlscheduler::{ObsEncoder, QueueSnapshot, ScorerSnapshot};

/// The swappable weight slot shared by every shard of a server.
///
/// Besides the current snapshot the slot remembers the one it replaced,
/// so a checkpoint that passes validation but regresses the live eval
/// metric can be rolled back ([`ScorerSlot::rollback`]) without the
/// trainer re-sending the old weights.
#[derive(Debug)]
pub struct ScorerSlot {
    current: Mutex<SlotState>,
    generation: AtomicU64,
}

#[derive(Debug)]
struct SlotState {
    current: ScorerSnapshot,
    previous: Option<ScorerSnapshot>,
}

impl ScorerSlot {
    /// A slot serving `snapshot` at generation 0.
    pub fn new(snapshot: ScorerSnapshot) -> Arc<Self> {
        Arc::new(ScorerSlot {
            current: Mutex::new(SlotState {
                current: snapshot,
                previous: None,
            }),
            generation: AtomicU64::new(0),
        })
    }

    /// Install new weights. In-flight batches finish on the snapshot
    /// they started with; every later batch scores through the new one.
    /// The swap is pointer-sized work under the lock — weight matrices
    /// are shared via `Arc`, never copied. The displaced snapshot is
    /// retained for [`ScorerSlot::rollback`].
    pub fn swap(&self, snapshot: ScorerSnapshot) {
        let mut state = self.current.lock().expect("scorer slot poisoned");
        state.previous = Some(std::mem::replace(&mut state.current, snapshot));
        // The bump publishes while the lock is still held, so an engine
        // that sees the new generation always reads the new snapshot.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Restore the snapshot the last [`ScorerSlot::swap`] displaced and
    /// bump the generation (engines must re-read — their current clone
    /// is the bad one). Returns `false` (and changes nothing) when no
    /// previous generation is retained; the retained snapshot is
    /// consumed, so a second rollback without an intervening swap is a
    /// no-op rather than a ping-pong.
    pub fn rollback(&self) -> bool {
        let mut state = self.current.lock().expect("scorer slot poisoned");
        let Some(prev) = state.previous.take() else {
            return false;
        };
        state.current = prev;
        self.generation.fetch_add(1, Ordering::Release);
        true
    }

    /// Current swap generation (0 until the first swap or rollback).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clone the current snapshot (an `Arc` bump, not a weight copy).
    pub fn snapshot(&self) -> ScorerSnapshot {
        self.current
            .lock()
            .expect("scorer slot poisoned")
            .current
            .clone()
    }
}

/// Registry handles an instrumented engine records into at every
/// non-empty flush. All handles are `rlsched-obs` atomics: recording is
/// a few relaxed RMWs, zero allocations (pinned in `alloc_regression`),
/// and `tests/obs_overhead.rs` bounds the whole-cycle cost within 2%
/// of an uninstrumented engine.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Rows scored (each becomes one `served_by: Model` reply).
    pub rows: Counter,
    /// Batched forwards dispatched.
    pub batches: Counter,
    /// Coalesced batch size distribution.
    pub batch_rows: Histogram,
    /// Largest batch so far.
    pub batch_max: Gauge,
}

/// A shard's coalescing batch scorer. See the module docs.
pub struct ShardEngine {
    slot: Arc<ScorerSlot>,
    scorer: ScorerSnapshot,
    seen_generation: u64,
    batch_cap: usize,
    obs: Vec<f32>,
    masks: Vec<f32>,
    /// Each pending row's queue length: its action's clamp bound.
    queue_lens: Vec<usize>,
    scratch: ActorScratch,
    metrics: Option<EngineMetrics>,
}

impl ShardEngine {
    /// An engine scoring through `slot`, flushing at `batch_cap` rows.
    pub fn new(slot: Arc<ScorerSlot>, batch_cap: usize) -> Self {
        assert!(batch_cap > 0, "batch cap must be at least one request");
        let scorer = slot.snapshot();
        let seen_generation = slot.generation();
        ShardEngine {
            slot,
            scorer,
            seen_generation,
            batch_cap,
            obs: Vec::new(),
            masks: Vec::new(),
            queue_lens: Vec::new(),
            scratch: ActorScratch::new(),
            metrics: None,
        }
    }

    /// Attach registry handles; every later non-empty flush records
    /// batch count, row count, and the batch-size distribution. The
    /// handles share storage with their registry, so a respawned
    /// shard's fresh engine keeps the counters monotone.
    pub fn instrument(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// Rows waiting in the current batch.
    pub fn pending(&self) -> usize {
        self.queue_lens.len()
    }

    /// True when the batch reached its cap and must flush before the
    /// next push.
    pub fn is_full(&self) -> bool {
        self.queue_lens.len() >= self.batch_cap
    }

    /// Encode a [`QueueSnapshot`] straight into the stacked matrices
    /// (no intermediate row buffer) and append it. The snapshot's full
    /// `queue_len` is the row's action-clamp bound in [`greedy_batch`],
    /// as `Agent::as_policy` passes it. Panics when the encoder's window
    /// mismatches the scorer or the batch is already full — the server
    /// validates requests before they reach the engine.
    pub fn push_snapshot(&mut self, snap: &QueueSnapshot, encoder: &ObsEncoder) {
        assert!(!self.is_full(), "push into a full batch (flush first)");
        assert_eq!(
            encoder.obs_dim(),
            self.scorer.obs_dim(),
            "encoder window must match the scorer"
        );
        encoder.encode_snapshot_extend(snap, &mut self.obs, &mut self.masks);
        self.queue_lens.push(snap.queue_len());
    }

    /// Score every pending row through one batched forward and return
    /// the clamped actions in push order. Empties the batch. Returns an
    /// empty slice when nothing is pending.
    ///
    /// Picks up a hot-swapped snapshot first, so a batch is scored
    /// entirely by one weight generation.
    pub fn flush(&mut self) -> &[usize] {
        if self.slot.generation() != self.seen_generation {
            // Record the generation *before* taking the snapshot: a swap
            // racing this window can only make the recorded generation
            // stale, which costs one redundant re-clone at the next
            // flush — never a missed swap.
            self.seen_generation = self.slot.generation();
            self.scorer = self.slot.snapshot();
        }
        let rows = self.queue_lens.len();
        if rows == 0 {
            return &[];
        }
        if let Some(m) = &self.metrics {
            m.batches.inc();
            m.rows.add(rows as u64);
            m.batch_rows.record_value(rows as u64);
            m.batch_max.set_max(rows as f64);
        }
        let actions = greedy_batch(
            self.scorer.net(),
            &self.obs,
            &self.masks,
            &self.queue_lens,
            &mut self.scratch,
        );
        self.obs.clear();
        self.masks.clear();
        self.queue_lens.clear();
        actions
    }
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("pending", &self.queue_lens.len())
            .field("batch_cap", &self.batch_cap)
            .field("generation", &self.seen_generation)
            .finish()
    }
}
