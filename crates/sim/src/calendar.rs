//! The wait-queue "event calendar".
//!
//! The session keeps the waiting jobs in FCFS (arrival) order and addresses
//! them by *rank* — the position a policy sees. A plain `Vec<usize>` would
//! do that, but `remove(pos)` shifts the tail, so EASY backfilling over a
//! deep queue (100k+ waiting jobs in a trace-scale replay) degrades to O(n)
//! per removal and O(n²) per pass.
//!
//! [`IndexedQueue`] is an append-only slot array with a Fenwick tree over
//! the live flags: rank→slot lookup and removal are O(log n), pushes are
//! amortized O(1), and dead slots are compacted in place (no allocation in
//! steady state) once they outnumber the live ones. It presents the queue
//! exactly as the `Vec` would — the unit and calendar-parity tests hold it
//! to one, operation for operation.
//!
//! [`IndexedQueue`] also stamps every push with a strictly increasing
//! *ordinal* — a name for the entry that, unlike its rank, does not change
//! as earlier entries leave and, unlike its job index, is never reused.
//! [`IndexedQueue::rank_of_ord`] turns an ordinal back into the entry's
//! current rank in O(log n), or `None` once the entry was removed: what an
//! ordering kept *beside* the queue (the session's ranked head) needs to
//! find its minimum in the queue and to recognise stale entries.
//!
//! # The backfill index
//!
//! EASY backfilling asks one question over and over: *which is the first
//! waiting job, in FCFS order, that fits the idle processors and whose
//! request ends by the reservation's shadow time?* A queue built by
//! [`IndexedQueue::with_first_fit`] answers it with
//! [`IndexedQueue::first_fit`] instead of a walk over every rank.
//!
//! * **What a node holds.** An implicit segment tree over the slot array
//!   (node `k` has children `2k` and `2k + 1`, slot `i` is leaf `cap + i`);
//!   a leaf holds its entry's `(procs, time_bound)` as given to
//!   [`IndexedQueue::push_fit`], an inner node the smallest `procs` and the
//!   smallest `time_bound` among the live slots below it — two independent
//!   minima, usually of two different jobs. Dead and unused leaves hold
//!   `(u64::MAX, +∞)`.
//! * **Why pruning is exact.** A job starts iff `procs ≤ free` and
//!   `time + time_bound ≤ shadow`. Floating-point addition is monotone
//!   (`x ≤ y ⇒ fl(t + x) ≤ fl(t + y)`), so when a node's minima fail that
//!   test every job below it fails it too, and the subtree is skipped. The
//!   test is evaluated with the scan's own expression and operand order at
//!   leaf and inner node alike — never rearranged into
//!   `time_bound ≤ shadow − time`, which rounds differently — so the first
//!   leaf the left-to-right descent accepts is the first job the scan would
//!   have started. The predicate has two dimensions: a node whose minima
//!   pass may still hold no job that passes both, and the descent then
//!   backs out of it. That costs time, never correctness, and a pass that
//!   starts nothing because nothing is small enough, or nothing short
//!   enough, is one comparison at the root.
//! * **Who maintains it.** Only a queue constructed `with_first_fit`, fed
//!   through `push_fit`: a session under EASY. A queue built
//!   `with_capacity` and fed by `push` carries no index and pays nothing
//!   for one. The index lives in this struct, beside the Fenwick tree
//!   rather than instead of it, because compaction renumbers slots for
//!   both, while rank ↔ slot — the decision head's hot path — stays a walk
//!   over 4-byte counters. It grows by doubling, is re-derived on
//!   compaction over the slots that were in use (not over a capacity left
//!   behind by an old peak), and costs two 16-byte nodes per slot of
//!   capacity.

/// Dead slots tolerated beyond the live count before an in-place compaction.
/// The slack keeps tiny queues from compacting on every removal.
const COMPACT_SLACK: usize = 64;

/// One node of the backfill index: the smallest processor request and the
/// smallest runtime bound among the live slots under it (for a leaf, its
/// entry's own). `procs` is a `u64` so that the dead marker exceeds every
/// request a `u32` can express; the node is 16 bytes either way.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fit {
    bound: f64,
    procs: u64,
}

impl Fit {
    /// A dead or unused slot: below no threshold, neutral under `min`.
    const DEAD: Fit = Fit {
        bound: f64::INFINITY,
        procs: u64::MAX,
    };

    /// Bounds are never NaN (`Job::time_bound` clamps with `max(1.0)`), so
    /// `f64::min` is the plain minimum.
    fn min(self, other: Fit) -> Fit {
        Fit {
            bound: self.bound.min(other.bound),
            procs: self.procs.min(other.procs),
        }
    }

    /// The backfill rule, in the scan's own expression and operand order.
    fn admits(self, free_procs: u32, time: f64, shadow: f64) -> bool {
        self.procs <= free_procs as u64 && time + self.bound <= shadow
    }
}

/// The backfill index: an implicit segment tree of [`Fit`] minima over the
/// queue's slots. `nodes[1]` is the root, node `k` has children `2k` and
/// `2k + 1`, and slot `i` is leaf `cap + i` where `cap = nodes.len() / 2`
/// is a power of two.
#[derive(Debug, Clone)]
struct FitIndex {
    nodes: Vec<Fit>,
}

impl FitIndex {
    fn with_capacity(cap: usize) -> Self {
        FitIndex {
            nodes: vec![Fit::DEAD; 2 * cap.max(1).next_power_of_two()],
        }
    }

    fn cap(&self) -> usize {
        self.nodes.len() / 2
    }

    /// Recompute every ancestor of leaves `0..n` from its children.
    fn rederive(&mut self, n: usize) {
        let (mut lo, mut hi) = (self.cap(), self.cap() + n);
        while lo > 1 {
            lo /= 2;
            hi = hi.div_ceil(2);
            for k in lo..hi {
                self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
            }
        }
    }

    /// Twice the leaves, once every one of them is in use. Out of line:
    /// `set` is inlined into the admission path of every replay.
    #[cold]
    fn double(&mut self) {
        let old = self.cap();
        let mut nodes = vec![Fit::DEAD; 4 * old];
        nodes[2 * old..3 * old].copy_from_slice(&self.nodes[old..]);
        self.nodes = nodes;
        self.rederive(old);
    }

    /// Fill in the leaf of `slot`, the first unused one (`slot` slots are
    /// in use), doubling the tree when it is full.
    fn set(&mut self, slot: usize, fit: Fit) {
        if slot == self.cap() {
            self.double();
        }
        // The leaf was dead, so every minimum above it can only fall, and
        // above the first one that does not, none does.
        let mut k = self.cap() + slot;
        while k > 0 {
            let lowered = self.nodes[k].min(fit);
            if lowered == self.nodes[k] {
                break;
            }
            self.nodes[k] = lowered;
            k /= 2;
        }
    }

    /// Mark the leaf of `slot` dead.
    fn clear(&mut self, slot: usize) {
        let mut k = self.cap() + slot;
        self.nodes[k] = Fit::DEAD;
        while k > 1 {
            k /= 2;
            let derived = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
            if derived == self.nodes[k] {
                break;
            }
            self.nodes[k] = derived;
        }
    }

    /// Follow the slot array's compaction: the leaves of live slots move
    /// down in order, the rest of `0..live.len()` dies.
    fn compact(&mut self, live: &[bool]) {
        let cap = self.cap();
        let mut w = 0;
        for (r, &is_live) in live.iter().enumerate() {
            if is_live {
                self.nodes[cap + w] = self.nodes[cap + r];
                w += 1;
            }
        }
        self.nodes[cap + w..cap + live.len()].fill(Fit::DEAD);
        self.rederive(live.len());
    }

    /// The first slot at or after `start` whose entry the rule admits: a
    /// left-to-right walk over the tree that enters a subtree only if its
    /// minima pass and skips it otherwise.
    fn first_from(&self, start: usize, free_procs: u32, time: f64, shadow: f64) -> Option<usize> {
        let cap = self.cap();
        debug_assert!(start < cap, "a slot in use has a leaf");
        // The largest subtree whose leftmost leaf is `start` (the root when
        // `start` is 0): everything visited from here on lies at or after it.
        let mut k = cap + start;
        k >>= k.trailing_zeros();
        loop {
            if self.nodes[k].admits(free_procs, time, shadow) {
                if k >= cap {
                    return Some(k - cap);
                }
                k *= 2;
            } else {
                // Done with k's subtree: climb while k is a right child,
                // then step to the sibling on the right. Off the top of
                // the rightmost spine there is nothing left.
                k >>= k.trailing_ones();
                if k == 0 {
                    return None;
                }
                k += 1;
            }
        }
    }
}

/// Indexed calendar: an append-only slot array plus a Fenwick (binary
/// indexed) tree counting live slots, giving O(log n) rank→slot selection
/// and removal while preserving FCFS order.
///
/// Removal only clears a live flag; slots are reclaimed by an occasional
/// in-place compaction (when `dead > live + 64`), so memory is bounded by
/// roughly twice the peak live queue depth and the steady state allocates
/// nothing once capacities have warmed up.
#[derive(Debug, Clone, Default)]
pub struct IndexedQueue {
    /// Job indices in arrival order; dead entries linger until compaction.
    slots: Vec<usize>,
    /// `live[i]` is true while `slots[i]` is still queued.
    live: Vec<bool>,
    /// `ords[i]` is the push ordinal of `slots[i]`: strictly increasing, so
    /// an ordinal is found again by binary search.
    ords: Vec<u64>,
    /// The ordinal the next push gets.
    next_ord: u64,
    /// 1-based Fenwick tree over the live flags; `tree[0]` is unused.
    tree: Vec<u32>,
    n_live: usize,
    /// The backfill index, for a queue built by
    /// [`IndexedQueue::with_first_fit`]; `None` everywhere else.
    fit: Option<FitIndex>,
}

impl IndexedQueue {
    /// Sum of live flags in `slots[0..k]` (`k` is a 1-based Fenwick index).
    fn prefix(&self, mut k: usize) -> u32 {
        let mut s = 0;
        while k > 0 {
            s += self.tree[k];
            k -= k & k.wrapping_neg();
        }
        s
    }

    /// Physical slot (0-based) of the `rank`-th live entry (0-based rank).
    /// Classic Fenwick select: descend the implicit tree.
    fn select(&self, rank: usize) -> usize {
        debug_assert!(rank < self.n_live);
        let n = self.slots.len();
        let mut want = rank as u32 + 1; // 1-based count of live slots to pass
        let mut pos = 0usize; // 1-based Fenwick position reached so far
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] < want {
                want -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 1-based pos of the last index with prefix < target == 0-based slot
    }

    /// An empty queue with room for roughly `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        IndexedQueue {
            slots: Vec::with_capacity(cap),
            live: Vec::with_capacity(cap),
            ords: Vec::with_capacity(cap),
            next_ord: 0,
            tree: Vec::with_capacity(cap + 1),
            n_live: 0,
            fit: None,
        }
    }

    /// An empty queue with room for roughly `cap` entries that also keeps
    /// the backfill index (see the module docs). Every entry of such a
    /// queue must arrive through [`IndexedQueue::push_fit`].
    pub fn with_first_fit(cap: usize) -> Self {
        IndexedQueue {
            fit: Some(FitIndex::with_capacity(cap)),
            ..Self::with_capacity(cap)
        }
    }

    /// Append a job index at the back and return its push ordinal.
    pub fn push(&mut self, job_index: usize) -> u64 {
        debug_assert!(self.fit.is_none(), "a first-fit queue is fed by push_fit");
        self.append(job_index)
    }

    /// [`IndexedQueue::push`] for a queue built by
    /// [`IndexedQueue::with_first_fit`]: also records the two constants of
    /// the entry's job that the backfill rule reads.
    pub fn push_fit(&mut self, job_index: usize, procs: u32, time_bound: f64) -> u64 {
        let ord = self.append(job_index);
        let fit = self.fit.as_mut().expect("queue built with_first_fit");
        fit.set(
            self.slots.len() - 1,
            Fit {
                bound: time_bound,
                procs: procs as u64,
            },
        );
        ord
    }

    /// Rank of the first entry at rank `from` or later whose job fits
    /// `free_procs` processors and, started at `time`, is due by `shadow`:
    /// `procs ≤ free_procs && time + time_bound ≤ shadow`, exactly as a scan
    /// of the ranks in order would evaluate it. `None` when there is none.
    /// Panics on a queue not built by [`IndexedQueue::with_first_fit`].
    pub fn first_fit(&self, from: usize, free_procs: u32, time: f64, shadow: f64) -> Option<usize> {
        let fit = self.fit.as_ref().expect("queue built with_first_fit");
        if from >= self.n_live {
            return None;
        }
        // Rank 0 needs no Fenwick descent: dead slots before the first live
        // one are refused like any other, and most passes end at the root.
        let start = if from == 0 { 0 } else { self.select(from) };
        let slot = fit.first_from(start, free_procs, time, shadow)?;
        debug_assert!(self.live[slot]);
        Some(self.prefix(slot) as usize)
    }

    fn append(&mut self, job_index: usize) -> u64 {
        if self.tree.is_empty() {
            self.tree.push(0);
        }
        let ord = self.next_ord;
        self.next_ord += 1;
        self.slots.push(job_index);
        self.live.push(true);
        self.ords.push(ord);
        self.n_live += 1;
        // Appending Fenwick node i: it covers slots (i - lowbit(i), i], all
        // already final, so its value is 1 (the new slot) plus the live
        // count of the rest of its range.
        let i = self.slots.len();
        let low = i & i.wrapping_neg();
        let range_rest = self.prefix(i - 1) - self.prefix(i - low);
        self.tree.push(1 + range_rest);
        ord
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// True when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// The job index at `rank` (0-based FCFS position), if any.
    pub fn get(&self, rank: usize) -> Option<usize> {
        if rank >= self.n_live {
            return None;
        }
        Some(self.slots[self.select(rank)])
    }

    /// Remove and return the job index at `rank`. Panics when out of range.
    pub fn remove_at(&mut self, rank: usize) -> usize {
        assert!(rank < self.n_live, "rank {rank} out of {}", self.n_live);
        let slot = self.select(rank);
        let job_index = self.slots[slot];
        self.live[slot] = false;
        self.n_live -= 1;
        let n = self.slots.len();
        let mut i = slot + 1;
        while i <= n {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        if let Some(fit) = &mut self.fit {
            fit.clear(slot);
        }
        if n - self.n_live > self.n_live + COMPACT_SLACK {
            self.compact();
        }
        job_index
    }

    /// Walk the queued job indices in FCFS order.
    pub fn iter(&self) -> IndexedIter<'_> {
        IndexedIter {
            slots: &self.slots,
            live: &self.live,
            pos: 0,
        }
    }

    /// Current rank of the entry pushed with ordinal `ord`, or `None` once
    /// it was removed. O(log n): a binary search for the slot, then the
    /// count of live slots before it.
    pub fn rank_of_ord(&self, ord: u64) -> Option<usize> {
        let slot = self.ords.binary_search(&ord).ok()?;
        self.live[slot].then(|| self.prefix(slot) as usize)
    }

    /// The queued `(ordinal, job index)` pairs in FCFS order.
    pub(crate) fn iter_ords(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        (0..self.slots.len())
            .filter(|&i| self.live[i])
            .map(|i| (self.ords[i], self.slots[i]))
    }

    /// Drop dead slots in place, preserving FCFS order. Runs in O(n) but
    /// only after O(n) removals, so removal stays O(log n) amortized; uses
    /// only the existing buffers (no allocation).
    fn compact(&mut self) {
        if let Some(fit) = &mut self.fit {
            fit.compact(&self.live);
        }
        let mut w = 0;
        for r in 0..self.slots.len() {
            if self.live[r] {
                self.slots[w] = self.slots[r];
                self.ords[w] = self.ords[r];
                w += 1;
            }
        }
        debug_assert_eq!(w, self.n_live);
        self.slots.truncate(w);
        self.live.truncate(w);
        self.ords.truncate(w);
        for l in &mut self.live {
            *l = true;
        }
        // With every slot live, node i of the Fenwick tree holds exactly
        // the size of the range it covers: lowbit(i).
        self.tree.truncate(w + 1);
        for i in 1..=w {
            self.tree[i] = (i & i.wrapping_neg()) as u32;
        }
    }
}

/// FCFS iterator over an [`IndexedQueue`]: walks physical slots, skipping
/// dead entries.
#[derive(Debug)]
pub struct IndexedIter<'a> {
    slots: &'a [usize],
    live: &'a [bool],
    pos: usize,
}

impl Iterator for IndexedIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.pos < self.slots.len() {
            let p = self.pos;
            self.pos += 1;
            if self.live[p] {
                return Some(self.slots[p]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_fcfs(q: &mut IndexedQueue) -> Vec<usize> {
        let mut out = Vec::new();
        while !q.is_empty() {
            out.push(q.remove_at(0));
        }
        out
    }

    #[test]
    fn fcfs_order_preserved() {
        let mut q = IndexedQueue::default();
        for i in [7, 3, 9, 1] {
            q.push(i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![7, 3, 9, 1]);
        assert_eq!(drain_fcfs(&mut q), vec![7, 3, 9, 1]);
    }

    #[test]
    fn get_and_remove_by_rank() {
        let mut q = IndexedQueue::default();
        for i in 0..10 {
            q.push(i * 10);
        }
        assert_eq!(q.get(3), Some(30));
        assert_eq!(q.remove_at(3), 30);
        assert_eq!(q.get(3), Some(40), "ranks shift after removal");
        assert_eq!(q.remove_at(8), 90, "last rank");
        assert_eq!(q.get(8), None);
        assert_eq!(q.iter().count(), 8);
    }

    #[test]
    fn interleaved_push_remove() {
        let mut q = IndexedQueue::default();
        q.push(1);
        q.push(2);
        assert_eq!(q.remove_at(0), 1);
        q.push(3);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(q.remove_at(1), 3);
        assert_eq!(q.remove_at(0), 2);
        assert!(q.is_empty());
        q.push(4);
        assert_eq!(q.get(0), Some(4));
    }

    /// Randomized parity against the `Vec` reference, with enough volume to
    /// cross compaction thresholds many times.
    #[test]
    fn matches_linear_reference_under_random_ops() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let mut linear: Vec<usize> = Vec::new();
        let mut indexed = IndexedQueue::with_capacity(16);
        let mut next = 0usize;
        for _ in 0..20_000 {
            let push = linear.len() < 2 || rng.gen_bool(0.55);
            if push {
                linear.push(next);
                indexed.push(next);
                next += 1;
            } else {
                let rank = rng.gen_range(0..linear.len());
                assert_eq!(linear.remove(rank), indexed.remove_at(rank));
            }
            assert_eq!(linear.len(), indexed.len());
            if next.is_multiple_of(97) {
                assert!(linear.iter().copied().eq(indexed.iter()));
                let rank = rng.gen_range(0..linear.len().max(1));
                assert_eq!(linear.get(rank).copied(), indexed.get(rank));
            }
        }
        assert!(linear.iter().copied().eq(indexed.iter()));
    }

    #[test]
    fn compaction_keeps_order_and_bounds_memory() {
        let mut q = IndexedQueue::default();
        for i in 0..10_000 {
            q.push(i);
        }
        // Remove from the front until compaction must have fired.
        for i in 0..9_900 {
            assert_eq!(q.remove_at(0), i);
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.slots.len() <= 2 * q.n_live + COMPACT_SLACK + 1,
            "dead slots bounded: {} physical for {} live",
            q.slots.len(),
            q.n_live
        );
        assert_eq!(q.ords.len(), q.slots.len(), "ordinals compact with slots");
        assert_eq!(
            q.iter_ords().collect::<Vec<_>>(),
            (9_900..10_000).map(|i| (i as u64, i)).collect::<Vec<_>>(),
            "survivors keep the ordinals they were pushed with"
        );
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            (9_900..10_000).collect::<Vec<_>>()
        );
    }

    /// Answers stay right with stale minima above dead leaves (they only
    /// prune less), so `calendar_parity.rs` cannot see them; this can. Every
    /// leaf is its live entry's pair or dead, and every inner node exactly
    /// the minimum of its children, through doublings and compactions.
    #[test]
    fn backfill_index_holds_exact_minima() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = IndexedQueue::with_first_fit(4);
        let pair = |job: usize| Fit {
            bound: 1.0 + (job % 89) as f64,
            procs: 1 + (job % 13) as u64,
        };
        let mut next = 0usize;
        for target in [3_000, 10, 700, 0] {
            while q.len() != target {
                if q.is_empty() || rng.gen_bool(if q.len() < target { 0.9 } else { 0.1 }) {
                    q.push_fit(next, pair(next).procs as u32, pair(next).bound);
                    next += 1;
                } else {
                    q.remove_at(rng.gen_range(0..q.len()));
                }
                if next.is_multiple_of(64) {
                    let fit = q.fit.as_ref().unwrap();
                    let cap = fit.cap();
                    for slot in 0..cap {
                        let live = q.live.get(slot).copied().unwrap_or(false);
                        let want = if live { pair(q.slots[slot]) } else { Fit::DEAD };
                        assert_eq!(fit.nodes[cap + slot], want, "leaf {slot}");
                    }
                    for k in 1..cap {
                        assert_eq!(fit.nodes[k], fit.nodes[2 * k].min(fit.nodes[2 * k + 1]));
                    }
                }
            }
        }
        assert_eq!(q.fit.as_ref().unwrap().cap(), 4_096, "grown by doubling");
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn remove_out_of_range_panics() {
        let mut q = IndexedQueue::default();
        q.push(1);
        q.remove_at(1);
    }
}
