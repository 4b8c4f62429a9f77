//! Queue backends for the wait-queue "event calendar".
//!
//! [`crate::SchedSession`] keeps the waiting jobs in FCFS (arrival) order
//! and addresses them by *rank* — the position a policy sees. The seed
//! implementation was a plain `Vec<usize>`: `remove(pos)` shifts the tail,
//! so EASY backfilling over a deep queue (100k+ waiting jobs in a
//! trace-scale replay) degrades to O(n) per removal and O(n²) per pass.
//!
//! [`QueueBackend`] abstracts the container; two implementations exist:
//!
//! * [`LinearQueue`] — the original `Vec`, kept as the parity reference.
//! * [`IndexedQueue`] — an append-only slot array with a Fenwick tree over
//!   the live flags: rank→slot lookup and removal are O(log n), pushes are
//!   amortized O(1), and dead slots are compacted in place (no allocation
//!   in steady state) once they outnumber the live ones.
//!
//! Both backends present the queue in identical FCFS order, so a session
//! is bit-identical regardless of backend (pinned by the calendar-parity
//! suite).
//!
//! [`IndexedQueue`] also stamps every push with a strictly increasing
//! *ordinal* — a name for the entry that, unlike its rank, does not change
//! as earlier entries leave and, unlike its job index, is never reused.
//! [`IndexedQueue::rank_of_ord`] turns an ordinal back into the entry's
//! current rank in O(log n), or `None` once the entry was removed: what an
//! ordering kept *beside* the queue (the streaming session's ranked head)
//! needs to find its minimum in the queue and to recognise stale entries.

/// A wait queue of job indices in FCFS (push) order, addressable by rank.
pub trait QueueBackend: Clone + std::fmt::Debug + Default {
    /// Iterator over the queued job indices in FCFS order.
    type Iter<'a>: Iterator<Item = usize> + 'a
    where
        Self: 'a;

    /// An empty queue with room for roughly `cap` entries.
    fn with_capacity(cap: usize) -> Self;

    /// Append a job index at the back (it becomes the highest rank).
    fn push_back(&mut self, job_index: usize);

    /// Number of queued jobs.
    fn len(&self) -> usize;

    /// True when no job is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The job index at `rank` (0-based FCFS position), if any.
    fn get(&self, rank: usize) -> Option<usize>;

    /// Remove and return the job index at `rank`. Panics when out of range.
    fn remove_at(&mut self, rank: usize) -> usize;

    /// Walk the queued job indices in FCFS order.
    fn iter(&self) -> Self::Iter<'_>;
}

/// The seed `Vec` backend: O(n) removal, kept as the parity reference.
#[derive(Debug, Clone, Default)]
pub struct LinearQueue(Vec<usize>);

impl QueueBackend for LinearQueue {
    type Iter<'a> = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn with_capacity(cap: usize) -> Self {
        LinearQueue(Vec::with_capacity(cap))
    }

    fn push_back(&mut self, job_index: usize) {
        self.0.push(job_index);
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, rank: usize) -> Option<usize> {
        self.0.get(rank).copied()
    }

    fn remove_at(&mut self, rank: usize) -> usize {
        self.0.remove(rank)
    }

    fn iter(&self) -> Self::Iter<'_> {
        self.0.iter().copied()
    }
}

/// Dead slots tolerated beyond the live count before an in-place compaction.
/// The slack keeps tiny queues from compacting on every removal.
const COMPACT_SLACK: usize = 64;

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

    /// Append a job index at the back and return its push ordinal.
    pub fn push(&mut self, job_index: usize) -> u64 {
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

impl QueueBackend for IndexedQueue {
    type Iter<'a> = IndexedIter<'a>;

    fn with_capacity(cap: usize) -> Self {
        IndexedQueue {
            slots: Vec::with_capacity(cap),
            live: Vec::with_capacity(cap),
            ords: Vec::with_capacity(cap),
            next_ord: 0,
            tree: Vec::with_capacity(cap + 1),
            n_live: 0,
        }
    }

    fn push_back(&mut self, job_index: usize) {
        self.push(job_index);
    }

    fn len(&self) -> usize {
        self.n_live
    }

    fn get(&self, rank: usize) -> Option<usize> {
        if rank >= self.n_live {
            return None;
        }
        Some(self.slots[self.select(rank)])
    }

    fn remove_at(&mut self, rank: usize) -> usize {
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
        if n - self.n_live > self.n_live + COMPACT_SLACK {
            self.compact();
        }
        job_index
    }

    fn iter(&self) -> Self::Iter<'_> {
        IndexedIter {
            slots: &self.slots,
            live: &self.live,
            pos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_fcfs<Q: QueueBackend>(q: &mut Q) -> Vec<usize> {
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
            q.push_back(i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![7, 3, 9, 1]);
        assert_eq!(drain_fcfs(&mut q), vec![7, 3, 9, 1]);
    }

    #[test]
    fn get_and_remove_by_rank() {
        let mut q = IndexedQueue::default();
        for i in 0..10 {
            q.push_back(i * 10);
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
        q.push_back(1);
        q.push_back(2);
        assert_eq!(q.remove_at(0), 1);
        q.push_back(3);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(q.remove_at(1), 3);
        assert_eq!(q.remove_at(0), 2);
        assert!(q.is_empty());
        q.push_back(4);
        assert_eq!(q.get(0), Some(4));
    }

    /// Randomized parity against the `Vec` reference, with enough volume to
    /// cross compaction thresholds many times.
    #[test]
    fn matches_linear_reference_under_random_ops() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let mut linear = LinearQueue::default();
        let mut indexed = IndexedQueue::with_capacity(16);
        let mut next = 0usize;
        for _ in 0..20_000 {
            let push = linear.len() < 2 || rng.gen_bool(0.55);
            if push {
                linear.push_back(next);
                indexed.push_back(next);
                next += 1;
            } else {
                let rank = rng.gen_range(0..linear.len());
                assert_eq!(linear.remove_at(rank), indexed.remove_at(rank));
            }
            assert_eq!(linear.len(), indexed.len());
            if next.is_multiple_of(97) {
                assert!(linear.iter().eq(indexed.iter()));
                let rank = rng.gen_range(0..linear.len().max(1));
                assert_eq!(linear.get(rank), indexed.get(rank));
            }
        }
        assert!(linear.iter().eq(indexed.iter()));
    }

    #[test]
    fn compaction_keeps_order_and_bounds_memory() {
        let mut q = IndexedQueue::default();
        for i in 0..10_000 {
            q.push_back(i);
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

    #[test]
    #[should_panic(expected = "rank")]
    fn remove_out_of_range_panics() {
        let mut q = IndexedQueue::default();
        q.push_back(1);
        q.remove_at(1);
    }
}
