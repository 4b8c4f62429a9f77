//! Latency accounting: a fixed-size log-linear histogram (HDR-style) of
//! nanosecond durations, cheap enough to record into on the shard hot
//! path (one increment) and precise enough for p50/p99 at serving
//! scales (≤ ~3% relative quantile error per bucket).
//!
//! Layout: values below 2^SUB_BITS get exact unit buckets; above that,
//! each power-of-two range splits into `2^SUB_BITS` linear sub-buckets.
//! Two flavors share the bucketing:
//!
//! * [`LatencyHistogram`] — plain `u64` counters, single-owner, merged
//!   element-wise. This is the type `rlsched-serve` historically owned;
//!   it moved here so every layer can share one bucket axis, and
//!   `serve::histogram` re-exports it unchanged.
//! * The registry's [`Histogram`](crate::Histogram) handle — striped
//!   `AtomicU64` counters recorded into concurrently and read as a
//!   [`HistogramSnapshot`](crate::HistogramSnapshot) without stopping
//!   writers. Built in this module (`AtomicHistogramCore`) on the same
//!   `bucket_of`/`bucket_upper` pair.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Enough octaves to span 1 ns … ~584 years.
const OCTAVES: u32 = 64 - SUB_BITS;
pub(crate) const N_BUCKETS: usize = ((OCTAVES + 1) << SUB_BITS) as usize;

/// Index of the bucket containing `v` (nanoseconds).
pub fn bucket_of(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    ((octave << SUB_BITS) | sub as u32) as usize
}

/// Upper bound (inclusive, nanoseconds) of bucket `i` — the value a
/// quantile query reports for samples that landed in it, and the `le`
/// bound the exposition encoder prints.
pub fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < (1 << SUB_BITS) {
        return i;
    }
    let octave = (i >> SUB_BITS) as u32;
    let sub = i & ((1 << SUB_BITS) - 1);
    let base = 1u64 << (octave + SUB_BITS - 1);
    let width = base >> SUB_BITS;
    base + (sub + 1) * width - 1
}

/// The value at quantile `q ∈ [0, 1]` of `count` samples whose largest
/// is `max_ns`, spread over `(bucket, count)` pairs in ascending bucket
/// order: the upper bound of the bucket holding the sample of rank
/// ⌈q·count⌉ (at least 1), so the estimate never understates, capped at
/// `max_ns`. 0 when empty. Both histogram flavors answer through it.
pub(crate) fn quantile_of(
    buckets: impl IntoIterator<Item = (usize, u64)>,
    count: u64,
    max_ns: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in buckets {
        seen += c;
        if seen >= rank {
            // The top bucket's upper bound can overshoot the true max;
            // the exact max is tracked, so never exceed it.
            return bucket_upper(i).min(max_ns);
        }
    }
    max_ns
}

/// A mergeable latency histogram with exact count/max and bucketed
/// quantiles.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            max_ns: 0,
        }
    }

    /// Record one sample. Never allocates.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value, nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The value at quantile `q ∈ [0, 1]` (bucket upper bound, so the
    /// estimate never understates). 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let buckets = self.counts.iter().copied().enumerate();
        quantile_of(buckets, self.count, self.max_ns, q)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50_ns", &self.quantile_ns(0.5))
            .field("p99_ns", &self.quantile_ns(0.99))
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// Concurrent-write stripes per registry histogram: enough that the
/// handful of threads sharing one metric (shard workers, rollout
/// workers) land on distinct cache-line neighborhoods, small enough
/// that a histogram stays ~60 KiB.
const STRIPES: usize = 4;

/// Process-wide monotone thread index, assigned lazily on first record.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

/// This thread's stripe index. First call per thread takes the global
/// counter; afterwards it is a thread-local read — no allocation, no
/// syscall.
pub(crate) fn thread_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// One stripe of atomic bucket counters plus its running max.
struct Stripe {
    counts: Vec<AtomicU64>,
    max_ns: AtomicU64,
}

/// The lock-free core behind the registry's `Histogram` handle:
/// `STRIPES` independent bucket arrays, recorded into by stripe of the
/// calling thread, merged at snapshot time. Recording is two relaxed
/// atomic RMWs and never allocates; snapshots never block writers.
pub(crate) struct AtomicHistogramCore {
    stripes: Vec<Stripe>,
}

impl AtomicHistogramCore {
    pub(crate) fn new() -> Self {
        AtomicHistogramCore {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                    max_ns: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    pub(crate) fn record_ns(&self, ns: u64) {
        let stripe = &self.stripes[thread_index() % STRIPES];
        stripe.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        stripe.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Merge the stripes into a sparse snapshot. The total count is
    /// *derived* from the bucket reads, so `sum(buckets) == count`
    /// holds by construction even while writers race the scrape.
    pub(crate) fn snapshot(&self) -> crate::HistogramSnapshot {
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        let mut count = 0u64;
        let mut max_ns = 0u64;
        for i in 0..N_BUCKETS {
            let mut c = 0u64;
            for s in &self.stripes {
                c += s.counts[i].load(Ordering::Relaxed);
            }
            if c > 0 {
                buckets.push((i as u32, c));
                count += c;
            }
        }
        for s in &self.stripes {
            max_ns = max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        crate::HistogramSnapshot {
            count,
            max_ns,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_axis() {
        // Every value maps to a bucket whose upper bound is >= it and
        // whose predecessor's upper bound is < it.
        for v in [0u64, 1, 31, 32, 33, 100, 1000, 123_456, u32::MAX as u64] {
            let b = bucket_of(v);
            assert!(bucket_upper(b) >= v, "v={v} b={b}");
            if b > 0 {
                assert!(bucket_upper(b - 1) < v, "v={v} b={b}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 10, 30] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile_ns(0.5), 3);
        assert_eq!(h.quantile_ns(1.0), 30);
        assert_eq!(h.max_ns(), 30);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(Duration::from_nanos(i * 100)); // 100ns … 1ms
        }
        let p50 = h.quantile_ns(0.5) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.05, "p50 = {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.05, "p99 = {p99}");
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1_000_000);
        assert_eq!(a.quantile_ns(0.25), 10);
    }

    #[test]
    fn atomic_core_matches_plain_histogram() {
        let core = AtomicHistogramCore::new();
        let mut plain = LatencyHistogram::new();
        for ns in [0u64, 1, 31, 32, 100, 4_096, 1_000_000, 123_456_789] {
            core.record_ns(ns);
            plain.record(Duration::from_nanos(ns));
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, plain.count());
        assert_eq!(snap.max_ns, plain.max_ns());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile_ns(q), plain.quantile_ns(q), "q={q}");
        }
        assert_eq!(
            snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            snap.count
        );
    }
}
