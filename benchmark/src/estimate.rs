//! The estimators every row goes through: best-of-passes for timings,
//! interpolated histogram quantiles for latencies, and the median /
//! quartile-spread pair `bench compare` applies across runs.
//!
//! Why best-of: each measured pass does the same deterministic work, so
//! interference from the machine only ever *adds* time. The fastest
//! pass is the one least disturbed; medians of a handful of passes moved
//! 7 % between two processes on the sizing box while minima moved 1.4 %.

use rlsched_obs::{bucket_of, bucket_upper, LatencyHistogram};

/// The least-disturbed value of a "higher is better" per-pass metric.
pub fn best_max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The least-disturbed value of a "lower is better" per-pass metric.
pub fn best_min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(median − best) / best`: how far the typical pass sat from the
/// least-disturbed one. Reported as info beside every best-of metric.
pub fn noise(values: &[f64], best: f64) -> f64 {
    ((median(values) - best) / best).abs()
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does — the acceptance rule is stated in those
/// terms, so `bench compare` must agree with it to the last digit.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    ((q[2] - q[0]) / median(values)).abs()
}

/// Quantile `q` of `hist` in nanoseconds, interpolated linearly inside
/// the bucket the quantile falls in.
///
/// `LatencyHistogram::quantile_ns` reports a bucket's upper bound, and
/// buckets are ~3 % wide: two runs whose true medians differ by 1 %
/// read identically, and a 3 % step appears out of nowhere when the
/// median crosses an edge. Interpolating by the rank's position among
/// the bucket's samples restores a continuous estimate from the same
/// histogram. Only the public quantile query is used: the first and
/// last rank that answer with this bucket are found by bisection.
pub fn quantile_interp(hist: &LatencyHistogram, q: f64) -> f64 {
    quantile_interp_with(hist.count(), hist.max_ns(), |q| hist.quantile_ns(q), q)
}

/// [`quantile_interp`] over anything that answers the histogram's quantile
/// query — the registry's scraped `HistogramSnapshot` has the same one.
pub fn quantile_interp_with(n: u64, max_ns: u64, quantile_ns: impl Fn(f64) -> u64, q: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // `quantile_ns` computes rank = ceil(q·n); querying at (r − ½)/n
    // lands on rank r without floating-point doubt.
    let at_rank = |r: u64| quantile_ns((r as f64 - 0.5) / n as f64);
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let bucket = bucket_of(at_rank(rank));
    // First rank inside the bucket.
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bucket_of(at_rank(mid)) >= bucket {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    // Last rank inside the bucket.
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if bucket_of(at_rank(mid)) <= bucket {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let upper = bucket_upper(bucket) as f64;
    // Buckets are (previous upper, upper]; bucket 0 holds only zero.
    let lower = if bucket == 0 {
        0.0
    } else {
        bucket_upper(bucket - 1) as f64
    };
    let share = (rank - first) as f64 + 0.5;
    let value = lower + (upper - lower) * share / (last - first + 1) as f64;
    value.min(max_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn best_of_picks_the_least_disturbed_pass() {
        let walls = [2.61, 2.46, 2.99, 2.50];
        assert_eq!(best_min(&walls), 2.46);
        let rates = [380.0, 401.5, 362.0];
        assert_eq!(best_max(&rates), 401.5);
        assert!((noise(&walls, 2.46) - (2.555 - 2.46) / 2.46).abs() < 1e-12);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20, 50, 40], n=4)
        assert_eq!(
            quartiles(&[10.0, 30.0, 20.0, 50.0, 40.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantiles_track_the_samples() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(Duration::from_nanos(i * 100)); // uniform 100 ns … 1 ms
        }
        let p50 = quantile_interp(&h, 0.5);
        let p99 = quantile_interp(&h, 0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.002, "p50 = {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.002, "p99 = {p99}");
        // The raw query is the bucket edge: coarser, and never below.
        assert!(h.quantile_ns(0.5) as f64 >= p50);
    }

    #[test]
    fn interpolation_moves_where_the_bucket_edge_cannot() {
        // Both histograms put rank 1200 in the bucket holding 193 000 ns,
        // so the raw quantile reads the same edge; the rank sits deeper
        // into that bucket's samples in the second one.
        let fill = |low: u64| {
            let mut h = LatencyHistogram::new();
            for _ in 0..low {
                h.record(Duration::from_nanos(180_000));
            }
            for _ in 0..(2000 - low) {
                h.record(Duration::from_nanos(193_000));
            }
            // Estimates are capped at the largest sample; keep it out of the way.
            h.record(Duration::from_nanos(500_000));
            h
        };
        let (a, b) = (fill(1000), fill(600));
        assert_eq!(a.quantile_ns(0.6), b.quantile_ns(0.6));
        assert!(quantile_interp(&a, 0.6) < quantile_interp(&b, 0.6));
    }

    #[test]
    fn degenerate_histograms_are_safe() {
        let empty = LatencyHistogram::new();
        assert_eq!(quantile_interp(&empty, 0.5), 0.0);
        let mut one = LatencyHistogram::new();
        one.record(Duration::from_nanos(777));
        let v = quantile_interp(&one, 0.99);
        assert!(v > 0.0 && v <= 777.0);
    }
}
