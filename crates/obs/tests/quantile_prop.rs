//! The two histogram flavors answer alike: the single-owner
//! [`LatencyHistogram`] and the registry's striped [`Histogram`], fed
//! the same durations, report the same `count`, the same exact
//! `max_ns` and the same `quantile_ns` at every probed quantile.

use std::time::Duration;

use proptest::prelude::*;
use rlsched_obs::{Histogram, LatencyHistogram};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn registry_histogram_quantiles_equal_the_plain_histogram(
        samples in prop::collection::vec((0u32..48, any::<u64>()), 0..200),
    ) {
        let registry = Histogram::standalone();
        let mut plain = LatencyHistogram::new();
        for &(octaves, bits) in &samples {
            // Spread the durations over 48 octaves, exact unit buckets
            // (below 32 ns) included.
            let d = Duration::from_nanos(bits >> (64 - octaves.max(1)));
            registry.record(d);
            plain.record(d);
        }
        let snap = registry.snapshot();
        prop_assert_eq!(snap.count, plain.count());
        prop_assert_eq!(snap.max_ns, plain.max_ns());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(snap.quantile_ns(q), plain.quantile_ns(q), "q = {}", q);
        }
    }
}
