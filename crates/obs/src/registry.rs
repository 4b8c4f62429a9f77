//! The metrics registry: named, labeled handles over lock-free storage.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and may
//! allocate — it happens at wiring time (server spawn, train start),
//! not on hot paths. The returned handles are `Arc`-backed and cheap to
//! clone; *recording* through them is one or two relaxed atomic RMWs
//! and never allocates, which the alloc-regression suite pins.
//!
//! Registration is idempotent: asking for the same `(name, labels)`
//! again returns a handle over the **same** storage. That is what makes
//! counters monotone across shard respawns — a revived worker re-wires
//! the same metric and keeps counting where its predecessor stopped.
//!
//! [`Registry::snapshot`] reads every metric once into a
//! [`RegistrySnapshot`] — a plain, serde-serializable value that
//! crosses the wire (`Request::Metrics` in `rlsched-serve`) and feeds
//! the text exposition encoder ([`encode_text`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::histogram::{bucket_upper, quantile_of, AtomicHistogramCore};

/// A monotonically increasing counter. Clones share storage.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry (useful in
    /// tests and benches).
    pub fn standalone() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add 1. Never allocates.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`. Never allocates.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge. Clones share storage.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn standalone() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Set the gauge. Never allocates.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) via CAS. Never allocates.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raise the gauge to `v` if above the current value. Only valid
    /// for non-negative values (the IEEE-754 bit pattern of
    /// non-negative floats orders like the integers, so a single
    /// `fetch_max` suffices). Never allocates.
    #[inline]
    pub fn set_max(&self, v: f64) {
        debug_assert!(
            v >= 0.0,
            "Gauge::set_max is defined for non-negative values"
        );
        self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A striped lock-free duration histogram on the shared log-linear
/// bucket axis (see [`crate::histogram`]). Clones share storage.
#[derive(Clone)]
pub struct Histogram(Arc<AtomicHistogramCore>);

impl Histogram {
    /// A free-standing histogram not attached to any registry.
    pub fn standalone() -> Self {
        Histogram(Arc::new(AtomicHistogramCore::new()))
    }

    /// Record one duration. Two relaxed RMWs; never allocates.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a raw value on the nanosecond axis (also used for
    /// dimensionless sizes such as coalesce batch rows).
    #[inline]
    pub fn record_value(&self, v: u64) {
        self.0.record_ns(v);
    }

    /// Read the current contents without stopping writers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("p50_ns", &snap.quantile_ns(0.5))
            .field("p99_ns", &snap.quantile_ns(0.99))
            .field("max_ns", &snap.max_ns)
            .finish()
    }
}

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// A metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*` (the Prometheus grammar).
fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A label key: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_key(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Registration key: metric name plus its sorted label pairs.
type SeriesKey = (String, Vec<(String, String)>);

/// An instance-scoped metrics registry. Servers own one each (so tests
/// spawning several servers in one process see isolated counters); the
/// trainer and replay engine default to the process-wide [`global`]
/// registry. See the module docs for the registration/recording cost
/// split.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<SeriesKey, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<F>(&self, name: &str, labels: &[(&str, &str)], make: F) -> Handle
    where
        F: FnOnce() -> Handle,
    {
        assert!(valid_name(name), "invalid metric name `{name}`");
        for (k, _) in labels {
            assert!(valid_label_key(k), "invalid label key `{k}` on `{name}`");
        }
        let key = (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        map.entry(key).or_insert_with(make).clone()
    }

    /// Register (or re-attach to) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Handle::Counter(Counter::standalone())) {
            Handle::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Register (or re-attach to) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Handle::Gauge(Gauge::standalone())) {
            Handle::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Register (or re-attach to) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, || Handle::Histogram(Histogram::standalone())) {
            Handle::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Read every metric once into a plain snapshot, sorted by
    /// `(name, labels)`. Writers are never blocked; each individual
    /// metric is read atomically (a histogram's total equals the sum of
    /// its bucket reads by construction).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        RegistrySnapshot {
            metrics: map
                .iter()
                .map(|((name, labels), handle)| MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match handle {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                        Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        f.debug_struct("Registry")
            .field("metrics", &map.len())
            .finish()
    }
}

/// The process-wide default registry (used by the trainer and the
/// replay engine; servers carry their own for isolation).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One metric's value at scrape time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// A sparse histogram read: only non-empty buckets, as
/// `(bucket_index, count)` pairs sorted by index. `count` always equals
/// the sum of the bucket counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub max_ns: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]` (bucket upper bound, capped
    /// at the observed max; 0 when empty) — same semantics as
    /// [`LatencyHistogram::quantile_ns`](crate::LatencyHistogram::quantile_ns).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let buckets = self.buckets.iter().map(|&(i, c)| (i as usize, c));
        quantile_of(buckets, self.count, self.max_ns, q)
    }

    /// Fold another snapshot into this one (sparse element-wise merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One named, labeled metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// A full registry read: every metric, sorted by `(name, labels)`.
/// Serializable over both wire formats of `rlsched-serve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RegistrySnapshot {
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The counter with exactly these labels, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).and_then(|m| match m.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
    }

    /// The gauge with exactly these labels, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).and_then(|m| match m.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        })
    }

    /// Sum of every counter sample sharing `name`, across label sets.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Every histogram sample sharing `name`, merged across label sets.
    pub fn histogram_merged(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for m in self.metrics.iter().filter(|m| m.name == name) {
            if let MetricValue::Histogram(h) = &m.value {
                out.merge(h);
            }
        }
        out
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), &(lk, lv))| k == lk && v == lv)
        })
    }
}

fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn push_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    out.push_str("} ");
}

/// Encode a snapshot in the Prometheus text exposition format.
///
/// * one `# TYPE name kind` line per distinct metric name;
/// * counters/gauges as `name{labels} value`;
/// * histograms as cumulative `name_bucket{labels,le="<ns>"}` lines
///   over the non-empty log-linear buckets plus `le="+Inf"`, with
///   `name_count` and `name_max` (exact observed max, ns) alongside.
///
/// Label values are escaped (`\\`, `\"`, `\n`); names and label keys
/// are valid by registry construction.
pub fn encode_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    let mut le = String::new();
    for m in &snap.metrics {
        if last_name != Some(m.name.as_str()) {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str("# TYPE ");
            out.push_str(&m.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_name = Some(m.name.as_str());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&m.name);
                push_labels(&mut out, &m.labels, None);
                if m.labels.is_empty() {
                    out.push(' ');
                }
                out.push_str(&v.to_string());
                out.push('\n');
            }
            MetricValue::Gauge(v) => {
                out.push_str(&m.name);
                push_labels(&mut out, &m.labels, None);
                if m.labels.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{v:?}"));
                out.push('\n');
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for &(i, c) in &h.buckets {
                    cum += c;
                    le.clear();
                    le.push_str(&bucket_upper(i as usize).to_string());
                    out.push_str(&m.name);
                    out.push_str("_bucket");
                    push_labels(&mut out, &m.labels, Some(("le", &le)));
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
                out.push_str(&m.name);
                out.push_str("_bucket");
                push_labels(&mut out, &m.labels, Some(("le", "+Inf")));
                out.push_str(&h.count.to_string());
                out.push('\n');
                out.push_str(&m.name);
                out.push_str("_count");
                push_labels(&mut out, &m.labels, None);
                if m.labels.is_empty() {
                    out.push(' ');
                }
                out.push_str(&h.count.to_string());
                out.push('\n');
                out.push_str(&m.name);
                out.push_str("_max");
                push_labels(&mut out, &m.labels, None);
                if m.labels.is_empty() {
                    out.push(' ');
                }
                out.push_str(&h.max_ns.to_string());
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter("rlsched_test_total", &[("shard", "0")]);
        let b = reg.counter("rlsched_test_total", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = reg.counter("rlsched_test_total", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("rlsched_test_total", &[]);
        let _ = reg.gauge("rlsched_test_total", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = Registry::new().counter("0bad name", &[]);
    }

    #[test]
    fn gauge_add_and_set_max() {
        let g = Gauge::standalone();
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
        g.set_max(0.5);
        assert_eq!(g.get(), 1.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("b_total", &[("shard", "1")]).add(4);
        reg.counter("b_total", &[("shard", "0")]).add(3);
        reg.gauge("a_depth", &[]).set(1.25);
        let h = reg.histogram("c_latency_ns", &[]);
        h.record_value(10);
        h.record_value(1000);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_depth", "b_total", "b_total", "c_latency_ns"]);
        assert_eq!(snap.counter("b_total", &[("shard", "0")]), Some(3));
        assert_eq!(snap.counter_sum("b_total"), 7);
        assert_eq!(snap.gauge("a_depth", &[]), Some(1.25));
        let merged = snap.histogram_merged("c_latency_ns");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.quantile_ns(1.0), 1000);
    }

    #[test]
    fn histogram_snapshot_merge_matches_plain_merge() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        let mut pa = crate::LatencyHistogram::new();
        let mut pb = crate::LatencyHistogram::new();
        for v in [1u64, 50, 50, 7_000] {
            a.record_value(v);
            pa.record(Duration::from_nanos(v));
        }
        for v in [50u64, 900, 1 << 40] {
            b.record_value(v);
            pb.record(Duration::from_nanos(v));
        }
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        pa.merge(&pb);
        assert_eq!(sa.count, pa.count());
        assert_eq!(sa.max_ns, pa.max_ns());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(sa.quantile_ns(q), pa.quantile_ns(q));
        }
    }

    #[test]
    fn exposition_smoke() {
        let reg = Registry::new();
        reg.counter("rlsched_serve_served_total", &[("shard", "0")])
            .add(5);
        reg.gauge("rlsched_serve_inbox_depth", &[("shard", "0")])
            .set(2.0);
        let h = reg.histogram("rlsched_serve_latency_ns", &[("shard", "0")]);
        h.record_value(3);
        h.record_value(100);
        let text = encode_text(&reg.snapshot());
        assert!(text.contains("# TYPE rlsched_serve_served_total counter"));
        assert!(text.contains("rlsched_serve_served_total{shard=\"0\"} 5"));
        assert!(text.contains("rlsched_serve_inbox_depth{shard=\"0\"} 2.0"));
        assert!(text.contains("rlsched_serve_latency_ns_bucket{shard=\"0\",le=\"3\"} 1"));
        assert!(text.contains("rlsched_serve_latency_ns_bucket{shard=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("rlsched_serve_latency_ns_count{shard=\"0\"} 2"));
        assert!(text.contains("rlsched_serve_latency_ns_max{shard=\"0\"} 100"));
    }
}
