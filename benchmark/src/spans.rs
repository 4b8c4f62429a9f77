//! In-memory span recording for the traced runs.
//!
//! A span is (layer, start, end, parent layer, op index). Recording one
//! updates the layer's aggregate — count, busy time, duration histogram —
//! and keeps the raw span for every 1 024th op, so a run over half a
//! million decisions holds a few hundred raw spans, not millions. Nothing
//! is written anywhere until the run is over.
//!
//! A layer's *self* time is its busy time minus the busy time of the
//! layers recorded as its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

use rlsched_obs::LatencyHistogram;

use crate::estimate::quantile_interp;

/// Raw spans are kept for ops whose index is a multiple of this.
pub const SAMPLE_EVERY: u64 = 1_024;

/// Handle to a registered layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerId(usize);

struct Layer {
    name: &'static str,
    parent: Option<LayerId>,
    count: u64,
    busy_ns: u64,
    hist: LatencyHistogram,
}

struct RawSpan {
    layer: LayerId,
    start_ns: u64,
    end_ns: u64,
    op: u64,
    pass: u32,
}

/// Per-layer aggregates plus sampled raw spans of one traced run.
pub struct Recorder {
    origin: Instant,
    layers: Vec<Layer>,
    samples: Vec<RawSpan>,
    pass: u32,
}

impl Recorder {
    /// An empty recorder for traced pass number `pass`.
    pub fn new(pass: u32) -> Self {
        Recorder {
            origin: Instant::now(),
            layers: Vec::new(),
            samples: Vec::new(),
            pass,
        }
    }

    /// Register a layer once, before the loop that records into it.
    pub fn layer(&mut self, name: &'static str, parent: Option<LayerId>) -> LayerId {
        self.layers.push(Layer {
            name,
            parent,
            count: 0,
            busy_ns: 0,
            hist: LatencyHistogram::new(),
        });
        LayerId(self.layers.len() - 1)
    }

    /// Record one span of `layer` belonging to op number `op`.
    #[inline]
    pub fn span(&mut self, layer: LayerId, start: Instant, end: Instant, op: u64) {
        let busy = end.saturating_duration_since(start);
        let l = &mut self.layers[layer.0];
        l.count += 1;
        l.busy_ns += busy.as_nanos() as u64;
        l.hist.record(busy);
        if op.is_multiple_of(SAMPLE_EVERY) {
            let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.samples.push(RawSpan {
                layer,
                start_ns: since(start),
                end_ns: since(end),
                op,
                pass: self.pass,
            });
        }
    }

    /// Add busy time measured some other way (a phase total the program
    /// reports, or a span with a nested layer's time already taken out).
    pub fn add_busy(&mut self, layer: LayerId, busy_ns: u64, count: u64) {
        let l = &mut self.layers[layer.0];
        l.count += count;
        l.busy_ns += busy_ns;
    }

    pub fn busy_s(&self, layer: LayerId) -> f64 {
        self.layers[layer.0].busy_ns as f64 / 1e9
    }

    pub fn count(&self, layer: LayerId) -> u64 {
        self.layers[layer.0].count
    }

    /// Busy time of `layer` not covered by its child layers.
    pub fn self_s(&self, layer: LayerId) -> f64 {
        let children: u64 = self
            .layers
            .iter()
            .filter(|l| l.parent == Some(layer))
            .map(|l| l.busy_ns)
            .sum();
        self.layers[layer.0].busy_ns.saturating_sub(children) as f64 / 1e9
    }

    /// The aggregate table, one object per layer.
    pub fn table(&self) -> Value {
        let rows: Vec<Value> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                json!({
                    "layer": l.name,
                    "parent": l.parent.map(|p| self.layers[p.0].name),
                    "count": l.count,
                    "busy_s": l.busy_ns as f64 / 1e9,
                    "self_s": self.self_s(LayerId(i)),
                    "ns_per_span": if l.count == 0 { 0.0 } else { l.busy_ns as f64 / l.count as f64 },
                    "p50_ns": quantile_interp(&l.hist, 0.5),
                    "p99_ns": quantile_interp(&l.hist, 0.99),
                })
            })
            .collect();
        Value::Array(rows)
    }

    /// Write the sampled raw spans, one JSON object per line.
    pub fn write_samples(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.samples {
            let l = &self.layers[s.layer.0];
            let line = json!({
                "name": l.name, "parent": l.parent.map(|p| self.layers[p.0].name),
                "start_ns": s.start_ns, "end_ns": s.end_ns, "op": s.op, "pass": s.pass,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("a Value always serializes")
            )?;
        }
        out.flush()
    }

    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn aggregates_self_time_and_samples() {
        let mut rec = Recorder::new(0);
        let step = rec.layer("sim.step", None);
        let source = rec.layer("swf.next", Some(step));
        let t = Instant::now();
        for op in 0..3000u64 {
            rec.span(step, t, t + Duration::from_nanos(1000), op);
            rec.span(source, t, t + Duration::from_nanos(400), op);
        }
        assert_eq!(rec.count(step), 3000);
        assert!((rec.busy_s(step) - 3e-3).abs() < 1e-12);
        assert!(
            (rec.self_s(step) - 1.8e-3).abs() < 1e-12,
            "children are taken out"
        );
        assert!((rec.self_s(source) - 1.2e-3).abs() < 1e-12);
        // Ops 0, 1024 and 2048, once per layer.
        assert_eq!(rec.sample_count(), 6);
    }
}
