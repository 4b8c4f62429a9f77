//! Console tables and JSON result files for the `repro` experiments:
//! each table/figure generator prints its tables and [`Report::save`]
//! writes `results/<experiment>.json`.

use std::fs;
use std::path::PathBuf;

use serde_json::Value;

/// Collects one experiment's output: a human-readable table on stdout and
/// a machine-readable JSON file under `results/`.
pub struct Report {
    experiment: String,
    json: serde_json::Map<String, Value>,
    out_dir: PathBuf,
}

impl Report {
    /// Start a report for an experiment id (e.g. `"table5"`).
    pub fn new(experiment: &str, out_dir: &str) -> Self {
        Report {
            experiment: experiment.to_string(),
            json: serde_json::Map::new(),
            out_dir: PathBuf::from(out_dir),
        }
    }

    /// Print a section heading.
    pub fn section(&self, title: &str) {
        println!("\n=== {title} ===");
    }

    /// Print one fixed-width table.
    pub fn table(&self, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
            }
            println!("{}", s.trim_end());
        };
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in rows {
            line(row);
        }
    }

    /// Attach a JSON value to the result file.
    pub fn record(&mut self, key: &str, value: Value) {
        self.json.insert(key.to_string(), value);
    }

    /// Write `results/<experiment>.json`. Returns the path.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{}.json", self.experiment));
        fs::write(
            &path,
            serde_json::to_string_pretty(&Value::Object(self.json.clone()))?,
        )?;
        println!("\n[saved {}]", path.display());
        Ok(path)
    }
}

/// Format a metric value the way the paper's tables do (4-5 significant
/// figures, no scientific notation for the typical ranges).
pub fn fmt_metric(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_metric_ranges() {
        assert_eq!(fmt_metric(0.0), "0");
        assert_eq!(fmt_metric(0.657), "0.657");
        assert_eq!(fmt_metric(58.64), "58.64");
        assert_eq!(fmt_metric(7273.8), "7274");
    }

    #[test]
    fn report_saves_json() {
        let dir = std::env::temp_dir().join("rlsched-report-test");
        let mut r = Report::new("unit", dir.to_str().unwrap());
        r.record("answer", serde_json::json!(42));
        let path = r.save().unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("42"));
    }

    #[test]
    fn table_prints_without_panic() {
        let r = Report::new("t", "/tmp");
        r.table(
            &["a", "metric"],
            &[
                vec!["x".into(), "1.0".into()],
                vec!["yyyy".into(), "2.5".into()],
            ],
        );
    }
}
