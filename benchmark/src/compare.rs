//! `bench compare` and the BENCHMARK.json half of `bench check`.
//!
//! `compare A B` reads two result sets (files of `bench all --out` rows,
//! several runs each), and for every workload × end-to-end metric applies
//! the metric's bound from BENCHMARK.json to the two medians:
//!
//! * `worse` / `better` — B's median is beyond the bound from A's;
//! * `same` — within the bound, and both sets' run-to-run quartile spread
//!   is within it too;
//! * `unresolved` — the spread exceeds the bound, so "within the bound"
//!   would mean nothing — unless every run of B beats every run of A,
//!   which is `better` whatever the spread.
//!
//! Two sets from the same code must come out all `same`: that is the A/A
//! criterion the benchmark was accepted under.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::estimate::{median, quartile_spread};
use crate::{END_TO_END, PER_LAYER, WORKLOADS};

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// One end-to-end metric's gate, from BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

fn entries<'a>(doc: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json: no array {key:?}"))
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or(format!("BENCHMARK.json: entry without {key:?}: {entry:?}"))
}

/// The end-to-end gates of a BENCHMARK.json document.
pub fn gates(doc: &Value) -> Result<Vec<Gate>, String> {
    entries(doc, "end_to_end")?
        .iter()
        .map(|e| {
            Ok(Gate {
                name: field(e, "name")?.to_string(),
                higher_is_better: field(e, "better")? == "higher",
                bound: e.get("bound").and_then(Value::as_f64).ok_or(format!(
                    "BENCHMARK.json: {:?} has no bound",
                    field(e, "name")
                ))?,
            })
        })
        .collect()
}

/// BENCHMARK.json must name exactly the workloads and metrics the binary
/// reports, with the units it reports them in.
pub fn check_contract(text: &str) -> Result<(), String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let named = |key: &str, with_unit: bool| -> Result<Vec<(String, String)>, String> {
        entries(&doc, key)?
            .iter()
            .map(|e| {
                let unit = if with_unit { field(e, "unit")? } else { "" };
                Ok((field(e, "name")?.to_string(), unit.to_string()))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|&w| (w, "")).collect();
    for (key, with_unit, reported) in [
        ("workloads", false, owned(&workloads)),
        ("end_to_end", true, owned(&END_TO_END)),
        ("per_layer", true, owned(&PER_LAYER)),
    ] {
        let listed = named(key, with_unit)?;
        if let Some((name, _)) = listed.iter().find(|(n, _)| !valid_name(n)) {
            return Err(format!(
                "BENCHMARK.json {key}: {name:?} is not a valid name"
            ));
        }
        if listed != reported {
            let diff: Vec<_> = listed
                .iter()
                .filter(|x| !reported.contains(x))
                .chain(reported.iter().filter(|x| !listed.contains(x)))
                .collect();
            return Err(format!(
                "BENCHMARK.json {key} differs from what the binary reports (order matters): {diff:?}"
            ));
        }
    }
    gates(&doc)?;
    Ok(())
}

/// workload → metric → one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read `bench all --out` rows; also counts failed ops over all rows.
pub fn read_results(text: &str) -> Result<(ResultSet, u64), String> {
    let mut set = ResultSet::new();
    let mut failed = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = row
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        failed += row.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if row.get("correct").and_then(Value::as_bool) != Some(true) {
            failed = failed.max(1);
        }
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((set, failed))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Quartile spread of a set of runs; a single run has none.
fn spread(v: &[f64]) -> f64 {
    if v.len() >= 2 {
        quartile_spread(v)
    } else {
        0.0
    }
}

/// Judge B against A for one metric on one workload.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    let sign = if gate.higher_is_better { 1.0 } else { -1.0 };
    // Positive gain = B is better, as a share of A's median.
    let gain = sign * (median(b) - median(a)) / median(a).abs();
    // Set-up is single-digit milliseconds for some workloads; its spread
    // is reported but, as in the acceptance rule, not held to the bound.
    let noisy = gate.name != "setup_s" && spread(a).max(spread(b)) > gate.bound;
    let worst_b = b.iter().map(|&x| sign * x).fold(f64::INFINITY, f64::min);
    let best_a = a
        .iter()
        .map(|&x| sign * x)
        .fold(f64::NEG_INFINITY, f64::max);
    if noisy {
        if worst_b > best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if gain < -gate.bound {
        Verdict::Worse
    } else if gain > gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `compare A B`: print one line per workload × metric; true when nothing
/// is worse or unresolved and no op failed in either set.
pub fn compare_files(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let doc: Value = serde_json::from_str(&read(benchmark_json)?).map_err(|e| e.to_string())?;
    let gates = gates(&doc)?;
    let (set_a, failed_a) = read_results(&read(a)?)?;
    let (set_b, failed_b) = read_results(&read(b)?)?;

    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound"
    );
    let mut clean = failed_a == 0 && failed_b == 0;
    for (workload, metrics_a) in &set_a {
        for gate in &gates {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&gate.name),
                set_b.get(workload).and_then(|m| m.get(&gate.name)),
            ) else {
                continue;
            };
            let verdict = judge(gate, va, vb);
            clean &= matches!(verdict, Verdict::Same | Verdict::Better);
            println!(
                "{:<22} {:<12} {:>12.5} {:>12.5} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {:?}",
                workload,
                gate.name,
                median(va),
                median(vb),
                (median(vb) / median(va) - 1.0) * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                gate.bound * 100.0,
                verdict,
            );
        }
    }
    println!("failed ops: A {failed_a}, B {failed_b}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, higher: bool, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn names_follow_the_contract() {
        for good in [
            "setup_s",
            "serve.server.batch_rows_mean",
            "replay_fcfs_shallow",
            "1st-try",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "lat p50", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let thr = gate("ops_per_s", true, 0.05);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&thr, &a, &[100.2, 99.8, 100.9, 99.1, 100.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(&thr, &a, &[90.0, 91.0, 89.0, 90.5, 89.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&thr, &a, &[110.0, 111.0, 109.0, 110.5, 109.5]),
            Verdict::Better
        );
        // Spread beyond the bound: within-bound means nothing…
        let wild = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&thr, &a, &wild), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let lat = gate("lat_p50_us", false, 0.05);
        assert_eq!(
            judge(&lat, &[200.0, 260.0, 230.0], &[150.0, 190.0, 170.0]),
            Verdict::Better
        );
        // Set-up's spread is reported, not gated.
        let setup = gate("setup_s", false, 0.25);
        assert_eq!(
            judge(&setup, &[0.01, 0.02, 0.04], &[0.011, 0.021, 0.039]),
            Verdict::Same
        );
    }

    #[test]
    fn result_rows_group_by_workload_and_metric() {
        let text = r#"{"workload":"w","correct":true,"failed":0,"metrics":{"m":{"value":1.5,"unit":"s"}}}
{"workload":"w","correct":true,"failed":2,"metrics":{"m":{"value":2.5,"unit":"s"}}}
"#;
        let (set, failed) = read_results(text).unwrap();
        assert_eq!(set["w"]["m"], vec![1.5, 2.5]);
        assert_eq!(failed, 2);
        assert!(read_results("{\"metrics\":{}}").is_err());
    }
}
