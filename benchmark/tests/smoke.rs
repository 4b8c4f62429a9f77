//! Every `run` and `trace` verb at `--scale smoke`: the rows must carry
//! exactly the named metrics with their units, the checks must pass, and
//! the same seed must mean the same inputs. (The estimators, the burst
//! schedule and trace synthesis have unit tests next to their code.)

use std::process::{Command, Output};

use serde_json::Value;

use rlsched_benchmark::compare::valid_name;
use rlsched_benchmark::{END_TO_END, PER_LAYER};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        // A stray execution switch must not leak into a row.
        .env("RLSCHED_FORCE_SCALAR", "1")
        .output()
        .expect("the bench binary runs")
}

/// Run one smoke row; return (result object, info object).
fn row(args: &[&str]) -> (Value, Value) {
    let mut full = args.to_vec();
    full.extend(["--scale", "smoke", "--seconds", "0.05"]);
    let out = bench(&full);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result =
        serde_json::from_str(lines.next().expect("a result line")).expect("result is JSON");
    let info = lines
        .find_map(|l| l.strip_prefix("info "))
        .map(|l| serde_json::from_str(l).expect("info is JSON"))
        .expect("an info line");
    (result, info)
}

fn assert_row(result: &Value, expected: &[(&str, &str)], what: &str) {
    let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}: {result:?}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{what}: every named metric, nothing else"
    );
    for &(name, unit) in expected {
        assert!(valid_name(name), "{name}");
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

fn run_and_trace(workload: &str) {
    let (result, info) = row(&["run", workload, "--seed", "3"]);
    assert_row(&result, &END_TO_END, workload);
    for (name, _) in END_TO_END {
        let v = result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap();
        assert!(
            v.as_f64().unwrap() > 0.0,
            "{workload}: end-to-end {name} must never be 0"
        );
    }
    let machine = info.get("machine").expect("machine shape in every row");
    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "cpu_model",
        "simd_arm",
        "rlsched_env_cleared",
    ] {
        assert!(machine.get(key).is_some(), "{workload}: machine.{key}");
    }
    assert_eq!(
        machine
            .get("simd_arm")
            .and_then(Value::as_str)
            .map(|s| s != "scalar"),
        Some(cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("avx2")),
        "RLSCHED_FORCE_SCALAR was cleared before the program read it"
    );

    let (result, info) = row(&["trace", workload, "--seed", "3"]);
    assert_row(&result, &PER_LAYER, &format!("trace {workload}"));
    assert_eq!(info.get("traced").and_then(Value::as_bool), Some(true));
}

#[test]
fn replay_rows() {
    for w in [
        "replay_fcfs_shallow",
        "replay_sjf_scan",
        "replay_sjf_backfill",
        "replay_agent",
    ] {
        run_and_trace(w);
    }
}

#[test]
fn serve_rows() {
    for w in ["serve_closed", "serve_burst"] {
        run_and_trace(w);
    }
}

#[test]
fn train_rows() {
    run_and_trace("train_epochs");
}

#[test]
fn the_drivers_form_is_the_same_row() {
    let (result, info) = row(&[
        "--workload",
        "replay_sjf_scan",
        "--seed",
        "5",
        "--trace",
        "0",
    ]);
    assert_row(&result, &END_TO_END, "driver form");
    assert_eq!(info.get("traced").and_then(Value::as_bool), Some(false));
    let (result, _) = row(&[
        "--workload",
        "replay_sjf_scan",
        "--seed",
        "5",
        "--trace",
        "1",
    ]);
    assert_row(&result, &PER_LAYER, "driver form, traced");
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let simulated = |seed: &str| {
        let (_, info) = row(&["run", "replay_sjf_backfill", "--seed", seed]);
        (
            info.get("decisions").and_then(Value::as_f64).unwrap(),
            info.get("avg_bounded_slowdown")
                .and_then(Value::as_f64)
                .unwrap(),
        )
    };
    assert_eq!(simulated("11"), simulated("11"));
    assert_ne!(simulated("11"), simulated("12"));
}

#[test]
fn check_passes_and_misuse_prints_no_row() {
    let out = bench(&["check"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for bad in [
        &["run", "no_such_workload", "--scale", "smoke"][..],
        &["frobnicate"][..],
    ] {
        let out = bench(bad);
        assert!(!out.status.success(), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a row");
    }
}
