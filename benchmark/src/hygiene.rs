//! Run hygiene: the conditions a row is only comparable under, checked
//! before measuring and recorded in every row.

use std::path::{Path, PathBuf};

use serde_json::{json, Value};

/// The benchmark package's directory, fixed at build time. Each checkout
/// builds its own binary, so the path always names the checkout it runs in.
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Remove every `RLSCHED_*` variable from this process's environment and
/// return the names removed. The program reads its execution switches
/// (`RLSCHED_FORCE_SCALAR`, `RLSCHED_WIRE`, `RLSCHED_THREADS`, …) once,
/// lazily; clearing them first thing in `main`, before any program code
/// runs, pins every row to the library defaults.
pub fn clear_rlsched_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RLSCHED_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Refuse conditions under which a full-scale row would be meaningless.
pub fn refuse_unfit_machine() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "debug build: measure with `cargo run --release` (or pass --scale smoke)".into(),
        );
    }
    let cores = nproc();
    if cores < 2 {
        return Err(format!(
            "{cores} core available: the serve workloads need the server and its clients \
             to run at once (pass --scale smoke to exercise the code paths anyway)"
        ));
    }
    Ok(())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read straight from `.git` (the driver's
/// checkout is not a repository; rows from it say "unknown").
fn git_commit() -> String {
    let git = Path::new(BENCH_DIR).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build shape recorded in every row (ROADMAP item 1:
/// a number without its machine reads as a regression on the next box).
pub fn machine_shape(cleared: &[String]) -> Value {
    json!({
        "rlsched_env_cleared": cleared,
        "git_commit": git_commit(),
        "rustc": rustc_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "simd_arm": if rlsched_nn::simd::simd_enabled() { "avx2+fma" } else { "scalar" },
        "debug_build": cfg!(debug_assertions),
    })
}

/// The body of `[section]` in a manifest: its non-empty, non-comment
/// lines up to the next table header, trimmed.
pub fn manifest_section(text: &str, section: &str) -> Vec<String> {
    let header = format!("[{section}]");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// `bench check`, first half: the nested package does not inherit the
/// root's release profile, so the two tables must be kept equal by hand —
/// a benchmark built with different codegen settings than the binaries
/// users run measures a different program.
pub fn check_release_profiles() -> Result<(), String> {
    let read = |rel: &str| {
        let p = Path::new(BENCH_DIR).join(rel);
        std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let ours = manifest_section(&read("Cargo.toml")?, "profile.release");
    let root = manifest_section(&read("../Cargo.toml")?, "profile.release");
    if ours == root {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, the root manifest has {root:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_sections_are_extracted_without_comments() {
        let text = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\n# note\nlto = false\n\n[lib]\n";
        assert_eq!(
            manifest_section(text, "profile.release"),
            vec!["debug = true".to_string(), "lto = false".to_string()]
        );
        assert!(manifest_section(text, "profile.dev").is_empty());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
