//! End-to-end check of the `replay` binary: `--smoke` prints the same
//! schedules as always, the served head agrees with the in-process agent,
//! and the run leaves no file behind.
//!
//! The binary runs with both `TMPDIR` and its working directory pointed
//! at one fresh directory, which must be empty again when it exits.

use std::path::PathBuf;
use std::process::Command;

/// The four schedule fields of one head's line: decisions, peak queue,
/// bsld and util, as printed.
fn schedule(stdout: &str, label: &str) -> [String; 4] {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("{label}:")))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{stdout}"));
    let field = |key: &str| {
        line.split(", ")
            .map(str::trim)
            .find_map(|s| s.strip_prefix(key).or_else(|| s.strip_suffix(key)))
            .unwrap_or_else(|| panic!("no `{key}` in: {line}"))
            .trim()
            .to_string()
    };
    [
        field(" decisions"),
        field("peak queue"),
        field("bsld"),
        field("util"),
    ]
}

#[test]
fn smoke_prints_known_schedules_and_leaves_no_files() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("replay_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .arg("--smoke")
        .env("TMPDIR", &dir)
        .current_dir(&dir)
        .output()
        .expect("spawn replay");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay --smoke failed: {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(schedule(&stdout, "FCFS"), ["188", "190", "45.496", "0.940"]);
    assert_eq!(schedule(&stdout, "SJF"), ["1023", "158", "9.708", "0.783"]);
    assert_eq!(
        schedule(&stdout, "RL-served"),
        schedule(&stdout, "RL-agent"),
        "the served head must schedule exactly like the in-process agent"
    );

    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "replay left files behind: {left:?}");
    std::fs::remove_dir(&dir).unwrap();
}
