//! End-to-end checks of the `replay` binary: `--smoke` prints the same
//! schedules as always and the served head agrees with the in-process
//! agent; a 200 000-job replay keeps its schedules and finishes well
//! inside a timeout; the agent never replays more jobs than the trace
//! holds; and no run leaves a file behind.
//!
//! Each run has both `TMPDIR` and its working directory pointed at a
//! fresh directory of its own test, which must be empty again when the
//! binary exits.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long one run may take before the test kills it. The 200 000-job
/// replay takes seconds even in a debug build; a backfill pass that has
/// gone back to rescanning the wait queue took sixteen minutes in
/// release.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Run `replay` with `args` in a directory named after `test`, fail on a
/// non-zero exit, a timeout or a file left behind, and return its stdout.
fn replay(test: &str, args: &[&str]) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("replay_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .env("TMPDIR", &dir)
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay");
    let start = Instant::now();
    while child.try_wait().expect("wait for replay").is_none() {
        if start.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("replay {args:?} still running after {TIMEOUT:?}: killed");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("collect replay output");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "replay {args:?} failed: {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "replay left files behind: {left:?}");
    std::fs::remove_dir(&dir).unwrap();
    stdout
}

/// The fields of one head's line named by `keys`, as printed: each key is
/// the word before or after its value (`" jobs"`, `"peak queue"`).
fn fields<const N: usize>(stdout: &str, label: &str, keys: [&str; N]) -> [String; N] {
    let prefix = format!("{label}:");
    let line = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{stdout}"));
    keys.map(|key| {
        line.split(", ")
            .map(str::trim)
            .find_map(|s| s.strip_prefix(key).or_else(|| s.strip_suffix(key)))
            .unwrap_or_else(|| panic!("no `{key}` in: {line}"))
            .trim()
            .to_string()
    })
}

/// The four schedule fields of one head's line: decisions, peak queue,
/// bsld and util.
fn schedule(stdout: &str, label: &str) -> [String; 4] {
    fields(stdout, label, [" decisions", "peak queue", "bsld", "util"])
}

#[test]
fn smoke_prints_known_schedules_and_leaves_no_files() {
    let stdout = replay("smoke", &["--smoke"]);
    assert_eq!(schedule(&stdout, "FCFS"), ["188", "190", "45.496", "0.940"]);
    assert_eq!(schedule(&stdout, "SJF"), ["1023", "158", "9.708", "0.783"]);
    assert_eq!(
        schedule(&stdout, "RL-served"),
        schedule(&stdout, "RL-agent"),
        "the served head must schedule exactly like the in-process agent"
    );
}

/// The trace-scale tripwire: 200 000 jobs on the model's own arrivals
/// with EASY on, so FCFS's queue peaks near 42 000 and every started job
/// costs one first-fit descent (`IndexedQueue::first_fit`).
#[test]
fn a_200k_job_replay_keeps_its_schedules_within_the_timeout() {
    let stdout = replay("200k", &["--jobs", "200000"]);
    assert_eq!(
        schedule(&stdout, "FCFS"),
        ["12486", "41807", "22823.020", "0.999"]
    );
    assert_eq!(
        schedule(&stdout, "SJF"),
        ["104941", "11223", "220.929", "0.778"]
    );
}

#[test]
fn the_agent_replays_no_more_jobs_than_the_trace_holds() {
    let stdout = replay("five_jobs", &["--jobs", "5"]);
    for head in ["FCFS", "SJF", "RL-agent"] {
        assert_eq!(fields(&stdout, head, [" jobs"]), ["5"], "{head}");
    }
}
