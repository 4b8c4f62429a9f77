//! `bench` — the benchmark's one binary.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   the driver's form
//! bench run   W [--seed N] [--seconds S] [--scale smoke]  end-to-end row, tracing off
//! bench trace W [--seed N] [--seconds S] [--scale smoke]  per-layer row
//! bench all   [--seed N] [--seconds S] [--runs R] [--out FILE]
//!                                   every workload, each in its own child process
//! bench compare A B                 two result sets → better / same / worse / unresolved
//! bench check                       release profile and BENCHMARK.json agree with the code
//! ```
//!
//! `run` and `trace` print an `info` line for people, then — as the last
//! line of standard output — the result object the driver reads.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};

use rlsched_benchmark::{
    compare, hygiene, merge_info, run_workload, trace_workload, RunArgs, Scale, WORKLOADS,
};

const USAGE: &str = "usage: bench --workload W --seed N --seconds S --trace 0|1\n       \
     bench run|trace W [--seed N] [--seconds S] [--scale smoke|full]\n       \
     bench all [--seed N] [--seconds S] [--runs R] [--out FILE]\n       \
     bench compare A B\n       bench check";

/// Positional words and `--flag value` pairs, in order of appearance.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args;
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.push((flag.to_string(), value));
                }
                None => cli.words.push(a),
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn run_args(&self) -> Result<RunArgs, String> {
        let scale = match self.flag("scale") {
            None | Some("full") => Scale::Full,
            Some("smoke") => Scale::Smoke,
            Some(other) => return Err(format!("--scale: {other:?} is neither smoke nor full")),
        };
        let seconds: f64 = self.parsed("seconds", DEFAULT_SECONDS)?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(RunArgs {
            seed: self.parsed("seed", 1)?,
            seconds,
            scale,
        })
    }
}

/// `run_seconds` of BENCHMARK.json, for invocations that do not say.
const DEFAULT_SECONDS: f64 = 10.0;

/// A per-process scratch directory under `benchmark/work/`, entered on
/// creation and removed on drop. Traces and Unix sockets are created by
/// relative name inside it: nothing is written outside the checkout, and
/// socket paths stay short however deep the checkout sits.
struct WorkDir(PathBuf);

impl WorkDir {
    fn enter() -> Result<WorkDir, String> {
        let dir = Path::new(hygiene::BENCH_DIR)
            .join("work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(hygiene::BENCH_DIR);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One `run` or `trace` row: info line, then the result line.
fn measure(workload: &str, traced: bool, cli: &Cli, cleared: &[String]) -> Result<(), String> {
    let args = cli.run_args()?;
    if args.scale == Scale::Full {
        hygiene::refuse_unfit_machine()?;
    }
    let work = WorkDir::enter()?;
    let outcome = if traced {
        trace_workload(workload, args)
    } else {
        run_workload(workload, args)
    };
    drop(work);
    let mut outcome = outcome?;
    merge_info(
        &mut outcome.info,
        json!({"traced": traced, "seconds": args.seconds, "machine": hygiene::machine_shape(cleared)}),
    );
    println!(
        "info {}",
        serde_json::to_string(&outcome.info).expect("a Value always serializes")
    );
    println!("{}", outcome.result_line());
    Ok(())
}

/// `all`: every workload `--runs` times, each row from a child process of
/// its own (so `peak_rss_mb` is the workload's, not the suite's), appended
/// to `--out` as one JSON object per line for `compare`.
fn all(cli: &Cli) -> Result<bool, String> {
    let args = cli.run_args()?;
    let runs: usize = cli.parsed("runs", 1)?;
    let out = cli.flag("out").map(PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = String::new();
    let mut all_correct = true;
    for run in 0..runs {
        for workload in WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", workload]);
            cmd.args(["--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if args.scale == Scale::Smoke {
                cmd.args(["--scale", "smoke"]);
            }
            // This process already cleared RLSCHED_*; the child inherits that.
            let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !output.status.success() || last.is_empty() {
                return Err(format!(
                    "{workload}: {}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let result: Value =
                serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
            all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
            let mut row = json!({"workload": workload, "seed": args.seed, "run": run});
            merge_info(&mut row, result);
            let line = serde_json::to_string(&row).expect("a Value always serializes");
            println!("{line}");
            rows.push_str(&line);
            rows.push('\n');
        }
    }
    if let Some(path) = out {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(rows.as_bytes()).map_err(|e| e.to_string())?;
    }
    Ok(all_correct)
}

fn check() -> Result<(), String> {
    hygiene::check_release_profiles()?;
    let path = Path::new(hygiene::BENCH_DIR).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::check_contract(&text)?;
    println!("ok: release profiles match and BENCHMARK.json names what the binary reports");
    Ok(())
}

fn dispatch(cli: &Cli, cleared: &[String]) -> Result<bool, String> {
    let word = |i: usize| cli.words.get(i).map(String::as_str);
    match (word(0), word(1), word(2)) {
        (None, None, None) => {
            let workload = cli.flag("workload").ok_or(USAGE)?;
            let traced = match cli.flag("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
            };
            measure(workload, traced, cli, cleared).map(|()| true)
        }
        (Some("run"), Some(w), None) => measure(w, false, cli, cleared).map(|()| true),
        (Some("trace"), Some(w), None) => measure(w, true, cli, cleared).map(|()| true),
        (Some("all"), None, None) => all(cli),
        (Some("compare"), Some(a), Some(b)) => {
            let bounds = Path::new(hygiene::BENCH_DIR).join("../BENCHMARK.json");
            compare::compare_files(Path::new(a), Path::new(b), &bounds)
        }
        (Some("check"), None, None) => check().map(|()| true),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // Before anything else: program code caches these switches on first use.
    let cleared = hygiene::clear_rlsched_env();
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| dispatch(&cli, &cleared));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
