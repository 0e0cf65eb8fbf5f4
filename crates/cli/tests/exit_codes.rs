//! End-to-end exit-code tests: each `FlowError` class surfacing from
//! `cpla-cli optimize` must map to its documented process exit code
//! (2 usage, 3 parse, 4 grid, 5 config; 1 for untyped front-end
//! failures). The `Solve` (6), `Input` (7) and `Invariant` (8) classes
//! cannot be provoked through the CLI's own well-formed plumbing — the
//! ILP degrades to its greedy incumbent rather than erroring, and the
//! front end never hands the engines malformed released sets — so
//! their mapping is pinned by the unit test in `main.rs` instead.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpla-cli"))
}

/// A per-test scratch file that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str, contents: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("cpla-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A tiny but complete ISPD'08 design: 4x4 grid, 2 layers, one 2-pin
/// net, no capacity adjustments.
const TINY: &str = "\
grid 4 4 2
vertical capacity 0 8
horizontal capacity 8 0
minimum width 1 1
minimum spacing 1 1
via spacing 1 1
0 0 40 40
num net 1
n0 0 2 1
20 20 1
100 20 1
0
";

fn exit_of(out: &std::process::Output) -> i32 {
    out.status.code().expect("no exit code (signal?)")
}

#[test]
fn usage_errors_exit_two() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(exit_of(&out), 2);
    let out = bin()
        .args(["optimize", "x.ispd", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(exit_of(&out), 2);
}

#[test]
fn missing_file_exits_one() {
    let out = bin()
        .args(["optimize", "/nonexistent/nowhere.ispd"])
        .output()
        .unwrap();
    assert_eq!(exit_of(&out), 1);
}

#[test]
fn parse_errors_exit_three() {
    let f = Scratch::new("parse.ispd", "grid four by four\n");
    let out = bin().args(["optimize", f.path()]).output().unwrap();
    assert_eq!(
        exit_of(&out),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn corrupt_headers_exit_three() {
    // A pin count of four billion must end as "unexpected end of file",
    // not as an allocation abort (exit 134); a grid width past u16 must
    // be refused, not wrapped to a smaller grid that then optimizes.
    for (name, from, to, what) in [
        ("pins.ispd", "n0 0 2 1", "n0 0 4000000000 1", "end of file"),
        ("wide.ispd", "grid 4 4 2", "grid 65560 4 2", "grid x"),
    ] {
        let f = Scratch::new(name, &TINY.replace(from, to));
        let out = bin().args(["optimize", f.path()]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_of(&out), 3, "{name}: stderr: {stderr}");
        assert!(stderr.contains(what), "{name}: {stderr}");
    }
}

#[test]
fn grid_errors_exit_four() {
    // Parses fine, but the adjustment spans two layers, which the grid
    // model rejects. Only the trailing adjustment count may change —
    // "0" also appears inside capacity vectors.
    let bad = format!("{}1\n1 1 1 1 1 2 5\n", TINY.strip_suffix("0\n").unwrap());
    let f = Scratch::new("grid.ispd", &bad);
    let out = bin().args(["optimize", f.path()]).output().unwrap();
    assert_eq!(
        exit_of(&out),
        4,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn config_errors_exit_five() {
    // `--alpha` is range-checked by the engine, not the front end.
    let f = Scratch::new("config.ispd", TINY);
    let out = bin()
        .args(["optimize", f.path(), "--alpha", "-1"])
        .output()
        .unwrap();
    assert_eq!(
        exit_of(&out),
        5,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("alpha"), "{stderr}");
}

#[test]
fn broken_pipe_exits_zero() {
    // `cpla-cli optimize ... | head -1` closes our stdout after one
    // line; the remaining report lines hit EPIPE. That is the reader's
    // prerogative, not an error: the run must finish with exit 0 and
    // an empty stderr (before the locked-writer fix this aborted with
    // the panic exit code 101).
    use std::process::Stdio;
    let f = Scratch::new("epipe.ispd", TINY);
    let mut child = bin()
        .args(["optimize", f.path()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end immediately, before the child has written its
    // multi-line report; the kernel buffer is too small to hide it.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_of(&out), 0, "stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "child panicked on EPIPE: {stderr}"
    );
}

#[test]
fn optimize_writes_trace_and_metrics_artifacts() {
    // The observability flags must produce a parseable chrome trace and
    // a non-empty metrics dump without disturbing the exit code.
    let f = Scratch::new("trace.ispd", TINY);
    let trace = std::env::temp_dir().join(format!("cpla-cli-{}-trace.json", std::process::id()));
    let prom = std::env::temp_dir().join(format!("cpla-cli-{}-metrics.txt", std::process::id()));
    let out = bin()
        .args([
            "optimize",
            f.path(),
            "--trace-chrome",
            trace.to_str().unwrap(),
            "--metrics",
            prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        exit_of(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_body = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_body.contains("\"traceEvents\""), "{trace_body}");
    let prom_body = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_body.contains("cpla_stage_wall_seconds"), "{prom_body}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&prom).ok();
}

#[test]
fn a_poisoned_race_lane_maps_to_its_flow_exit_code() {
    // `--alpha -1` poisons the CPLA lane of the race with a typed
    // `ConfigError`. The race joins every lane, propagates the first
    // error in backend-precedence order, and the CLI must surface it
    // with the same exit code a solo CPLA run would have produced.
    let f = Scratch::new("race-poison.ispd", TINY);
    let out = bin()
        .args([
            "optimize",
            f.path(),
            "--assigner",
            "race",
            "--ratio",
            "1.0",
            "--alpha",
            "-1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        exit_of(&out),
        5,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("alpha"), "{stderr}");
}

/// The report lines that carry results (winner, release counts, delay
/// and overflow metrics) with the wall-clock figures stripped: the
/// trailing `{:.2}s` on the overflow line is the only time-dependent
/// token in the deterministic output.
fn result_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            l.starts_with("race winner")
                || l.starts_with("released")
                || l.starts_with("Avg(Tcp)")
                || l.starts_with("Max(Tcp)")
                || l.starts_with("OV#")
        })
        .map(|l| {
            if let Some(idx) = l.rfind("   ") {
                l[..idx].to_string()
            } else {
                l.to_string()
            }
        })
        .collect()
}

#[test]
fn a_clean_race_is_bit_deterministic_across_thread_counts() {
    // The race judges by priced score with an earliest-lane tie-break
    // after every lane joins, so neither OS scheduling nor the CPLA
    // lane's `--threads` fan-out may change the winner or the metrics.
    let f = Scratch::new("race-det.ispd", TINY);
    let mut runs = Vec::new();
    for threads in ["1", "2", "4", "1"] {
        let out = bin()
            .args([
                "optimize",
                f.path(),
                "--assigner",
                "race",
                "--ratio",
                "1.0",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert_eq!(
            exit_of(&out),
            0,
            "threads {threads}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines = result_lines(&out.stdout);
        assert!(
            lines.iter().any(|l| l.starts_with("race winner")),
            "no winner line in: {lines:?}"
        );
        runs.push((threads, lines));
    }
    let (_, first) = &runs[0];
    for (threads, lines) in &runs[1..] {
        assert_eq!(
            lines, first,
            "race output drifted between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn a_starved_ilp_budget_degrades_gracefully() {
    // Even a 1-node branch-and-bound budget must not fail the run: the
    // greedy seed ("stay on current layers" is always hard-feasible)
    // provides an incumbent, so the engine proposes nothing and exits
    // cleanly rather than with the solve error code.
    let f = Scratch::new("solve.ispd", TINY);
    let out = bin()
        .args([
            "optimize",
            f.path(),
            "--engine",
            "ilp",
            "--ratio",
            "1.0",
            "--node-budget",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        exit_of(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
