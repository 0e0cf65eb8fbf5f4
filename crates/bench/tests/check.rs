//! `cpla-bench-check` on the committed BENCH records, and on a record
//! carrying a mode field the emitter no longer writes.

use std::path::PathBuf;
use std::process::Command;

/// Runs the checker on one bench file: `(success, stderr)`.
fn check(bench: &PathBuf) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cpla-bench-check"))
        .arg("--bench")
        .arg(bench)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A committed record at the repository root.
fn record(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

#[test]
fn committed_records_pass() {
    for name in ["BENCH_cpla.json", "BENCH_scale.json", "BENCH_scale1m.json"] {
        let (ok, stderr) = check(&record(name));
        assert!(ok, "{name}: {stderr}");
    }
}

#[test]
fn a_mode_field_the_emitter_no_longer_writes_fails() {
    // `solve_secs`, a merged wall bucket both emitters stopped writing.
    let text = std::fs::read_to_string(record("BENCH_scale.json")).unwrap();
    let stale = text.replacen("\"wall_secs\":", "\"solve_secs\":1.5,\"wall_secs\":", 1);
    assert_ne!(stale, text, "the fixture must carry the stale field");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stale_bench.json");
    std::fs::write(&path, stale).unwrap();
    let (ok, stderr) = check(&path);
    assert!(!ok, "a stale field passed the check");
    assert!(stderr.contains("solve_secs"), "{stderr}");
}
