//! Flag errors of the `cpla-bench` binary: each exits 2 with a message
//! naming the flag, before any design is generated. And a run without
//! `--bench-json` writes no file.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cpla-bench"))
        .args(args)
        .output()
        .unwrap();
    let code = out.status.code().expect("no exit code (signal?)");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_values_exit_two_naming_the_flag() {
    for (flag, bad) in [
        ("--seed", "abc"),
        ("--nets", "-3"),
        ("--threads", "four"),
        ("--reps", "1.5"),
        ("--size", "48xwide"),
        ("--ratio", "NaN"),
        ("--ratio", "7"),
        ("--compare-threads", ""),
    ] {
        let (code, stderr) = run(&[flag, bad]);
        assert_eq!(code, 2, "{flag} {bad}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{flag} {bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {bad}: {stderr}");
    }
}

#[test]
fn the_removed_mode_flag_is_unknown() {
    let (code, stderr) = run(&["--mode", "incremental"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --mode"), "{stderr}");
}

#[test]
fn without_bench_json_no_baseline_is_written() {
    let dir = std::env::temp_dir().join(format!("cpla-bench-{}-cwd", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cpla-bench"))
        .args("--reps 1 --nets 40 --rounds 1 --threads 1".split(' '))
        .current_dir(&dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(written.is_empty(), "the run wrote {written:?}");
}
