//! Flag errors of the `cpla-conform` binary: each exits 2 with a
//! message naming the flag, before any trial runs.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cpla-conform"))
        .args(args)
        .output()
        .unwrap();
    let code = out.status.code().expect("no exit code (signal?)");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn non_finite_or_negative_gap_bounds_exit_two() {
    // The gates test `gap > bound`, which a NaN bound never trips.
    for flag in ["--gap-bound", "--lagrange-gap-bound", "--greedy-gap-bound"] {
        for bad in ["NaN", "inf", "-inf", "-0.5", "abc"] {
            let (code, stderr) = run(&["--trials", "0", flag, bad]);
            assert_eq!(code, 2, "{flag} {bad}: stderr: {stderr}");
            assert!(stderr.contains(flag), "{flag} {bad}: {stderr}");
        }
        let (code, stderr) = run(&["--trials", "0", flag, "0"]);
        assert_eq!(code, 0, "{flag} 0: stderr: {stderr}");
    }
}

#[test]
fn the_removed_backend_flag_is_unknown() {
    let (code, stderr) = run(&["--trials", "0", "--backend", "per-leaf"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --backend"), "{stderr}");
}
