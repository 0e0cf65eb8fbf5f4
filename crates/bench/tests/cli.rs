//! Flag errors of the `cpla-bench` binary: each exits 2 with a message
//! naming the flag, before any design is generated.

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
