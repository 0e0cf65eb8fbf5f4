//! The command-line contract: usage errors exit 2 without a result
//! line; a run ends its stdout with the result object.

use std::process::Command;

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "race"],
        &["--workload", "table2", "--trace", "2"],
        &["--workload", "table2", "--seed", "x"],
        &["--workload", "table2", "--bogus"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn a_run_prints_provenance_and_every_end_to_end_metric() {
    let out = perfbench(&["--workload", "baselines", "--seconds", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("provenance {\"workload\": \"baselines\", \"seed\": \"default\""));
    let result = lines.last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": 45, \"failed\": 0, \"metrics\": {")
    );
    for name in [
        "setup_s",
        "assign_s",
        "peak_rss_mb",
        "avg_tcp_ratio",
        "max_tcp_ratio",
        "via_count_ratio",
        "overflow_ratio",
    ] {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
    }
}
