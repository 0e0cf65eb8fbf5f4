#!/usr/bin/env bash
# Offline-safe local verification mirroring .github/workflows/ci.yml:
# formatting, lints, tier-1 build + tests. No network access required —
# the workspace has no external registry dependencies beyond what is
# already vendored in the toolchain's cache, so everything runs with
# --offline.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> audit: workspace lint"
cargo run -p audit --offline

echo "==> audit: analyzer self-test"
cargo run -p audit --offline -- --fixture

echo "==> audit: panic-reachability baseline diff"
cargo run -q -p audit --offline -- --panic-report > target/panic_report.txt
diff -u crates/audit/panic_baseline.txt target/panic_report.txt

echo "==> audit: findings JSON artifact"
cargo run -q -p audit --offline -- --json > target/audit_findings.json

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests"
cargo test --workspace -q --offline

echo "==> route/ispd full property sweeps"
cargo test -q --offline -p route -p ispd --features proptest

echo "==> solver/cpla/timing full property sweeps"
cargo test -q --offline -p solver -p cpla -p timing --features proptest

echo "==> benchmark package tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> observability artifacts: cpla-bench + cpla-bench-check"
# One instrumented rep of the default workload; the checker validates
# that both exporters still emit parseable artifacts and that the
# BENCH_cpla.json stage/mode keys match the committed baseline (values
# are machine-dependent and allowed to drift). The root `cargo build`
# only covers the root package's deps, so build the bench bins
# explicitly.
cargo build --release --offline -p cpla-bench
./target/release/cpla-bench --reps 1 --alloc-stats \
    --trace-chrome target/obs-trace.json --metrics target/obs-metrics.txt \
    --bench-json target/BENCH_cpla.json >/dev/null
./target/release/cpla-bench-check --trace target/obs-trace.json \
    --metrics target/obs-metrics.txt --bench target/BENCH_cpla.json \
    --baseline BENCH_cpla.json

echo "==> conformance: cpla-conform --trials 200 --seed 42"
cargo build --release --offline -p conform
./target/release/cpla-conform --trials 200 --seed 42

echo "verify.sh: all checks passed"
