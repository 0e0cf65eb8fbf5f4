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

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests"
cargo test --workspace -q --offline

echo "==> route/ispd full property sweeps"
cargo test -q --offline -p route -p ispd --features proptest

echo "==> route, initial-assignment and whole-suite pins, release (the scale-100k and suite pins are ignored in debug builds)"
cargo test --release -q --offline -p route --test route_pin --test initial_pin --test suite_pin

echo "==> partition-program and SDP-solve pins, release"
cargo test --release -q --offline -p cpla --test problem_pin --test solve_pin

echo "==> baseline pins, release (newblue5 is ignored in debug builds)"
cargo test --release -q --offline --test baseline_pins

echo "==> solver/cpla/timing/grid full property sweeps"
cargo test -q --offline -p solver -p cpla -p timing -p grid --features proptest

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
