#!/usr/bin/env bash
# Builds the benchmark, runs its unit tests, then runs the full benchmark
# twice and prints a per-metric agreement table against each metric's bound.
# Exits non-zero on a failed test, a failed correctness check, or a
# disagreement between the two sets. Extra arguments go to `selfcheck`
# (`--seed N`, `--seconds S`).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"
exec cargo run --release --offline --quiet --manifest-path "$manifest" -- selfcheck "$@"
