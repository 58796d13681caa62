#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
# Every argument goes to the binary:
#   run.sh                         all five workloads, end-to-end metrics
#   run.sh --trace                 all five, per-layer metrics and budgets
#   run.sh --workload W --seed N --seconds S --trace 0|1
#   run.sh --quick                 smoke run (grids / 16), not comparable
#   run.sh --json OUT              also write the results as JSON
#   run.sh --compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/wl-benchmark" "$@"
