#!/usr/bin/env bash
# Runs the full set twice on the same code and compares the two results
# against the benchmark's own bounds. Extra arguments (e.g. --seed 0x12)
# go to both runs. Exits non-zero on any breach or failed check.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
"$here/run.sh" "$@" --json benchmark/out/repeat-a.json
"$here/run.sh" "$@" --json benchmark/out/repeat-b.json
"$here/run.sh" --compare benchmark/out/repeat-a.json benchmark/out/repeat-b.json
