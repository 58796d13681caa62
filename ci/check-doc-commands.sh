#!/usr/bin/env bash
# Every `--bin X` / `--bench X` / `--example X`, every checked-in reading
# `BENCH_<n>[.trace].json`, every `crates/<name>` / `vendor/<name>` directory
# and every backticked `wl-<name>` package the live docs and CI (or the files
# given) mention must exist; PERF.md, ROADMAP.md and CHANGES.md are history
# and exempt. And `vendor/` holds exactly the directories the root manifest
# names, so a shim nothing builds cannot be left behind.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- README.md docs/*.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml
rc=0
while read -r kind name; do
  case $kind in
    --bin) [ -f "crates/bench/src/bin/$name.rs" ] ;;
    --bench) grep -hs -A2 '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml | grep -qx "name = \"$name\"" ;;
    --example) [ -f "examples/$name.rs" ] ;;
    BENCH_*) [ -f "$kind" ] ;;
    crates/*|vendor/*) [ -d "$kind" ] ;;
    \`wl-*) grep -qsx "name = \"${kind#?}\"" crates/*/Cargo.toml benchmark/Cargo.toml ;;
  esac || { echo "docs mention '$kind${name:+ $name}', which does not exist" >&2; rc=1; }
done < <(grep -ohE -- '--(bin|bench|example) [A-Za-z0-9_-]+|BENCH_[0-9]+(\.trace)?\.json|(crates|vendor)/[A-Za-z0-9_-]+|`wl-[a-z0-9_-]+' "$@" | sort -u)
on_disk=$(find vendor -mindepth 1 -maxdepth 1 -type d | sort)
in_manifest=$(grep -oE 'vendor/[A-Za-z0-9_-]+' Cargo.toml | sort -u)
for dir in $(comm -23 <(echo "$on_disk") <(echo "$in_manifest")); do
  echo "$dir exists, but the root manifest does not reference it" >&2; rc=1
done
for dir in $(comm -13 <(echo "$on_disk") <(echo "$in_manifest")); do
  echo "the root manifest references $dir, which does not exist" >&2; rc=1
done
exit $rc
