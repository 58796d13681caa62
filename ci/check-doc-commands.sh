#!/usr/bin/env bash
# Every `--bin X` / `--bench X` / `--example X` the live docs (or the files
# given) mention must exist; PERF.md and CHANGES.md are history and exempt.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- README.md docs/*.md .claude/skills/verify/SKILL.md
rc=0
while read -r kind name; do
  case $kind in
    --bin) [ -f "crates/bench/src/bin/$name.rs" ] ;;
    --bench) grep -hs -A2 '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml | grep -qx "name = \"$name\"" ;;
    --example) [ -f "examples/$name.rs" ] ;;
  esac || { echo "docs mention '$kind $name', which does not exist" >&2; rc=1; }
done < <(grep -ohE -- '--(bin|bench|example) [A-Za-z0-9_-]+' "$@" | sort -u)
exit $rc
