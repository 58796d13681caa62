#!/usr/bin/env bash
# Byte identity against another revision. `ci/against.sh <rev>` checks
# <rev> out as a git worktree under a temporary directory (local history
# only), builds it and this checkout, and checks that the two builds
# write, serve and finish each other's stores byte for byte:
#   1. `sweep_shard --shard 0/1` stores at every capture, each side's
#      store exported through its own `--migrate` in both layouts;
#   2. a 2-worker `sweep_drive`, on each side, compared the same way;
#   3. a sweep cache <rev> populated serves this checkout's `paper_report`
#      with zero simulations, and the transcript is docs/paper-report.txt;
#   4. a <rev> server answers this checkout's client, and the reverse;
#   5. a drive directory <rev> half-drained, one slot's store holding
#      chunks no later slot owns, is finished by this checkout.
# Exits 1 naming the first file that differs, 2 on a usage error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -eq 1 ] || { echo "usage: ci/against.sh <rev>" >&2; exit 2; }
rev=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "against: unknown revision $1" >&2; exit 2; }
root=$PWD
tmp=$(mktemp -d)
servers=()
cleanup() {
  for pid in "${servers[@]}"; do kill "$pid" 2>/dev/null || true; done
  git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --detach --quiet "$tmp/base" "$rev"
build() { # <checkout> <target dir>
  (cd "$1" && cargo build --release --offline -q --target-dir "$2" -p bench \
    --bin sweep_shard --bin sweep_drive --bin sweep_serve --bin paper_report)
}
build "$tmp/base" "$tmp/base-target"
build "$root" "$root/target"
declare -A bin=([base]=$tmp/base-target/release [change]=$root/target/release)

# Runs write relative paths (paper_report's CSVs) under the scratch
# directory, and no run reads a cache or service it was not given.
out=$tmp/out
mkdir -p "$out"
cd "$out"
export WL_SWEEP_CACHE_DIR=off WL_SWEEP_SERVICE=off
files=0
same() { # <expected> <actual>
  cmp -s "$1" "$2" || { echo "against $rev: $2 differs from $1" >&2; exit 1; }
  files=$((files + 1))
}

# Exports <side>-<name>.wls through <side>'s own `--migrate` to
# <side>-<name>-binary.wls and <side>-<name>-text.wls, so the comparison
# does not depend on which layout either side writes by default.
export_both() { # <side> <name>
  for format in binary text; do
    "${bin[$1]}/sweep_shard" --migrate "$1-$2.wls" "$1-$2-$format.wls" --format $format > /dev/null
  done
}
# Compares both layouts of <name> across the two sides.
same_both() { # <name>
  for format in binary text; do same "base-$1-$format.wls" "change-$1-$format.wls"; done
}

# 1. Shard stores, every capture x layout; the change's store as written
#    is the binary layout.
for capture in scalar sketch series; do
  for side in base change; do
    "${bin[$side]}/sweep_shard" --shard 0/1 --capture "$capture" --store "$side-$capture.wls" > /dev/null
    export_both $side $capture
  done
  same_both $capture
  same "base-$capture-binary.wls" "change-$capture.wls"
done

# 2. A 2-worker drive on each side.
for side in base change; do
  "${bin[$side]}/sweep_drive" --workers 2 --dir "$side-drive" --out "$side-drive.wls" > /dev/null
  export_both $side drive
done
same_both drive
same change-scalar-binary.wls change-drive.wls

# 3. A cache the base populated serves the change's report, warm.
WL_SWEEP_CACHE_DIR=cache "${bin[base]}/paper_report" > base-report.txt 2> /dev/null
WL_SWEEP_CACHE_DIR=cache WL_SWEEP_EXPECT_MISSES=0 "${bin[change]}/paper_report" > change-report.txt 2> /dev/null
same "$root/docs/paper-report.txt" change-report.txt

# 4. Over the wire, each side's server under the other side's client:
#    a cold pass the server simulates, then a fresh client served
#    entirely over the wire. The server's store is the local one.
WL_SWEEP_CACHE_DIR=local "${bin[change]}/paper_report" agreement > local.txt 2> /dev/null
for pair in base:change change:base; do
  server=${pair%:*} client=${pair#*:}
  sock=$out/$server-serves-$client.sock
  "${bin[$server]}/sweep_serve" --socket "$sock" --store "$server-serves-$client.wls" > "$sock.log" 2>&1 &
  servers+=($!)
  for _ in $(seq 1 100); do grep -q ready "$sock.log" && break; sleep 0.1; done
  grep -q ready "$sock.log" || { echo "against: the $server server never came up" >&2; exit 1; }
  for pass in cold warm; do
    expect=(); [ $pass = warm ] && expect=(WL_SWEEP_EXPECT_MISSES=0)
    env "${expect[@]}" WL_SWEEP_SERVICE="unix:$sock" WL_SWEEP_CACHE_DIR="$client-$pass" \
      "${bin[$client]}/paper_report" agreement > "$client-$pass.txt" 2> /dev/null
    same local.txt "$client-$pass.txt"
  done
  "${bin[$server]}/sweep_serve" --shutdown "unix:$sock" > /dev/null
  wait "${servers[-1]}"
  same local/sweeps.wls "$server-serves-$client.wls"
done

# 5. A half-drained drive directory: the base's slot 0 crashes after its
#    first chunk with no restart left (exit 1), and a base worker for slot
#    1 aborts after two chunks. The change finishes it with one slot, so
#    slot 1's done chunk lives only in a store no slot of its owns.
d=handoff
rc=0
"${bin[base]}/sweep_drive" --workers 1 --crash-worker 0 --retries 0 --dir $d --out $d/merged.wls > /dev/null 2>&1 || rc=$?
[ $rc = 1 ] || { echo "against: the $rev half-drain exited $rc, not 1" >&2; exit 1; }
rc=0
("${bin[base]}/sweep_drive" --frontier-worker --frontier $d/frontier --worker-id w1-a0 \
  --store $d/worker-1.wls --crash-after-chunks 2; exit) > /dev/null 2>&1 || rc=$?
[ $rc != 0 ] || { echo "against: the $rev slot-1 worker did not crash" >&2; exit 1; }
"${bin[change]}/sweep_drive" --workers 1 --steal-ms 500 --dir $d --out change-$d.wls > /dev/null
export_both change $d
for format in binary text; do same "change-scalar-$format.wls" "change-$d-$format.wls"; done

echo "against $rev: $files files byte-identical"
