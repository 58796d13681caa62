#!/usr/bin/env bash
# This checkout against another revision, in one of two halves.
#
# `ci/against.sh <rev>` — byte identity. Exports <rev> into a temporary
# directory (local history only), builds it and this checkout, and
# checks that the two builds write, serve and finish each other's stores
# byte for byte:
#   1. `sweep_shard --shard 0/1` stores at every capture, each side's
#      store exported through its own `--migrate` in both layouts;
#   2. a 2-worker `sweep_drive`, on each side, compared the same way;
#   3. a sweep cache <rev> populated serves this checkout's `paper_report`
#      with zero simulations, and the transcript is docs/paper-report.txt;
#   4. a <rev> server answers this checkout's client, and the reverse;
#   5. a drive directory <rev> half-drained, one slot's store holding
#      chunks no later slot owns, is finished by this checkout;
#   6. this checkout's `sweep_shard`, built in the dev profile and in
#      release with `-C target-cpu=native`, writes step 1's release
#      stores at every capture.
# Exits 1 naming the first file that differs.
#
# `ci/against.sh <rev> --pairs N [--workload W] [--seconds S] [--seed X] [--trace]`
# — pair judging. Builds each side's `benchmark/` once and runs N pairs
# of the two binaries from one working directory, in ABBA order (pair 1
# base first, pair 2 change first, ...), every workload or only W, S
# seconds each (default 10) at seed X (default 0x11), end to end or,
# with --trace, layer by layer. Prints, per workload x metric: both
# medians, the change in the median
# of the pairs and in the ratio of the medians, how many pairs the change
# is ahead in (by the metric's `better` in BENCHMARK.json), the exact
# sign-flip p of the pair median and its 95 % null bound, the exact
# signed-rank p, each pair's change, and each side's quartile spread
# (nearest-rank Q3 - Q1 over the median); then each run's "machine ... x
# slower than reference" factors.
# Both tests take the null that the change does nothing, under which each
# pair's delta is as likely negated, and both count over the same 2^N
# flips of the deltas' signs. The flip p is the share of flips whose
# |pair median| reaches the observed one, and the bound is the 95th
# percentile of |pair median| over the flips (nearest rank): what deltas
# of these sizes read with random signs. The rank p is the share whose
# |signed-rank sum| reaches the observed one: each delta ranked by its
# size (ties share their mean rank; a zero delta keeps its rank and
# carries no sign), summed with its sign. The median test ignores how
# many pairs agree, the rank test how far they move, so a row with
# either p > 0.05 says "unresolved". All three read "-" above 16 pairs.
# `ci/against.sh HEAD --pairs N` runs the same source on both sides: an
# A/A run, whose rows show what noise alone reads.
# Exits 1 if a run fails its checks.
#
# Exit 2 on a usage error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() {
  echo "usage: ci/against.sh <rev> [--pairs N [--workload W] [--seconds S] [--seed X] [--trace]]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "against: unknown revision $1" >&2; exit 2; }
shift
pairs=0 workload= seconds=10 seed=0x11 trace=0 tuned=
while [ $# -gt 0 ]; do
  if [ "$1" = --trace ]; then
    trace=1 tuned=1
    shift
    continue
  fi
  [ $# -ge 2 ] || usage
  case $1 in
    --pairs) pairs=$2 ;;
    --workload) workload=$2 tuned=1 ;;
    --seconds) seconds=$2 tuned=1 ;;
    --seed) seed=$2 tuned=1 ;;
    *) usage ;;
  esac
  shift 2
done
[[ $pairs =~ ^[0-9]+$ ]] || usage
[ "$pairs" -gt 0 ] || [ -z "$tuned" ] || usage
root=$PWD
tmp=$(mktemp -d)
servers=()
cleanup() {
  for pid in "${servers[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

# A plain export, not a worktree: nothing under .git changes, so a run
# killed before its cleanup leaves nothing behind in the repository.
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

if [ "$pairs" -gt 0 ]; then
  # Each side's benchmark, built once (this checkout's where run.sh builds
  # it), then both binaries side by side.
  mkdir "$tmp/bin" "$tmp/pairs"
  cargo build --release --offline -q --manifest-path "$tmp/base/benchmark/Cargo.toml" \
    --target-dir "$tmp/base-bench-target"
  cp "$tmp/base-bench-target/release/wl-benchmark" "$tmp/bin/base"
  change_target=${CARGO_TARGET_DIR:-$root/benchmark/target}
  cargo build --release --offline -q --manifest-path "$root/benchmark/Cargo.toml" \
    --target-dir "$change_target"
  cp "$change_target/release/wl-benchmark" "$tmp/bin/change"
  workloads=$workload
  [ -n "$workloads" ] || workloads="cold_sweep warm_sweep store_fold service_mix drive_2w"
  # Both binaries run from one working directory: file-bound metrics read
  # differently from different directories.
  cd "$tmp/pairs"
  readings=$tmp/readings.txt speeds=$tmp/speeds.txt
  : > "$readings"
  : > "$speeds"
  for pair in $(seq 1 "$pairs"); do
    order="base change"
    [ $((pair % 2)) = 1 ] || order="change base"
    for side in $order; do
      for w in $workloads; do
        log=$tmp/$pair-$side-$w.log
        "$tmp/bin/$side" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
          > /dev/null 2> "$log" || { cat "$log" >&2; echo "against: pair $pair, $side $w failed" >&2; exit 1; }
        # A metric row is "<workload> <metric> <value> <unit>".
        awk -v p="$pair" -v s="$side" -v w="$w" '$1 == w && NF == 4 { print p, s, w, $2, $3 }' "$log" >> "$readings"
        awk -v p="$pair" -v s="$side" -v w="$w" '/x slower than reference/ {
          for (i = 1; i < NF; i++) if ($i == "machine") f = f sep $(i + 1); sep = ","
        } END { if (f != "") print p, s, w, f }' "$log" >> "$speeds"
      done
    done
    echo "against $rev: pair $pair of $pairs done ($order)" >&2
  done
  echo "# ci/against.sh $rev --pairs $pairs, seed $seed, $seconds s per workload, trace $trace, ABBA (odd pairs base first)"
  echo "# base = $rev, change = this checkout; delta = change / base - 1; ahead = better by BENCHMARK.json"
  # The direction of every metric, then the readings.
  grep -oE '"name": "[^"]+", "unit": "[^"]*", "better": "(higher|lower)"' "$root/BENCHMARK.json" |
    awk -F'"' '{ print "better", $4, $12 }' | cat - "$readings" | awk -v n="$pairs" '
    function sift(a, i, k,   c, t) { # heap order below a[i], in a[1..k]
      for (; (c = 2 * i) <= k; i = c) {
        if (c < k && a[c + 1] > a[c]) c++
        if (a[i] >= a[c]) return
        t = a[i]; a[i] = a[c]; a[c] = t
      }
    }
    function sort(a, k,   i, t) { # heapsort: the sign-flip bound sorts 2^15 values
      for (i = int(k / 2); i >= 1; i--) sift(a, i, k)
      for (i = k; i > 1; i--) { t = a[1]; a[1] = a[i]; a[i] = t; sift(a, 1, i - 1) }
    }
    function median(a, k) { sort(a, k); return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2 }
    function rank(a, k, q,   r) { r = int(q * k); if (r < q * k) r++; if (r < 1) r = 1; return a[r] }
    function abs(x) { return x < 0 ? -x : x + 0 } # + 0: no "-0.0"
    function spread(a, k,   m) { m = abs(median(a, k)); return m ? (rank(a, k, 0.75) - rank(a, k, 0.25)) / m * 100 : 0 }
    function pct(x) { return sprintf("%+.1f %%", x) }
    # Sets P, BOUND and RANKP, as text, for the deltas d[1..k] (see the
    # usage comment), and UNRESOLVED when P or RANKP > 0.05.
    # Flipping every sign negates the median and the rank sum, so half the
    # flips suffice.
    function signflip(d, k,   t, r, null, obs, wobs, half, f, bits, i, j, lo, eq, m, w, hits, whits) {
      P = "-"; BOUND = "-"; RANKP = "-"; UNRESOLVED = 0
      if (k < 1 || k > 16) return
      for (i = 1; i <= k; i++) {
        t[i] = d[i]; lo = 0; eq = 0
        for (j = 1; j <= k; j++) { lo += abs(d[j]) < abs(d[i]); eq += abs(d[j]) == abs(d[i]) }
        r[i] = (d[i] > 0 ? 1 : d[i] < 0 ? -1 : 0) * (lo + (eq + 1) / 2)
      }
      obs = abs(median(t, k)); half = 2 ^ (k - 1); hits = 0; whits = 0
      wobs = 0; for (i = 1; i <= k; i++) wobs += r[i]; wobs = abs(wobs)
      for (f = 0; f < half; f++) {
        bits = f; w = 0
        for (i = 1; i <= k; i++) {
          if (bits % 2) { t[i] = -d[i]; w -= r[i] } else { t[i] = d[i]; w += r[i] }
          bits = int(bits / 2)
        }
        m = abs(median(t, k)); null[f + 1] = m
        if (m >= obs * (1 - 1e-9)) hits++
        if (abs(w) >= wobs - 1e-9) whits++
      }
      sort(null, half)
      P = sprintf("%.3f", hits / half); BOUND = sprintf("%.1f %%", rank(null, half, 0.95))
      RANKP = sprintf("%.3f", whits / half)
      UNRESOLVED = hits / half > 0.05 || whits / half > 0.05
    }
    $1 == "better" { better[$2] = $3; next }
    {
      key = $3 " " $4
      if (!(key in seen)) { seen[key] = 1; keys[++nkeys] = key }
      value[key, $2, $1] = $5
      if ($5 != 0) read[key] = 1
    }
    END {
      printf "%-12s %-34s %14s %14s %12s %12s %6s %7s %9s %7s %-10s  %-9s %-11s per-pair delta\n", "workload", "metric", "base median", "change median", "pair median", "median ratio", "ahead", "flip p", "95% null", "rank p", "verdict", "base iqr", "change iqr"
      for (i = 1; i <= nkeys; i++) {
        key = keys[i]; split(key, km, " ")
        if (!(key in read)) continue # a metric of another workload: zero in every run
        ahead = 0; k = 0; list = ""
        for (p = 1; p <= n; p++) {
          b[p] = value[key, "base", p]; c[p] = value[key, "change", p]
          d = b[p] ? (c[p] / b[p] - 1) * 100 : 0
          if ((better[km[2]] == "higher" && c[p] > b[p]) || (better[km[2]] == "lower" && c[p] < b[p])) ahead++
          list = list sprintf(" %+.1f", d); deltas[++k] = d
        }
        bm = median(b, n); cm = median(c, n)
        signflip(deltas, k)
        printf "%-12s %-34s %14.4f %14.4f %12s %12s %3d/%-2d %7s %9s %7s %-10s  %-9s %-11s%s\n", km[1], km[2], bm, cm, pct(median(deltas, k)), pct(bm ? (cm / bm - 1) * 100 : 0), ahead, n, P, BOUND, RANKP, UNRESOLVED ? "unresolved" : "-", sprintf("%.1f %%", spread(b, n)), sprintf("%.1f %%", spread(c, n)), list
      }
    }'
  if [ -s "$speeds" ]; then
    echo "# machine x slower than reference, per run (one factor per measured phase)"
    sort -n -k1,1 -s "$speeds" | awk '{ printf "pair %-3s %-6s %-12s %s\n", $1, $2, $3, $4 }'
  fi
  exit 0
fi

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
#    a cold pass the client simulates and puts back (a parent server may
#    simulate it itself), then a fresh client served
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

# 6. Stored bytes are a function of the spec, not of the build: no
#    overflow check, fused multiply-add or wider vector the two other
#    builds may bring moves a byte. The native build gets its own target
#    directory so it does not evict the release artifacts.
(cd "$root" && cargo build --offline -q -p bench --bin sweep_shard)
(cd "$root" && RUSTFLAGS="-C target-cpu=native" cargo build --release --offline -q \
  --target-dir "$tmp/native-target" -p bench --bin sweep_shard)
declare -A build=([dev]=$root/target/debug [native]=$tmp/native-target/release)
for name in dev native; do
  for capture in scalar sketch series; do
    "${build[$name]}/sweep_shard" --shard 0/1 --capture "$capture" --store "$name-$capture.wls" > /dev/null
    same "change-$capture.wls" "$name-$capture.wls"
  done
done

echo "against $rev: $files files byte-identical"
