#!/usr/bin/env bash
# Core hot-path throughput sweep.
#
# Runs the table4 security campaign — the hot-path workload the SoA/
# packed-LRU/enum-dispatch overhaul optimizes — across a ladder of
# worker counts, RUNS times per rung, prints each rung's median
# throughput, and records the aggregated metrics of the median
# `--workers 1` run as BENCH_core.json: the committed baseline the
# perf-floor test in tests/performance_end_to_end.rs checks against,
# which re-measures one worker. One run follows the host's speed of
# the moment; the median of several does not.
#
# Usage: scripts/scalability.sh [TRIALS] (default 500)
set -euo pipefail
cd "$(dirname "$0")/.."

TRIALS="${1:-500}"
# Runs per rung; the rung records its median.
RUNS=7
OUT="${OUT:-BENCH_core.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release --workspace --bins --offline

throughput() {
  grep -o '"throughput_pairs_per_s": [0-9.]*' "$1" | awk '{print $2}'
}

echo "table4 --trials $TRIALS, median of $RUNS runs per rung"
echo "workers  pairs/s"
for w in 1 2 4 auto; do
  for i in $(seq "$RUNS"); do
    ./target/release/table4 --trials "$TRIALS" --workers "$w" \
      --metrics "$TMP/core_${w}_$i.json" > /dev/null
  done
  median=$(for i in $(seq "$RUNS"); do
    echo "$(throughput "$TMP/core_${w}_$i.json") $i"
  done | sort -g | sed -n "$(((RUNS + 1) / 2))p" | cut -d' ' -f2)
  cp "$TMP/core_${w}_$median.json" "$TMP/core_$w.json"
  printf '%-8s %s\n' "$w" "$(throughput "$TMP/core_$w.json")"
done

cp "$TMP/core_1.json" "$OUT"
echo "baseline written to $OUT ($(throughput "$OUT") pairs/s)"
