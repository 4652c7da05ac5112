#!/usr/bin/env bash
# Core hot-path throughput sweep.
#
# Runs the table4 security campaign — the hot-path workload the SoA/
# packed-LRU/enum-dispatch overhaul optimizes — across a ladder of
# worker counts, prints the throughput at each rung, and records the
# aggregated metrics of the `--workers 1` run as BENCH_core.json: the
# committed baseline the perf-floor test in
# tests/performance_end_to_end.rs checks against, which re-measures one
# worker.
#
# Usage: scripts/scalability.sh [TRIALS] (default 500)
set -euo pipefail
cd "$(dirname "$0")/.."

TRIALS="${1:-500}"
OUT="${OUT:-BENCH_core.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release --workspace --bins --offline

throughput() {
  grep -o '"throughput_pairs_per_s": [0-9.]*' "$1" | awk '{print $2}'
}

echo "table4 --trials $TRIALS"
echo "workers  pairs/s"
for w in 1 2 4 auto; do
  ./target/release/table4 --trials "$TRIALS" --workers "$w" \
    --metrics "$TMP/core_$w.json" > /dev/null
  printf '%-8s %s\n' "$w" "$(throughput "$TMP/core_$w.json")"
done

cp "$TMP/core_1.json" "$OUT"
echo "baseline written to $OUT ($(throughput "$OUT") pairs/s)"
