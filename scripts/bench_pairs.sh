#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark (perfbench).
#
#   scripts/bench_pairs.sh PARENT_REV PAIRS WORKLOAD
#
# Builds perfbench twice: for PARENT_REV's committed files, exported with
# `git archive` into target/bench-pairs/parent (so no worktree is
# registered in .git; its build output goes to
# target/bench-pairs/parent-target), and for the working tree. Then runs
# PAIRS pairs of WORKLOAD (`table4-classic` or `fig7-perf`) for
# BENCHMARK.json's run_seconds each, alternating which side runs first,
# every pair on a fresh seed shared by both sides. For every end-to-end
# metric it prints each side's median [first quartile, third quartile],
# the median of the per-pair change/parent ratios, and how many pairs the
# change won (ties count for neither side). Raw result lines go to
# target/bench-pairs/WORKLOAD.jsonl.
#
# A gain counts only when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's interquartile
# range.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
  echo "usage: scripts/bench_pairs.sh PARENT_REV PAIRS WORKLOAD" >&2
  exit 2
fi
rev=$1
pairs=$2
workload=$3
case $pairs in
  '' | *[!0-9]* | 0) echo "PAIRS must be a positive number, got '$pairs'" >&2; exit 2 ;;
esac
case $workload in
  table4-classic | fig7-perf) ;;
  *) echo "WORKLOAD must be table4-classic or fig7-perf, got '$workload'" >&2; exit 2 ;;
esac

out=target/bench-pairs
parent=$out/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$parent"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
CARGO_TARGET_DIR=$out/parent-target \
  cargo build --release --offline --quiet --manifest-path "$parent/perfbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin_parent=$out/parent-target/release/perfbench
bin_change=perfbench/target/release/perfbench

# One run, from the root of its own checkout (perfbench keeps its scratch
# files under the checkout it runs in); appends its side and result line.
# A run whose checks fail still prints its result line (marked incorrect).
run() {
  local side=$1 dir=$2 bin=$3 seed=$4 line
  bin=$(realpath "$bin")
  line=$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1) || true
  if [ -z "$line" ]; then
    echo "$side run at seed $seed printed no result" >&2
    exit 1
  fi
  echo "{\"side\": \"$side\", \"seed\": $seed, \"result\": $line}" >> "$log"
}

log=$out/$workload.jsonl
: > "$log"
base=$(date +%s)
for i in $(seq 1 "$pairs"); do
  seed=$((base + i))
  echo ">>> pair $i of $pairs, seed $seed" >&2
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$bin_parent" "$seed"
    run change . "$bin_change" "$seed"
  else
    run change . "$bin_change" "$seed"
    run parent "$parent" "$bin_parent" "$seed"
  fi
done

python3 - "$log" "$rev" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open("BENCHMARK.json"))
sides = {"parent": {}, "change": {}}
for r in runs:
    if not r["result"]["correct"] or r["result"]["failed"]:
        print(f"{r['side']} seed {r['seed']}: checks failed", file=sys.stderr)
    sides[r["side"]][r["seed"]] = r["result"]["metrics"]
seeds = sorted(sides["parent"])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{len(seeds)} pairs, parent {sys.argv[2]}, seeds {seeds[0]}..{seeds[-1]}")
print(f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
      f" {'ratio':>6} {'change won':>10}")
for metric in bench["end_to_end"]:
    name = metric["name"]
    p = [sides["parent"][s][name]["value"] for s in seeds]
    c = [sides["change"][s][name]["value"] for s in seeds]
    higher = metric["better"] == "higher"
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    ratio = statistics.median(b / a for a, b in zip(p, c) if a)
    pq, cq = quartiles(p), quartiles(c)
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<18} {fmt(pq):>34} {fmt(cq):>34} {ratio:>6.3f} {wins:>4}/{len(seeds)}")
EOF
