#!/usr/bin/env bash
# Regenerates every table, figure, and extension study of the Secure TLBs
# reproduction into results/. Takes 33-43 s on a shared 2-vCPU host
# (32.8, 35.6 and 38.5 s measured with a warm build; fig7, sharded over
# both cores, is all but about 1.3 s of it).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --offline

# $1 is the output name; the rest is the command. Capture the name before
# shifting — the redirection expands after the shift.
run() {
  local name=$1
  shift
  echo ">>> $name"
  "$@" > "results/$name.txt" 2>&1
}

mkdir -p results
run table2           ./target/release/table2
run table4           ./target/release/table4 --trials 500
run table5           ./target/release/table5
run table7           ./target/release/table7
run attack           ./target/release/attack_success --seeds 5
run mitigations      ./target/release/mitigations --trials 300
run table7_eval      ./target/release/table7_eval --trials 500
run ablation_rf      ./target/release/ablation_rf --trials 300
run ablation_sp_ways ./target/release/ablation_sp_ways --trials 200
run itlb_attack      ./target/release/itlb_attack
run l2_hierarchy     ./target/release/l2_hierarchy
run software_defenses ./target/release/software_defenses
run covert_channel   ./target/release/covert_channel
# fig7 is nearly all of the run, so it shards its cells over every core.
# --workers adds the pool summary on stderr, which goes to a log so that
# results/fig7.txt stays the tables alone.
echo ">>> fig7"
./target/release/fig7 --workers auto > results/fig7.txt 2> target/fig7.stderr

echo "done; outputs in results/"
