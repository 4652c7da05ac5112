#!/usr/bin/env bash
# In-process A/B of every Figure 7 cell shape.
#
#   scripts/ab_cells.sh PARENT_REV [ROUNDS]
#
# Builds a throwaway workspace under target/ab/ holding two renamed
# copies of `sectlb-tlb` and `sectlb-sim`: PARENT_REV's (exported with
# `git archive`, so no worktree is registered in .git) as `ab-parent-*`,
# and the working tree's as `ab-change-*`. The harness
# (scripts/ab_cells.rs) links both, takes its traces from the working
# tree's `sectlb-workloads`, and runs every shape ROUNDS times (default
# 10) on both versions, alternating which runs first. It asserts that
# both versions retire the same instructions in the same cycles with the
# same D-TLB misses, and prints per shape the best times, the median
# change/parent time ratio, the rounds the change won, and the ratio
# corrected by the code-placement controls (see the harness's docs).
#
# perfbench's end-to-end runs cannot resolve a 5-30% change in one layer
# on a shared host; two versions in one process, interleaved, can.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/ab_cells.sh PARENT_REV [ROUNDS]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
rounds=${2:-10}
case $rounds in
  '' | *[!0-9]* | 0) echo "ROUNDS must be a positive number, got '$rounds'" >&2; exit 2 ;;
esac

repo=$(pwd)
ab=target/ab
rm -rf "$ab/parent" "$ab/change" "$ab/harness"
mkdir -p "$ab/parent" "$ab/change" "$ab/harness/src"
git archive "$rev" crates/tlb crates/sim | tar -x -C "$ab/parent" --strip-components=1
cp -r crates/tlb crates/sim "$ab/change/"
cp scripts/ab_cells.rs "$ab/harness/src/main.rs"

# Renames a copy's packages and points its sim at its own tlb.
rename() {
  local side=$1
  sed -i "s/^name = \"sectlb-tlb\"/name = \"ab-$side-tlb\"/" "$ab/$side/tlb/Cargo.toml"
  sed -i -e "s/^name = \"sectlb-sim\"/name = \"ab-$side-sim\"/" \
    -e "s|^sectlb-tlb.workspace = true|sectlb-tlb = { package = \"ab-$side-tlb\", path = \"../tlb\" }|" \
    "$ab/$side/sim/Cargo.toml"
}
rename parent
rename change

# The workspace: the root manifest's shared package fields and
# dependencies, with paths into this checkout.
{
  echo '[workspace]'
  echo 'members = ["parent/tlb", "parent/sim", "change/tlb", "change/sim", "harness"]'
  echo 'resolver = "2"'
  echo
  sed -n '/^\[workspace.package\]/,/^\[workspace.dependencies\]/p' Cargo.toml | sed '$d'
  echo '[workspace.dependencies]'
  for dep in rand proptest criterion; do
    echo "$dep = { path = \"$repo/crates/$dep\" }"
  done
  echo
  echo '[profile.release]'
  echo 'debug = "line-tables-only"'
} > "$ab/Cargo.toml"

cat > "$ab/harness/Cargo.toml" <<EOF
[package]
name = "ab-cells"
version = "0.0.0"
edition = "2021"
publish = false

[dependencies]
ab-parent-tlb = { path = "../parent/tlb" }
ab-parent-sim = { path = "../parent/sim" }
ab-change-tlb = { path = "../change/tlb" }
ab-change-sim = { path = "../change/sim" }
sectlb-tlb = { path = "$repo/crates/tlb" }
sectlb-sim = { path = "$repo/crates/sim" }
sectlb-workloads = { path = "$repo/crates/workloads" }
EOF

CARGO_TARGET_DIR=$ab/target cargo build --release --offline --quiet \
  --manifest-path "$ab/Cargo.toml" -p ab-cells
echo "parent $rev, change: the working tree" >&2
"$ab/target/release/ab-cells" "$rounds"
