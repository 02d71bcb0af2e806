#!/usr/bin/env bash
# bench_gate.sh compares this checkout (head) with a base revision on the
# repository benchmark, rlsbench. It checks the base out in a git worktree
# and reads the workloads, run_seconds and end-to-end metric bounds from
# BENCHMARK.json. Each workload runs in 5 base/head pairs; pair i runs
# seed i on both sides, base first in odd pairs and head first in even
# ones, so neither side always runs on the warmer machine. It fails when
#   - a head median is worse than the base median by more than the
#     metric's bound (a share of the base median);
#   - the head fails a larger share of its attempted operations;
#   - a run exits nonzero;
#   - a run's work fingerprint differs from its partner's and the added
#     lines of CHANGES.md since the base do not say "fingerprint" (equal
#     fingerprints mean equal sample paths, so a timing change is a speed
#     change; a PR that moves the sample path says so).
# Runs, worktree and per-run output stay under .bench_build/gate.
#
# Usage: scripts/bench_gate.sh <base-rev>
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || {
  echo "usage: bench_gate.sh <base-rev>" >&2
  exit 2
}
base=$1
pairs=5
head_dir=$(pwd)
work=$head_dir/.bench_build/gate
base_dir=$work/base
git worktree remove --force "$base_dir" 2>/dev/null || true
rm -rf "$work"
git worktree prune
mkdir -p "$work"
git worktree add --detach "$base_dir" "$base" >/dev/null
trap 'git worktree remove --force "$base_dir"' EXIT
# Each side builds into its own checkout's .bench_build.
unset CARGO_TARGET_DIR

seconds=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.bound) \(.better)"' BENCHMARK.json)
fail=0

# run <side> <workload> <seed> leaves the result line in
# $work/<side>-<workload>-<seed>.json and standard error beside it.
run() {
  local dir=$head_dir out=$work/$1-$2-$3
  [ "$1" = base ] && dir=$base_dir
  echo "$1 $2 seed $3" >&2
  if ! (cd "$dir" && bash rlsbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) \
    >"$out.out" 2>"$out.err"; then
    echo "FAIL: $1 $2 seed $3 exited nonzero:" >&2
    tail -n 5 "$out.err" >&2
    fail=1
  fi
  tail -n 1 "$out.out" | jq -c . >"$out.json" 2>/dev/null || : >"$out.json"
}

for w in "${workloads[@]}"; do
  for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run base "$w" "$i"
      run head "$w" "$i"
    else
      run head "$w" "$i"
      run base "$w" "$i"
    fi
    b=$(grep '^fingerprint ' "$work/base-$w-$i.err" || true)
    h=$(grep '^fingerprint ' "$work/head-$w-$i.err" || true)
    if [ "$b" != "$h" ]; then
      if git diff "$base" -- CHANGES.md | grep -q '^+.*fingerprint'; then
        echo "note: $w seed $i fingerprint moved (CHANGES.md says why): base '$b', head '$h'"
      else
        echo "FAIL: $w seed $i fingerprint differs and CHANGES.md does not say why: base '$b', head '$h'"
        fail=1
      fi
    fi
  done
done

# median reads numbers, one a line, and prints their median.
median() {
  sort -g | awk '{ a[NR] = $1 } END { if (NR) print (NR % 2) ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2 }'
}

# share <side> <workload> prints failed over attempted, summed over runs.
share() {
  cat "$work"/"$1"-"$2"-*.json | jq -s '(map(.failed) | add // 0) / ([(map(.attempted) | add // 0), 1] | max)'
}

printf '%-8s %-12s %14s %14s %8s %6s\n' workload metric base head change bound
for w in "${workloads[@]}"; do
  for spec in "${metrics[@]}"; do
    read -r m bound better <<<"$spec"
    bm=$(cat "$work"/base-"$w"-*.json | jq -r --arg m "$m" '.metrics[$m].value // empty' | median)
    hm=$(cat "$work"/head-"$w"-*.json | jq -r --arg m "$m" '.metrics[$m].value // empty' | median)
    if [ -z "$bm" ] || [ -z "$hm" ]; then
      echo "FAIL: $w $m has no reading"
      fail=1
      continue
    fi
    verdict=$(awk -v b="$bm" -v h="$hm" -v bd="$bound" -v better="$better" 'BEGIN {
      change = (b != 0) ? (h - b) / b : 0
      worse = (better == "lower") ? change > bd : -change > bd
      printf "%+7.1f%% %6s%s", 100 * change, bd, worse ? " FAIL" : ""
    }')
    printf '%-8s %-12s %14g %14g %s\n' "$w" "$m" "$bm" "$hm" "$verdict"
    case $verdict in *FAIL) fail=1 ;; esac
  done
  bs=$(share base "$w")
  hs=$(share head "$w")
  if awk -v b="$bs" -v h="$hs" 'BEGIN { exit !(h > b) }'; then
    echo "FAIL: $w failed share: head $hs > base $bs"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "bench_gate.sh: head is worse than $base" >&2
  exit 1
fi
echo "bench_gate.sh: head holds every bound against $base"
