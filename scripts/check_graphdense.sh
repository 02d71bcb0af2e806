#!/usr/bin/env bash
# check_graphdense.sh asserts the hybrid-sampler floor on `go test -bench`
# text output: on the dense random-regular end-game (BenchmarkGraphDense),
# the rejection-within-blocks jump engine must be at least <min-ratio>
# times faster than the direct engine by ns/op. If that floor breaks, the
# hybrid has stopped paying for its bookkeeping and dense graph runs would
# be better off on the per-activation path.
#
# Usage: scripts/check_graphdense.sh <bench-output.txt> [min-ratio]
#   e.g. go test -run '^$' -bench . -benchtime 1x ./... | tee bench.txt
#        scripts/check_graphdense.sh bench.txt 5.0
set -euo pipefail

file=${1:?usage: check_graphdense.sh <bench-output.txt> [min-ratio]}
min=${2:-5.0}

# ns_of prints the ns/op of one benchmark line; the name carries a
# -GOMAXPROCS suffix unless GOMAXPROCS is 1.
ns_of() {
  awk -v name="BenchmarkGraphDense/random-16-regular/$1" '
    $1 ~ "^" name "(-[0-9]+)?$" {
      for (i = 3; i <= NF; i++) if ($i == "ns/op") { print $(i - 1); exit }
    }' "$file"
}

direct=$(ns_of direct)
hybrid=$(ns_of jump-hybrid)
if [ -z "$direct" ] || [ -z "$hybrid" ]; then
  echo "check_graphdense.sh: missing BenchmarkGraphDense direct/jump-hybrid lines in $file" >&2
  exit 1
fi
ratio=$(awk -v d="$direct" -v h="$hybrid" 'BEGIN { printf "%.2f", d / h }')
if ! awk -v d="$direct" -v h="$hybrid" -v m="$min" 'BEGIN { exit !(d / h >= m + 0) }'; then
  echo "check_graphdense.sh: hybrid/direct speedup ${ratio}x < required ${min}x in $file" >&2
  exit 1
fi
echo "dense graph end-game: hybrid is ${ratio}x faster than direct (>= ${min}x)"
