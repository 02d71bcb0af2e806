#!/usr/bin/env bash
# check_scaling.sh asserts a speedup floor on one cell of a scaling-study
# JSON file (rlsweep -scaling -scalingjson). CI uses it as the multi-core
# regression gate: on the 4-vCPU hosted runners, dense sharded-P4 must at
# least beat sharded-P1 — if that floor breaks, the parallel engine has
# stopped paying for its own barriers.
#
# Usage: scripts/check_scaling.sh <file.json> <entry-name> <min-speedup>
#   e.g. scripts/check_scaling.sh scaling.json ScalingDense/sharded/P4 1.0
set -euo pipefail
cd "$(dirname "$0")/.."

file=${1:?usage: check_scaling.sh <file.json> <entry-name> <min-speedup>}
name=${2:?missing entry name}
min=${3:?missing minimum speedup}

speedup=$(grep -o "\"name\": *\"$name\"[^}]*" "$file" |
  sed -n 's/.*"speedup": *\([0-9.eE+-]*\).*/\1/p' | head -n 1)
if [ -z "$speedup" ]; then
  echo "check_scaling.sh: no entry \"$name\" with a speedup field in $file" >&2
  exit 1
fi
if ! awk -v s="$speedup" -v m="$min" 'BEGIN { exit !(s + 0 > m + 0) }'; then
  echo "check_scaling.sh: $name speedup ${speedup}x <= required ${min}x in $file" >&2
  exit 1
fi
echo "$name speedup ${speedup}x > ${min}x"
