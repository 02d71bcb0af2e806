#!/usr/bin/env bash
# check_service.sh gates the multi-tenant service load study (rlsweep
# -serviceload -sljson). CI uses it as the serving regression gate: the
# daemon must sustain the offered load with ZERO dropped or errored
# events, and the event→apply p99 scraped from its own /metrics must stay
# under the ceiling — if either breaks, a tenant queue, the rate limiter,
# or the applier loop has regressed.
#
# Usage: scripts/check_service.sh <file.json> <max-p99-ms>
#   e.g. scripts/check_service.sh service.json 250
set -euo pipefail
cd "$(dirname "$0")/.."

file=${1:?usage: check_service.sh <file.json> <max-p99-ms>}
maxp99=${2:?missing max p99 in milliseconds}

field() { # field <entry-name> <key>
  grep -o "\"name\": *\"$1\"[^}]*" "$file" |
    sed -n "s/.*\"$2\": *\([0-9.eE+-]*\).*/\1/p" | head -n 1
}

errors=$(field "ServiceLoad/throughput" errors)
if [ -z "$errors" ]; then
  echo "check_service.sh: no ServiceLoad/throughput entry with an errors field in $file" >&2
  exit 1
fi
if [ "$errors" != 0 ]; then
  echo "check_service.sh: $errors dropped/errored events in $file (gate requires 0)" >&2
  exit 1
fi

p99ns=$(field "ServiceLoad/apply/p99" ns_per_op)
if [ -z "$p99ns" ]; then
  echo "check_service.sh: no ServiceLoad/apply/p99 entry in $file" >&2
  exit 1
fi
if ! awk -v ns="$p99ns" -v ms="$maxp99" 'BEGIN { exit !(ns / 1e6 < ms + 0) }'; then
  echo "check_service.sh: apply p99 $(awk -v ns="$p99ns" 'BEGIN { printf "%.2f", ns / 1e6 }')ms >= ceiling ${maxp99}ms in $file" >&2
  exit 1
fi
echo "serviceload: 0 dropped/errored events, apply p99 $(awk -v ns="$p99ns" 'BEGIN { printf "%.2f", ns / 1e6 }')ms < ${maxp99}ms"
