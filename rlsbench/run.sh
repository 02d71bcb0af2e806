#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash rlsbench/run.sh --workload endgame --seed 1 --seconds 20 --trace 0
# Run it from the root of a checkout. The Go build cache, temporary files
# and the binary stay in the checkout's build directory; nothing is
# fetched (the module has no dependencies outside the repository).
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command keeps its env file and telemetry counters under the
# user config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/rlsbench" && go build -o "$out/rlsbench-bin" .) >&2
exec "$out/rlsbench-bin" "$@"
