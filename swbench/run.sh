#!/usr/bin/env bash
# Builds streamworksd and the benchmark program (swbench) from this checkout,
# then runs swbench with the given arguments. Run it from the repository root:
#
#   bash swbench/run.sh --workload news-served --seed 1 --seconds 30 --trace 0
#   bash swbench/run.sh compare parent.jsonl change.jsonl
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
# The go command reads its telemetry mode from the config directory, not from
# the environment; unless the mode is off it forks a detached child that
# outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/streamworksd" ./cmd/streamworksd
(cd swbench && go build -o "$out/bin/swbench" .)

if [ -z "${SWBENCH_COMMIT:-}" ]; then
  # The checkout need not be a git repository; name the code by its content.
  SWBENCH_COMMIT=src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print \
    | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
  export SWBENCH_COMMIT
fi

if [ "${1:-}" = compare ]; then
  exec "$out/bin/swbench" "$@"
fi
exec "$out/bin/swbench" "$@" -daemon "$out/bin/streamworksd" -work "$out/work"
