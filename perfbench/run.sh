#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash perfbench/run.sh --workload serve|ingest|backtest --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and scratch file stays under
# .bench_build/ in that directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
# The go command keeps its env file and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
