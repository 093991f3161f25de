#!/usr/bin/env bash
# Builds the opmperf benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash opmperf/run.sh --workload exact-curves --seed 1 --seconds 20 --trace 0
#
# Every build and cache file stays under .bench_build in the current
# directory. Without the repository's own go.mod one level up the build
# fails, so the script exits non-zero and prints no result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOFLAGS= GOENV=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C opmperf build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/opmperf" .
exec "$build/opmperf" "$@"
