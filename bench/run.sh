#!/usr/bin/env bash
# Builds the sweep benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep-full --seed 42 --seconds 18 --trace 0
#
# The Go build cache, temporary files, the binary and traced-run dumps all
# stay under .bench_build/ in the current directory. Outside a full
# checkout (no ../go.mod next to bench/) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
