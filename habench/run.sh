#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through, for example:
#
#   bash habench/run.sh --workload request --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# workloads' data directories all live under .bench_build/ in the
# checkout; the data directories are removed when a run ends.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$out/tmp"
go -C "$root/habench" build -o "$out/habench" .
exec "$out/habench" "$@"
