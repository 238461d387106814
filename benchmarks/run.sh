#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it:
#
#   bash benchmarks/run.sh --workload point-sat --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (the Go build cache, the binaries,
# temporary cache directories, span files) goes under .bench_build at the
# root of the checkout, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bin/run" ./run
exec "$build/bin/run" "$@"
