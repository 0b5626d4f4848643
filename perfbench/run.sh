#!/usr/bin/env bash
# Builds the layered end-to-end benchmark from source and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload runs_n100 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# the binary, store directories, span files) stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build-dir "$build" "$@"
