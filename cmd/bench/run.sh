#!/usr/bin/env bash
# Builds cmd/bench from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/bench/run.sh --workload trace-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# spooled request bodies, the binary) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp"

export GOCACHE="$out/go-build"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/cmd/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
