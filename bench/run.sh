#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh -workload fig4-roofline -seed 3 -seconds 15 -trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# everything the run writes stay under .bench_build/ in the current
# directory; no module is downloaded.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/mperf-bench" .)
exec "$build/mperf-bench" "$@"
