#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload batch-fair --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build output, the Go
# build cache included, stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/rupam-benchmark" .) >&2
exec "$out/rupam-benchmark" "$@"
