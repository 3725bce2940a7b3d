#!/usr/bin/env bash
# Build the benchmark from source and run it: the command BENCHMARK.json
# names. Everything the build writes (Go build cache, binary) and the
# traced run's Chrome trace stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
