#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current directory (the checkout root) and runs it
# with the driver's arguments. The Go build cache lives there too, so nothing
# outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/reprobench" .
exec "$out/reprobench" -workdir "$out" "$@"
