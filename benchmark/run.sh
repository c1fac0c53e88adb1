#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
# The binary and the Go build cache go to .bench_build/ at the root of the
# checkout, so that a run reads and writes only inside the checkout; the
# first run there compiles the standard library too. `go run ./benchmark`
# from the root does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOTOOLCHAIN=local go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
