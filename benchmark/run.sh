#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source inside the
# checkout (build cache, temporary files and binary all under
# .bench_build/, so nothing is written elsewhere) and runs it with the
# driver's arguments: --workload W --seed N --seconds S --trace 0|1.
# A directory without the repository's sources fails at the build and
# prints no result.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
# An explicitly configured cache is the caller's choice; Go's default one
# lives under $HOME, outside the checkout.
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"
export GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/tasm-benchmark ./benchmark
exec .bench_build/tasm-benchmark "$@"
