#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go's build cache is kept there
# too, so nothing is written outside the checkout) and runs it with the
# arguments given. Run it from anywhere; it changes to the checkout's root.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
mkdir -p .bench_build
go build -o .bench_build/sinan-bench ./bench
exec .bench_build/sinan-bench "$@"
