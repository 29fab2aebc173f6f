#!/usr/bin/env bash
# Driver entry point: build the benchmark from source into .bench_build/
# and run it with the arguments given. The Go build cache, the binary and
# every temporary file (WAL directories included) stay inside the
# checkout. Run from anywhere; it changes to the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# VCS stamping gives the run metadata its git SHA; where the checkout is
# not a usable git repository, build without it.
go build -o "$build/perf" ./perf 2>/dev/null || go build -buildvcs=false -o "$build/perf" ./perf
exec "$build/perf" "$@"
