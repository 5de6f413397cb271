#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark from source and runs
# it with the arguments given (see README.md). Everything it writes stays
# in the checkout: the Go caches and the binary under .bench_build/, the
# daemon binary, logs, data dirs and trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
