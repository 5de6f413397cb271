#!/usr/bin/env bash
# Short native-fuzz pass over every fuzz target, exactly the way CI runs
# it. Targets are discovered per package with `go test -list '^Fuzz'`, so
# a new one cannot be left out. Each starts from its committed seed
# corpus (testdata/fuzz/) and fuzzes for FUZZTIME (default 30s); any
# crash or roundtrip violation fails the script.
#
#   scripts/fuzz-smoke.sh                                  # every target, 30s each
#   FUZZTIME=2m scripts/fuzz-smoke.sh
#   FUZZTIME=5m scripts/fuzz-smoke.sh ./internal/durable   # only these packages
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-30s}"

# Only packages whose tests declare a Fuzz function, so the listing
# compiles few test binaries (bench/ is its own module and has none).
if [ "$#" -eq 0 ]; then
  mapfile -t pkgs < <(grep -rl --include='*_test.go' --exclude-dir=testdata --exclude-dir=bench \
    '^func Fuzz' . | xargs -n1 dirname | sort -u)
else
  pkgs=("$@")
fi

found=0
for pkg in "${pkgs[@]}"; do
  # `go test -list` prints matching names, then an "ok" summary line.
  for target in $(go test -run '^$' -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
    found=$((found + 1))
    echo "=== fuzz $target ($pkg, $fuzztime)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg"
  done
done
if [ "$found" -eq 0 ]; then
  echo "fuzz-smoke: no Fuzz targets in ${pkgs[*]}" >&2
  exit 1
fi
