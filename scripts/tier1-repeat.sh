#!/usr/bin/env bash
# Run the tier-1 suite N times, strictly one run after another, to find
# tests that fail only sometimes. Each run prints its wall time and the
# names of the tests that failed in it; the script exits non-zero if any
# run failed.
#
#   scripts/tier1-repeat.sh        # 30 runs
#   scripts/tier1-repeat.sh 10
#
# A failing run's full output is kept in a fresh directory under
# $TMPDIR (default /tmp), whose path is printed at the end.
set -uo pipefail
cd "$(dirname "$0")/.."

runs="${1:-30}"
if ! [[ "$runs" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/tier1-repeat.sh [N]   (N >= 1)" >&2
  exit 2
fi
logdir=$(mktemp -d "${TMPDIR:-/tmp}/tier1-repeat.XXXXXX")

failed=0
for i in $(seq 1 "$runs"); do
  log="$logdir/run-$i.log"
  start=$(date +%s%N)
  go test -count=1 ./... >"$log" 2>&1
  status=$?
  ms=$((($(date +%s%N) - start) / 1000000))
  wall="$((ms / 1000)).$((ms % 1000 / 100))"
  if [ "$status" -eq 0 ]; then
    printf 'run %d/%d: ok in %ss\n' "$i" "$runs" "$wall"
    rm -f "$log"
    continue
  fi
  failed=$((failed + 1))
  # `--- FAIL: Name` lines name the failing tests (subtests included);
  # a build failure or panic has none, so fall back to the FAIL lines.
  names=$(grep -oE -- '--- FAIL: [^ ]+' "$log" | sed 's/--- FAIL: //' | sort -u | paste -sd' ' -)
  [ -n "$names" ] || names=$(grep -E '^(FAIL|panic:)' "$log" | sort -u | paste -sd' ' -)
  printf 'run %d/%d: FAILED in %ss: %s (log: %s)\n' "$i" "$runs" "$wall" "$names" "$log"
done

echo "$((runs - failed))/$runs runs passed"
[ "$failed" -eq 0 ] || { echo "failing runs' logs: $logdir"; exit 1; }
rmdir "$logdir" 2>/dev/null || true
