#!/usr/bin/env bash
# chaos-replay.sh — reproduce a chaos/soak CI failure locally. Runs the
# CI gate itself (TestTCPChaosE2E, or TestTCPSoakE2E with -soak) with the
# command the CI step runs, firing the exact fault schedule the failing
# run used: either regenerated from its seed (schedules are a pure
# function of the seed) or loaded verbatim from the serialized
# <prefix>-schedule.json the CI job uploaded next to the <prefix>-logs/
# node logs.
#
# Usage:
#   chaos-replay.sh SEED [-soak]
#   chaos-replay.sh ARTIFACT.json [-soak]
#
# Examples:
#   scripts/chaos-replay.sh 1            # replay the default chaos gate
#   scripts/chaos-replay.sh 7 -soak      # replay a soak run at seed 7
#   scripts/chaos-replay.sh chaos-schedule.json   # fire a CI artifact
#   SOAK_SCALE=4 scripts/chaos-replay.sh 1 -soak  # replay a nightly soak
#
# The nightly long-haul soak runs with SOAK_SCALE=4: a seed replay of its
# failure needs the same SOAK_SCALE to regenerate its schedule. The test
# runs under the nightly job's -timeout 50m, so a 4x replay is not cut
# at go test's default 10 minutes.
#
# Exit code is the test's: nonzero when any gate fails, in which case
# the node logs (<prefix>-logs/node<i>.log), data directories, report
# and schedule are kept in the directory printed on stderr. On success
# that directory is removed.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,23p' "$0" >&2
    exit 2
fi

what=$1
shift
test=TestTCPChaosE2E
for arg in "$@"; do
    case "$arg" in
    -soak) test=TestTCPSoakE2E ;;
    *)
        echo "chaos-replay.sh: unknown argument $arg" >&2
        exit 2
        ;;
    esac
done
# The test runs in its package directory: an artifact path must not be
# relative to the caller's.
if [[ -f "$what" ]]; then
    what=$(cd "$(dirname "$what")" && pwd)/$(basename "$what")
fi

cd "$(dirname "$0")/.."
# The test builds hdknode itself unless HDKNODE_BIN names a binary.
artdir=$(mktemp -d)
status=0
CHAOS_REPLAY="$what" CHAOS_ARTIFACT_DIR="$artdir" \
    go test -race -count=1 -timeout 50m -v -run "^$test\$" ./internal/experiments || status=$?
if [[ $status -eq 0 ]]; then
    rm -rf "$artdir"
else
    echo "chaos-replay.sh: node logs, data, report and schedule kept in $artdir" >&2
fi
exit "$status"
