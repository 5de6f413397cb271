#!/usr/bin/env bash
# chaos-replay.sh — reproduce a chaos/soak CI failure locally. Rebuilds
# hdknode, then fires the exact fault schedule the failing run used:
# either regenerated from its seed (schedules are a pure function of
# the seed) or loaded verbatim from the serialized fault-schedule.json
# the CI job uploaded next to the node logs.
#
# Usage:
#   chaos-replay.sh SEED [-soak]
#   chaos-replay.sh ARTIFACT.json [-soak]
#
# Examples:
#   scripts/chaos-replay.sh 1            # replay the default chaos gate
#   scripts/chaos-replay.sh 7 -soak      # replay a soak run at seed 7
#   scripts/chaos-replay.sh chaos-schedule.json   # fire a CI artifact
#
# Exit code is hdkbench's: nonzero when any gate fails, in which case
# the node logs, data directories and schedule are kept under a temp
# directory hdkbench names on stderr.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi

what=$1
shift
mode=-chaos
for arg in "$@"; do
    case "$arg" in
    -soak) mode=-soak ;;
    *)
        echo "chaos-replay.sh: unknown argument $arg" >&2
        exit 2
        ;;
    esac
done

cd "$(dirname "$0")/.."
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/hdknode" ./cmd/hdknode
go build -o "$bindir/hdkbench" ./cmd/hdkbench
export HDKNODE_BIN="$bindir/hdknode"

source=(-seed "$what")
if [[ -f "$what" ]]; then
    source=(-replay "$what")
fi
# A child, not exec: the EXIT trap must still run to remove the binaries.
status=0
"$bindir/hdkbench" "$mode" "${source[@]}" || status=$?
exit "$status"
