#!/usr/bin/env bash
# Run the repo's invariant checker exactly the way CI does.
#
#   scripts/lint.sh              # check every package
#   scripts/lint.sh ./internal/… # check specific patterns
#
# Builds cmd/hdkvet from the current tree (the analyzers version with
# the code they check) and runs every analyzer over the patterns. Exit 2
# means findings; fix them or justify them at the use site with an
# //hdkvet:ignore directive and its reason.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${RUNNER_TEMP:-${TMPDIR:-/tmp}}/hdkvet"
go build -o "$bin" ./cmd/hdkvet
exec "$bin" "${@:-./...}"
