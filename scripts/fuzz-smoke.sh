#!/usr/bin/env bash
# Short native-fuzz pass over every codec and framing fuzz target, exactly the way
# CI runs it. Each target starts from its committed seed corpus
# (testdata/fuzz/) and fuzzes for FUZZTIME (default 30s); any crash or
# roundtrip violation fails the script.
#
#   scripts/fuzz-smoke.sh            # all targets, 30s each
#   FUZZTIME=2m scripts/fuzz-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-30s}"

# package<space>target pairs; `go test -fuzz` accepts one target per run.
targets="
./internal/core FuzzDecodeSearchRequest
./internal/core FuzzDecodeSearchResponse
./internal/postings FuzzDecodeKeyList
./internal/postings FuzzDecodeKeyedBatch
./internal/transport FuzzReadFrame
./internal/transport/cluster FuzzDecodeIngestBegin
./internal/transport/cluster FuzzDecodeIngestChunk
./internal/transport/cluster FuzzDecodeIngestCommit
./internal/durable FuzzParseRecord
./internal/durable FuzzParseLog
./internal/telemetry FuzzDecodeSnapshot
./internal/telemetry FuzzDecodeTrace
"

while read -r pkg target; do
  [ -z "$pkg" ] && continue
  echo "=== fuzz $target ($pkg, $fuzztime)"
  go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg"
done <<<"$targets"
