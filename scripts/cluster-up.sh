#!/usr/bin/env bash
# cluster-up.sh — boot a localhost hdknode cluster, run one command
# against it, tear the daemons down, and propagate the command's exit
# code. The fleet booter for operators and for the hand-driven checks
# README describes (a streamed build from hdksearch -connect, a durable
# fleet under CLUSTER_DATA_ROOT): one command line instead of a
# hand-rolled boot/poll/teardown shell. The Go e2e tests boot their
# daemons through cluster.Harness instead.
#
# Usage:
#   cluster-up.sh BIN BASE_PORT COUNT REPLICAS [NODE_ARGS...] -- CMD [ARGS...]
#
#   BIN        hdknode binary
#   BASE_PORT  node 0 listens on 127.0.0.1:BASE_PORT, node i on BASE_PORT+i
#              (ring placement derives from the addresses, so benches
#              comparing against a committed baseline must use its ports)
#   COUNT      number of daemons
#   REPLICAS   -replicas passed to every daemon
#   NODE_ARGS  extra flags appended to every daemon's command line
#              (e.g. -search-cache 0 -slow-query 1ms)
#   CMD        run once every daemon is ready
#
# With CLUSTER_HTTP_OFFSET=<n> in the environment, every daemon also
# serves its observability endpoint on 127.0.0.1:(port+n), and
# readiness is probed by polling /healthz (which answers 200 only once
# the daemon is recovered, joined and serving) instead of grepping the
# log for the banner. Without it, the log-grep fallback applies.
#
# With CLUSTER_DATA_ROOT=<dir> in the environment, every daemon runs
# DURABLY: node i gets its own data directory <dir>/node<port> and
# -fsync always, so a SIGKILLed daemon restarted from the same root
# resumes with everything it ever acked — the mode the streamed
# hdk.ingest resume contract (zero re-shipped acked chunks) assumes.
# Without it, daemons are memory-only as before.
#
# Each daemon logs to ./node<port>.log. If a daemon never becomes
# ready, the script prints the tail of the offending log and exits 1 —
# the log name is the first thing a failed CI run needs. All daemons
# are killed on exit, whatever the outcome.
set -u

HTTP_OFFSET="${CLUSTER_HTTP_OFFSET:-}"
DATA_ROOT="${CLUSTER_DATA_ROOT:-}"

if [ "$#" -lt 5 ]; then
    echo "usage: $0 BIN BASE_PORT COUNT REPLICAS [NODE_ARGS...] -- CMD [ARGS...]" >&2
    exit 2
fi

BIN=$1
BASE_PORT=$2
COUNT=$3
REPLICAS=$4
shift 4

NODE_ARGS=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    NODE_ARGS+=("$1")
    shift
done
if [ "$#" -eq 0 ]; then
    echo "cluster-up: missing -- CMD" >&2
    exit 2
fi
shift # the --

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# http_args PORT: the daemon's -http flag when CLUSTER_HTTP_OFFSET is
# set (nothing otherwise, keeping the default command line unchanged).
http_args() {
    if [ -n "$HTTP_OFFSET" ]; then
        echo "-http 127.0.0.1:$(($1 + HTTP_OFFSET))"
    fi
}

# data_args PORT: the daemon's durability flags when CLUSTER_DATA_ROOT
# is set (nothing otherwise, keeping daemons memory-only).
data_args() {
    if [ -n "$DATA_ROOT" ]; then
        mkdir -p "$DATA_ROOT/node$1"
        echo "-data $DATA_ROOT/node$1 -fsync always"
    fi
}

# await_ready PORT: with CLUSTER_HTTP_OFFSET, poll the daemon's
# /healthz endpoint (200 only once recovered, joined and serving);
# otherwise fall back to grepping the log for the readiness banner. On
# timeout, show the log tail and fail.
await_ready() {
    local port=$1 log="node$1.log"
    for _ in $(seq 1 150); do
        if [ -n "$HTTP_OFFSET" ]; then
            if curl -sf "http://127.0.0.1:$((port + HTTP_OFFSET))/healthz" >/dev/null 2>&1; then
                return 0
            fi
        elif grep -q "hdknode listening" "$log" 2>/dev/null; then
            return 0
        fi
        sleep 0.2
    done
    echo "cluster-up: daemon on port $port never became ready; tail of $log:" >&2
    tail -n 40 "$log" >&2 || true
    return 1
}

# Node 0 boots alone; every further node joins through it. Sequential
# boot keeps membership convergence deterministic.
FIRST_PORT=$BASE_PORT
# shellcheck disable=SC2046 # http_args/data_args are intentionally word-split
"$BIN" -listen "127.0.0.1:$FIRST_PORT" -replicas "$REPLICAS" $(http_args "$FIRST_PORT") $(data_args "$FIRST_PORT") \
    ${NODE_ARGS[@]+"${NODE_ARGS[@]}"} > "node$FIRST_PORT.log" 2>&1 &
PIDS+=($!)
await_ready "$FIRST_PORT" || exit 1

i=1
while [ "$i" -lt "$COUNT" ]; do
    port=$((BASE_PORT + i))
    # shellcheck disable=SC2046
    "$BIN" -listen "127.0.0.1:$port" -join "127.0.0.1:$FIRST_PORT" -replicas "$REPLICAS" $(http_args "$port") $(data_args "$port") \
        ${NODE_ARGS[@]+"${NODE_ARGS[@]}"} > "node$port.log" 2>&1 &
    PIDS+=($!)
    await_ready "$port" || exit 1
    i=$((i + 1))
done

"$@"
