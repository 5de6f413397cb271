#!/usr/bin/env bash
# check-metrics.sh — scrape every daemon's /metrics endpoint and assert
# the serving-path series a healthy cluster must expose. The CI
# companion of scripts/cluster-up.sh run with CLUSTER_HTTP_OFFSET: after
# a workload has run against the cluster, this script proves the
# telemetry surface reported it.
#
# Usage:
#   check-metrics.sh BASE_HTTP_PORT COUNT
#
#   BASE_HTTP_PORT  node 0's observability port (RPC BASE_PORT +
#                   CLUSTER_HTTP_OFFSET), node i on BASE_HTTP_PORT+i
#   COUNT           number of daemons
#
# Asserts, per daemon: /metrics is scrapeable and hdk_build_info is
# present; and cluster-wide: hdk_search_rpcs_total summed > 0 (the
# workload was actually served), hdk_search_coordination_nanoseconds
# saw at least one observation, every hdk_search_queue_depth is 0
# (the cluster is idle when scraped), and the two coordinator series the
# absent-probe ratio and the local/remote fetch split are derived from —
# hdk_query_found_keys_total{level} and hdk_query_local_fetches_total —
# are exposed by every daemon and non-zero cluster-wide. Each scrape is
# dumped to
# ./metrics-node<port>.txt — upload these as artifacts on failure.
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASE_HTTP_PORT COUNT" >&2
    exit 2
fi
BASE_PORT=$1
COUNT=$2

fail=0
total_rpcs=0
total_coords=0
total_found=0
total_local=0

i=0
while [ "$i" -lt "$COUNT" ]; do
    port=$((BASE_PORT + i))
    dump="metrics-node$port.txt"
    if ! curl -sf "http://127.0.0.1:$port/metrics" -o "$dump"; then
        echo "check-metrics: scrape of 127.0.0.1:$port/metrics failed" >&2
        fail=1
        i=$((i + 1))
        continue
    fi
    if ! grep -q '^hdk_build_info{' "$dump"; then
        echo "check-metrics: node $port exposes no hdk_build_info" >&2
        fail=1
    fi
    depth=$(awk '$1 == "hdk_search_queue_depth" {print $2}' "$dump")
    if [ "${depth:-missing}" != "0" ]; then
        echo "check-metrics: node $port idle queue depth is '${depth:-missing}', want 0" >&2
        fail=1
    fi
    for series in 'hdk_query_found_keys_total{' 'hdk_query_local_fetches_total '; do
        if ! grep -q "^$series" "$dump"; then
            echo "check-metrics: node $port exposes no ${series%[{ ]} series" >&2
            fail=1
        fi
    done
    found=$(awk '$1 ~ /^hdk_query_found_keys_total\{/ {n += $2} END {print n + 0}' "$dump")
    locals=$(awk '$1 == "hdk_query_local_fetches_total" {print $2}' "$dump")
    total_found=$((total_found + ${found:-0}))
    total_local=$((total_local + ${locals:-0}))
    rpcs=$(awk '$1 == "hdk_search_rpcs_total" {print $2}' "$dump")
    coords=$(awk '$1 == "hdk_search_coordination_nanoseconds_count" {print $2}' "$dump")
    total_rpcs=$((total_rpcs + ${rpcs:-0}))
    total_coords=$((total_coords + ${coords:-0}))
    echo "check-metrics: node $port ok (${rpcs:-0} search RPCs, ${coords:-0} coordinations)"
    i=$((i + 1))
done

if [ "$total_rpcs" -eq 0 ]; then
    echo "check-metrics: hdk_search_rpcs_total is 0 cluster-wide — the workload never reached the daemons" >&2
    fail=1
fi
if [ "$total_coords" -eq 0 ]; then
    echo "check-metrics: coordination-latency histogram is empty cluster-wide" >&2
    fail=1
fi
if [ "$total_found" -eq 0 ]; then
    echo "check-metrics: hdk_query_found_keys_total is 0 cluster-wide — no probe found a key" >&2
    fail=1
fi
if [ "$total_local" -eq 0 ]; then
    echo "check-metrics: hdk_query_local_fetches_total is 0 cluster-wide — no coordinator read its own store" >&2
    fail=1
fi
exit "$fail"
