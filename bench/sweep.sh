#!/usr/bin/env bash
# Runs every workload once per seed and records the results for -compare:
#   bench/sweep.sh A.jsonl 1 10      # seeds 1..10 into A.jsonl
#   bench/run.sh -compare A.jsonl B.jsonl
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(realpath "$1")"
for seed in $(seq "${2:-1}" "${3:-10}"); do
  bash "$here/run.sh" -seed "$seed" -record "$out" >/dev/null
done
