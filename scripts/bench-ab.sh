#!/usr/bin/env bash
# bench-ab.sh — A/B the benchmark (bench/run.sh, BENCHMARK.json) between
# two commits on one machine.
#
# Usage:
#   scripts/bench-ab.sh BASE HEAD [PAIRS]
#
# Checks BASE and HEAD out into temporary git worktrees and, for every
# workload BENCHMARK.json names, runs PAIRS (default 4) pairs of
# `bench/run.sh -workload W -seed i`: one run per side, both on seed i,
# base first in odd pairs and head first in even ones, so a machine that
# drifts during the job drifts under both sides. It then prints
# `bench/run.sh -compare` of the two sides under HEAD's bounds, and
# pairs.txt: per workload and end-to-end metric, the pairs HEAD won
# (same seed, better value; ties count for neither side) and BASE's
# quartiles — the figures a claimed gain is judged on.
#
# Everything lands in bench-ab/ at the repository root: base.jsonl and
# head.jsonl (every run's metrics), compare.txt, pairs.txt, one log per
# run.
#
# Exits non-zero iff a run fails (the benchmark's pre-timing check of
# every answer included) or a row of the comparison reads "worse". An
# "unresolved" row — one side's runs spread wider than the row's bound —
# is printed but does not fail: on a shared machine it is not evidence of
# a regression. Needs git, go and jq; runs never overlap (the benchmark's
# daemons use fixed ports).
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ] || ! [[ "${3:-4}" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 BASE HEAD [PAIRS]" >&2
    exit 2
fi
pairs=${3:-4}
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
head=$(git -C "$root" rev-parse --verify "$2^{commit}")
out="$root/bench-ab"
rm -rf "$out"
mkdir -p "$out"

tmp=$(mktemp -d)
cleanup() {
    chmod -R u+w "$tmp" 2>/dev/null || true # the Go module cache is read-only
    for side in base head; do
        git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
    done
    rm -rf "$tmp"
    git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base"
git -C "$root" worktree add --quiet --detach "$tmp/head" "$head"
echo "bench-ab: base $base, head $head, $pairs pairs per workload"

failed=0
run() { # side seed workload
    local log="$out/$1-$3-seed$2.log"
    if (cd "$tmp/$1" && bash bench/run.sh -workload "$3" -seed "$2" -record "$out/$1.jsonl") >"$log" 2>&1; then
        echo "$1 $3 seed $2: $(tail -n 1 "$log")"
    else
        echo "$1 $3 seed $2: FAILED, see $log"
        failed=$((failed + 1))
    fi
}
for w in $(jq -r '.workloads[].name' "$tmp/head/BENCHMARK.json"); do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$i" "$w"
            run head "$i" "$w"
        else
            run head "$i" "$w"
            run base "$i" "$w"
        fi
    done
done

status=0
(cd "$tmp/head" && bash bench/run.sh -compare "$out/base.jsonl" "$out/head.jsonl") >"$out/compare.txt" 2>&1 || status=$?
cat "$out/compare.txt"
# quartiles is the exclusive method bench/run.sh -compare uses.
jq -rn --slurpfile spec "$tmp/head/BENCHMARK.json" \
    --slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" '
  def cut($s; $i): ($s | length) as $n | (($i * ($n + 1) / 4) | floor) as $j
    | if $j < 1 then $s[0] elif $j > $n - 1 then $s[$n - 1]
      else ($s[$j - 1] * (4 - ($i * ($n + 1) - $j * 4)) + $s[$j] * ($i * ($n + 1) - $j * 4)) / 4 end;
  def quartiles: sort as $s | [cut($s; 1), cut($s; 3)];
  def runs($side; $w): [$side[] | select(.workload == $w)];
  "workload         metric                   head won  base q1        base q3",
  ($spec[0].workloads[].name as $w | runs($base; $w) as $b | runs($head; $w) as $h
   | $spec[0].end_to_end[] as $m
   | [$b[] | .seed as $seed | .metrics[$m.name] as $bv | $h[] | select(.seed == $seed)
      | .metrics[$m.name] as $hv | select($bv != null and $hv != null)
      | if $m.better == "higher" then $hv > $bv else $hv < $bv end] as $pairs
   | select($pairs | length > 0)
   | "\($w | .[0:16] | . + " " * (16 - length)) \($m.name | . + " " * (24 - length)) \(
       "\($pairs | map(select(.)) | length)/\($pairs | length)" | . + " " * (9 - length)) \(
       [$b[].metrics[$m.name] | select(. != null)] | quartiles | map(. * 1e4 | round / 1e4 | tostring | . + " " * (14 - length)) | join(" "))")
' >"$out/pairs.txt" 2>&1 || echo "bench-ab: the pairs table failed, see $out/pairs.txt" >&2
cat "$out/pairs.txt"
worse=$(awk '$NF == "worse"' "$out/compare.txt" | wc -l)
unresolved=$(awk '$NF == "unresolved"' "$out/compare.txt" | wc -l)
echo "bench-ab: $failed failed runs, $worse worse rows, $unresolved unresolved rows"
if [ "$failed" -gt 0 ] || [ "$worse" -gt 0 ]; then
    exit 1
fi
if [ "$status" -ne 0 ] && [ "$unresolved" -eq 0 ]; then
    echo "bench-ab: the comparison itself failed" >&2
    exit 1
fi
