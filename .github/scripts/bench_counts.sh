#!/usr/bin/env bash
# Simulator count gate (ROADMAP item 18c): a fresh benchmark run of the two
# simulator workloads must reproduce the exact counts of the last entry of
# BENCH_e2e.json. Timings are printed, never gated: on a shared runner
# they say nothing.
#
#   bench_counts.sh                      build, run both workloads, compare
#   bench_counts.sh --check BASE RESULT  compare a runner result file with
#                                        the last entry of trajectory BASE
#
# Gated, per workload (`sim_paper_cells`, `sim_scale_1000`): the per-layer
# `desim.events_dispatched`, `desim.peak_pending`, `desim.outputs` and
# `desim.trace_events`, and the workload's `failed`. Each is a count per
# simulator repetition, the same at any `--seconds`, so a 1 s run at the
# default seed compares with a `--runs 5` entry of 20 s runs.
#
# A change that moves these counts on purpose (an engine, model or trace
# change) appends a new entry with `bench_e2e.sh`; the gate then compares
# against it. Fails closed: a missing, empty, truncated or non-JSON file,
# or one without a workload or a field, exits 2; a count that differs
# exits 1. `bench_counts_test.sh` checks both.
set -euo pipefail
workloads=(sim_paper_cells sim_scale_1000)
fields=(desim.events_dispatched desim.peak_pending desim.outputs desim.trace_events failed)

# count FILE ROOT WORKLOAD FIELD: print one number, or fail. ROOT is the jq
# path of the runner's result object inside FILE ('' for the whole file).
# jq 1.6 exits 0 on an empty file, so an empty answer fails here.
count() {
  local path=".per_layer[\$f].value" v
  [ "$4" = failed ] && path=.failed
  v=$(jq -e --arg w "$3" --arg f "$4" \
    "[$2.workloads[] | select(.name == \$w)] | if length == 1 then .[0] else null end | $path | numbers" \
    "$1" 2>/dev/null) && [ -n "$v" ] && echo "$v"
}

# check BASE RESULT: compare every gated count; exit 0, 1 or 2.
check() {
  local base=$1 result=$2 w f want got status=0
  for w in "${workloads[@]}"; do
    for f in "${fields[@]}"; do
      want=$(count "$base" '.[-1].result' "$w" "$f") || {
        echo "bench_counts: $base: no $w $f in its last entry" >&2
        return 2
      }
      got=$(count "$result" '' "$w" "$f") || {
        echo "bench_counts: $result: no $w $f" >&2
        return 2
      }
      if [ "$want" = "$got" ]; then
        echo "  ok   $w $f = $got"
      else
        echo "  FAIL $w $f = $got, last entry has $want"
        status=1
      fi
    done
  done
  return "$status"
}

if [ "${1:-}" = --check ]; then
  if [ $# -ne 3 ]; then
    echo "usage: bench_counts.sh [--check BASE RESULT]" >&2
    exit 2
  fi
  status=0
  check "$2" "$3" || status=$?
  exit "$status"
fi
if [ $# -ne 0 ]; then
  echo "usage: bench_counts.sh [--check BASE RESULT]" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
results=()
for w in "${workloads[@]}"; do
  start=$(date +%s%N)
  benchmark/target/release/bench --workload "$w" --seconds 1 --out "$work/$w.json" >"$work/$w.log" || {
    status=$?
    cat "$work/$w.log"
    echo "bench_counts: the $w run failed (exit $status)" >&2
    exit "$status"
  }
  echo "bench_counts: $w ran in $((($(date +%s%N) - start) / 1000000)) ms (not gated)"
  jq -r '.workloads[0] | .name as $w | .end_to_end | to_entries[]
    | "  \($w) \(.key): \(.value.median) \(.value.unit) (not gated)"' "$work/$w.json"
  results+=("$work/$w.json")
done
jq -s '{workloads: map(.workloads[])}' "${results[@]}" >"$work/result.json"
status=0
check BENCH_e2e.json "$work/result.json" || status=$?
[ "$status" -eq 0 ] && echo "bench_counts: ok" || echo "bench_counts: failed (exit $status)" >&2
exit "$status"
