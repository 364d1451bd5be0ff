#!/usr/bin/env bash
# Test of bench_counts.sh's comparison (`--check`), without running the
# benchmark: a result equal to the trajectory's last entry passes (exit 0);
# one altered count fails (exit 1); every malformed input fails closed
# (exit 2): a missing, empty, truncated or non-JSON file, a result without
# a workload or a field, and a trajectory without entries.
#
#   bench_counts_test.sh [BENCH_e2e.json]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
gate=$here/bench_counts.sh
base=${1:-$here/../../BENCH_e2e.json}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# A fresh runner result that matches: the last entry's own result object.
jq '.[-1].result' "$base" >"$work/good.json"
failures=0

# expect STATUS NAME BASE RESULT
expect() {
  local want=$1 name=$2 got=0
  "$gate" --check "$3" "$4" >"$work/out.txt" 2>&1 || got=$?
  if [ "$got" = "$want" ]; then
    echo "ok   $name (exit $got)"
  else
    echo "FAIL $name: exit $got, want $want"
    sed 's/^/     /' "$work/out.txt"
    failures=$((failures + 1))
  fi
}

expect 0 "matching counts" "$base" "$work/good.json"

jq '(.workloads[] | select(.name == "sim_paper_cells")
  | .per_layer["desim.events_dispatched"].value) += 1' "$work/good.json" >"$work/altered.json"
expect 1 "one altered event count" "$base" "$work/altered.json"

jq '(.workloads[] | select(.name == "sim_scale_1000") | .failed) = 1' \
  "$work/good.json" >"$work/failed.json"
expect 1 "a failed repetition" "$base" "$work/failed.json"

: >"$work/empty.json"
head -c "$(($(wc -c <"$work/good.json") / 2))" "$work/good.json" >"$work/truncated.json"
echo "not json" >"$work/text.json"
jq 'del(.workloads[] | select(.name == "sim_scale_1000"))' "$work/good.json" >"$work/no_workload.json"
jq '(.workloads[] | select(.name == "sim_paper_cells") | .per_layer) |= del(.["desim.outputs"])' \
  "$work/good.json" >"$work/no_field.json"
jq '(.workloads[] | select(.name == "sim_paper_cells") | .per_layer["desim.outputs"].value) = "24635"' \
  "$work/good.json" >"$work/string_field.json"
jq '.workloads += [.workloads[] | select(.name == "sim_paper_cells")]' "$work/good.json" >"$work/duplicate.json"
for bad in missing empty truncated text no_workload no_field string_field duplicate; do
  expect 2 "result: $bad" "$base" "$work/$bad.json"
done

echo "[]" >"$work/no_entries.json"
jq '.[-1].result' "$base" >"$work/not_a_list.json"
for bad in missing empty truncated text no_entries not_a_list; do
  expect 2 "trajectory: $bad" "$work/$bad.json" "$work/good.json"
done

if [ "$failures" -ne 0 ]; then
  echo "bench_counts_test: $failures case(s) failed" >&2
  exit 1
fi
echo "bench_counts_test: ok"
