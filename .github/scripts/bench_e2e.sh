#!/usr/bin/env bash
# Benchmark trajectory (ROADMAP item 18): build one tree's benchmark once,
# run it, and append the runner's result to BENCH_e2e.json at the
# repository root.
#
#   bench_e2e.sh <label> <tree-ish>
#
# <label> names the entry ("parent", "change", ...); `$(git write-tree)` as
# <tree-ish> measures what is staged. Every entry is the same run, the
# runner's `--runs 5` (every workload, 20 s runs, ~12 min), so entries
# compare with each other.
#
# The tree is exported with `git archive` into a temporary directory and
# built there, but the binary runs from the repository root: every entry is
# measured from the same working directory, because `memory_mb` moves with
# it (one binary read 11.4 MB of RSS in its own checkout and 13.1 MB in
# another). The runner stamps `provenance.commit` from the checkout it ran
# in, so the script overwrites it with the entry's `commit`: the measured
# commit, or "" for a tree that has none (a staged tree). The entry's
# `tree` names what was measured either way.
#
# The file is a JSON array, one entry per measured tree, append-only. A perf
# change appends its parent's entry and its own, measured one after the
# other on an otherwise idle host. Exit status is the runner's (1: a
# correctness check failed; the entry is appended all the same).
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: bench_e2e.sh <label> <tree-ish>" >&2
  exit 2
fi
label=$1
tree=$2
root=$(git rev-parse --show-toplevel)
tree_id=$(git -C "$root" rev-parse --verify "$tree^{tree}")
commit=$(git -C "$root" rev-parse --verify -q "$tree^{commit}" 2>/dev/null || true)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$root" archive "$tree" | tar -x -C "$work/src"
cargo build --release --offline --quiet --manifest-path "$work/src/benchmark/Cargo.toml"

cd "$root"
status=0
"$work/src/benchmark/target/release/bench" --runs 5 --out "$work/result.json" || status=$?
if [ ! -s "$work/result.json" ]; then
  echo "bench_e2e: the runner wrote no result (exit $status)" >&2
  [ "$status" -ne 0 ] || status=2
  exit "$status"
fi

json_str() { printf '"%s"' "$(printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g')"; }
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)
mem_kb=$(sed -n 's/^MemTotal:[[:space:]]*\([0-9]*\) kB/\1/p' /proc/meminfo 2>/dev/null)
entry=$(
  printf '{\n"label": %s,\n"tree": %s,\n"commit": %s,\n' \
    "$(json_str "$label")" "$(json_str "$tree_id")" "$(json_str "$commit")"
  printf '"measured_at": %s,\n"runner_args": "--runs 5",\n' \
    "$(json_str "$(date -u +%Y-%m-%dT%H:%M:%SZ)")"
  printf '"host": {"cpu": %s, "nproc": %s, "mem_mb": %s},\n' \
    "$(json_str "${cpu:-unknown}")" "$(nproc)" "$((${mem_kb:-0} / 1024))"
  printf '"result": '
  sed '/"provenance": {/,/}/ s/"commit": "[^"]*"/"commit": "'"$commit"'"/' "$work/result.json"
  printf '\n}'
)

file="$root/BENCH_e2e.json"
if [ ! -s "$file" ]; then
  printf '[\n%s\n]\n' "$entry" >"$file"
else
  # Drop the closing bracket, append the entry, close again.
  sed -i '$ d' "$file"
  printf ',\n%s\n]\n' "$entry" >>"$file"
fi
echo "bench_e2e: appended \"$label\" ($tree_id) to $file"
exit "$status"
