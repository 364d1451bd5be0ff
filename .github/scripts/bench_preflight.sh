#!/usr/bin/env bash
# Benchmark pre-flight (ROADMAP items 2 and 18): does `benchmark/` still build and pass
# against the crates, from committed files only and without the network?
# The driver builds the benchmark from a fresh checkout, so a file left
# uncommitted, a build that leans on a warm target directory, or a `pub`
# signature bent under one of the benchmark's calls is invisible in the
# working tree and fatal at the gate (PR 12). Run it before handing in any
# change to a `pub` item of a crate `benchmark/Cargo.toml` names.
#
#   bench_preflight.sh [dir] [tree-ish]
#
# Exports <tree-ish> (default HEAD; `$(git write-tree)` checks what is
# staged) into the empty directory <dir> (default: a new temporary one) and
# there runs the benchmark package's tests and its smoke run. `git archive`,
# not `git worktree`: nothing is registered in .git, nothing to prune.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
dir=${1:-$(mktemp -d)}
tree=${2:-HEAD}
mkdir -p "$dir"
if [ -n "$(ls -A "$dir")" ]; then
  echo "bench_preflight: $dir is not empty" >&2
  exit 2
fi
git -C "$root" archive "$tree" | tar -x -C "$dir"
cd "$dir"
(cd benchmark && cargo test --release --offline)
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
echo "bench_preflight: ok ($tree in $dir)"
