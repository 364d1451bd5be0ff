#!/usr/bin/env bash
# Print the non-test line count of each crate's src/ and the total, by the
# rule CHANGES.md uses: non-blank lines that are not `//` comments (doc
# comments included), above each file's first top-level test-only `cfg`
# attribute — `#[cfg(test)]`, or an `all(..)` that lists `test`, such as
# `#[cfg(all(test, not(loom)))]`. The one exception is such an attribute
# on a file module (`#[cfg(all(loom, test))] mod loom_tests;`): counting
# goes on below it, and the module's file is not counted at all. Reports
# only; not a gate.
#
#   nontest_loc.sh [crate-src-dir ...]      (default: crates/*/src)
#   nontest_loc.sh -f <dir>                 one line per file of <dir>
set -euo pipefail
cd "$(dirname "$0")/../.."

# A top-level `cfg` attribute that holds only under test, and a file
# module declaration.
test_cfg='^#\[cfg\((test\)|all\((test[,)]|.*[ ,]test[,)]))'
mod_file='^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;'

count() {
  [ $# -gt 0 ] || { echo 0; return; }
  awk -v t="$test_cfg" -v m="$mod_file" '
    FNR == 1                   { done = 0; held = 0 }
    done                       { next }
    held && $0 ~ m             { held = 0; next }
    held                       { done = 1; next }
    $0 ~ t                     { held = 1; next }
    /^[[:space:]]*$/           { next }
    /^[[:space:]]*\/\//        { next }
    { n++ }
    END { print n + 0 }
  ' "$@"
}

# The .rs files under $1, less the modules declared under a test-only cfg.
sources() {
  local all test_mods
  all=$(find "$1" -name '*.rs' | sort)
  test_mods=$(awk -v t="$test_cfg" -v m="$mod_file" '
    prev && $0 ~ m {
      name = $0
      sub(/^.*mod /, "", name)
      sub(/;.*$/, "", name)
      dir = FILENAME
      sub(/[^\/]*$/, "", dir)
      print dir name ".rs"
    }
    { prev = ($0 ~ t) }
  ' $all)
  for f in $all; do
    grep -qxF "$f" <<<"$test_mods" || echo "$f"
  done
}

if [ "${1:-}" = "-f" ]; then
  for f in $(sources "$2"); do
    printf '%6d  %s\n' "$(count "$f")" "$f"
  done
  exit 0
fi

[ $# -gt 0 ] || set -- crates/*/src
total=0
for dir in "$@"; do
  n=$(count $(sources "$dir"))
  printf '%6d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
