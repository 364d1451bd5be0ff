#!/usr/bin/env bash
# Print the non-test line count of each crate's src/ and the total, by the
# rule CHANGES.md uses: non-blank lines that are not `//` comments (doc
# comments included), above each file's first `#[cfg(test)]`. Reports only;
# not a gate.
#
#   nontest_loc.sh [crate-src-dir ...]      (default: crates/*/src)
#   nontest_loc.sh -f <dir>                 one line per file of <dir>
set -euo pipefail
cd "$(dirname "$0")/../.."

count() {
  awk '
    FNR == 1                   { done = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
    done                       { next }
    /^[[:space:]]*$/           { next }
    /^[[:space:]]*\/\//        { next }
    { n++ }
    END { print n + 0 }
  ' "$@"
}

if [ "${1:-}" = "-f" ]; then
  for f in $(find "$2" -name '*.rs' | sort); do
    printf '%6d  %s\n' "$(count "$f")" "$f"
  done
  exit 0
fi

[ $# -gt 0 ] || set -- crates/*/src
total=0
for dir in "$@"; do
  n=$(count $(find "$dir" -name '*.rs' | sort))
  printf '%6d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
