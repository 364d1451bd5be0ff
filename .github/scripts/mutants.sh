#!/usr/bin/env bash
# Run the committed mutants (mutants/*.patch, format in mutants/README.md)
# against a `git archive` export of a tree: apply each patch, run each of
# its `Command:` lines, and require every command to fail with the test its
# `Kills:` line names among the failures; then take the patch back out.
# One export and one target directory serve every mutant, so only the
# crates a patch touches rebuild.
#
#   mutants.sh [-r TREE] [PATCH ...]
#
# TREE defaults to HEAD (committed files; pass "$(git write-tree)" for the
# staged ones); PATCH defaults to every mutants/*.patch. CARGO_TARGET_DIR,
# if set, is the shared target directory; otherwise one beside the export,
# removed with it.
# Exit 0 when every mutant is killed, 1 on a survivor or a patch that no
# longer applies, 2 on usage errors.
set -euo pipefail

tree=HEAD
if [[ ${1:-} == -r ]]; then
  [[ $# -ge 2 ]] || { echo "usage: $0 [-r TREE] [PATCH ...]" >&2; exit 2; }
  tree=$2
  shift 2
fi
root=$(git rev-parse --show-toplevel)
if [[ $# -gt 0 ]]; then
  patches=()
  for p in "$@"; do patches+=("$(realpath "$p")"); done
else
  patches=("$root"/mutants/*.patch)
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$root" archive "$tree" | tar -x -C "$work/src"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

failed=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  kills=$(sed -n 's/^Kills: //p' "$patch")
  mapfile -t commands < <(sed -n 's/^Command: //p' "$patch")
  if [[ -z $kills || ${#commands[@]} -eq 0 ]]; then
    echo "MALFORMED $name: needs a Kills: line and at least one Command: line"
    failed=1
    continue
  fi
  if ! (cd "$work/src" && git apply "$patch"); then
    echo "STALE     $name: the patch no longer applies"
    failed=1
    continue
  fi
  for cmd in "${commands[@]}"; do
    status=0
    (cd "$work/src" && CARGO_NET_OFFLINE=true bash -c "$cmd") >"$work/log" 2>&1 || status=$?
    # libtest prints `test <path> ... FAILED`, `<path>` ending in the
    # test's name.
    if [[ $status -ne 0 ]] && grep -Eq "^test ([^ ]*::)?$kills \.\.\. FAILED" "$work/log"; then
      echo "killed    $name: $cmd"
    else
      echo "SURVIVED  $name: $cmd (exit $status; $kills did not fail)"
      tail -n 20 "$work/log" | sed 's/^/    /'
      failed=1
    fi
  done
  # Taking the patch back out rewrites the files it touched, so the next
  # mutant's build sees them as changed and rebuilds them unmutated.
  (cd "$work/src" && git apply -R "$patch")
done
exit "$failed"
