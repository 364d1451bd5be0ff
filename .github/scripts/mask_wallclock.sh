#!/usr/bin/env bash
# Copy a `repro --out` directory and the run's stdout with the wall-clock
# fields masked, so two runs (or two commits) can be compared with `diff -r`:
# everything else `repro` writes is a function of the seeds.
#
#   mask_wallclock.sh <out-dir> <stdout-file> <masked-dir>
set -euo pipefail
src=$1 log=$2 dst=$3
mkdir -p "$dst"
for f in "$src"/*; do
  sed -E 's/"(epoch_unix_us|t_unix_us)":[0-9]+/"\1":0/g' "$f" >"$dst/$(basename "$f")"
done
# scale_sweep.csv: wall_ms and events_per_sec are columns 9 and 10.
awk -F, -v OFS=, 'NR > 1 { $9 = "-"; $10 = "-" } 1' "$src/scale_sweep.csv" >"$dst/scale_sweep.csv"
# stdout: the same two columns of the scale table, and the name of the
# output directory.
awk -v dir="$src" '
  /^== /                  { scale = /^== Scale sweep/ }
  /^Shape checks/         { scale = 0 }
  scale && /^[0-9]/       { $9 = "-"; $10 = "-" }
  { gsub(dir, "OUT"); print }
' "$log" >"$dst/stdout.txt"
