#!/bin/sh
# The runs behind README.md.
#   sh run_measurements.sh PARENT CHANGE OUTDIR
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the change's
# tree; OUTDIR: scratch space for the per-side result files compare.py reads.
set -e
PARENT=$1 CHANGE=$2 OUT=$3
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$HERE/../../..
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
python3 "$HERE/../pr22/pairs_at.py" "$PARENT" "$CHANGE" "$OUT/seeds4660-4669" 4660 10 \
    mixed dense_dag read_mostly subscribed_durable > "$HERE/pairs_seeds4660-4669.log"
python3 "$ROOT/benchmarks/e2e/compare.py" "$OUT/seeds4660-4669/A" "$OUT/seeds4660-4669/B" \
    > "$HERE/compare_seeds4660-4669.txt"
