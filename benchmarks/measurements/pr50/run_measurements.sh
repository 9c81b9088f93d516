#!/bin/sh
# The end-to-end runs behind README.md (ten alternating pairs per workload).
#   sh run_measurements.sh PARENT CHANGE OUTDIR FIRST_SEED
# PARENT: a copy of the parent commit's files; CHANGE: a copy of the
# change's tree; OUTDIR: scratch space for the per-side result files
# compare.py reads.  Ten alternating pairs per workload, seeds
# FIRST_SEED .. FIRST_SEED+9.  Each step runs alone: nothing else shares
# the cores while it measures.
set -e
PARENT=$1 CHANGE=$2 OUT=$3 FIRST=$4
LAST=$((FIRST + 9))
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$HERE/../../..
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
python3 "$HERE/../pr22/pairs_at.py" "$PARENT" "$CHANGE" "$OUT/seeds$FIRST-$LAST" "$FIRST" 10 \
    mixed dense_dag read_mostly subscribed_durable > "$HERE/pairs_seeds$FIRST-$LAST.log"
python3 "$ROOT/benchmarks/e2e/compare.py" "$OUT/seeds$FIRST-$LAST/A" "$OUT/seeds$FIRST-$LAST/B" \
    > "$HERE/compare_seeds$FIRST-$LAST.txt"
