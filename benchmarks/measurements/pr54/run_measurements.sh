#!/bin/sh
# The runs behind README.md, each step alone on the cores.
#   sh run_measurements.sh PARENT CHANGE OUTDIR FIRST_SEED
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the
# change's tree; OUTDIR: scratch space for the per-side result files
# compare.py reads.  Outcome digests of both sides; ten alternating e2e
# pairs per workload, seeds FIRST_SEED .. FIRST_SEED+9; the lockstep
# comparison of every workload, and of `mixed` and `dense_dag` with the
# Δ(M,L) split; five alternating traced runs per side of `mixed` and one
# of each other workload.
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
for workload in mixed dense_dag read_mostly subscribed_durable; do
    python3 "$HERE/lockstep.py" "$PARENT" "$CHANGE" "$workload" "$FIRST" \
        > "$HERE/lockstep_$workload.txt"
done
for workload in mixed dense_dag; do
    python3 "$HERE/lockstep.py" "$PARENT" "$CHANGE" "$workload" "$FIRST" --split \
        > "$HERE/lockstep_split_$workload.txt"
done
python3 "$HERE/traced_layers.py" "$PARENT" "$CHANGE" mixed 5 > "$HERE/traced_layers_mixed.txt"
for workload in dense_dag read_mostly subscribed_durable; do
    python3 "$HERE/traced_layers.py" "$PARENT" "$CHANGE" "$workload" 1 \
        > "$HERE/traced_layers_$workload.txt"
done
