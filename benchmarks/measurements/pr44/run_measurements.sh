#!/bin/sh
# The runs behind README.md: copy 3's, then the final tree's (copy 4); the
# earlier copies ran the same commands with the seeds their file names give.
#   sh run_measurements.sh PARENT CHANGE OUTDIR
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the change's
# tree; OUTDIR: scratch space for the per-side result files compare.py reads.
set -e
PARENT=$1 CHANGE=$2 OUT=$3
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$HERE/../../..
pairs() {  # FIRST_SEED NAME WORKLOAD...
    seed=$1 name=$2; shift 2
    python3 "$HERE/../pr22/pairs_at.py" "$PARENT" "$CHANGE" "$OUT/$name" "$seed" 10 \
        "$@" > "$HERE/pairs_$name.log"
    python3 "$ROOT/benchmarks/e2e/compare.py" "$OUT/$name/A" "$OUT/$name/B" \
        > "$HERE/compare_$name.txt"
}
pairs 4470 seeds4470-4479 mixed dense_dag read_mostly subscribed_durable
pairs 4490 dense_dag_seeds4490-4499 dense_dag
(cd "$ROOT" && python3 benchmarks/measurements/pr39/traced_repeats.py \
    "$PARENT" "$CHANGE" dense_dag 5) > "$HERE/traced_dense_dag_seed42.txt"
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
# Where a write's time goes in process, and each pool's fresh-text share.
for w in dense_dag mixed read_mostly subscribed_durable; do
    for side in "$PARENT" "$CHANGE" "$PARENT" "$CHANGE"; do
        python3 "$HERE/loop_cost.py" "$side" "$w" 3
    done
done > "$HERE/loop_cost.txt"
# Copy 4, the final tree: one more set of every workload, and its digests.
pairs 4500 seeds4500-4509 mixed dense_dag read_mostly subscribed_durable
pairs 4510 dense_dag_seeds4510-4519 dense_dag
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change_final.json"
