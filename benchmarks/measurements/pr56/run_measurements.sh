#!/bin/sh
# The runs behind README.md, each step alone on the cores.
#   sh run_measurements.sh PARENT CHANGE VARIANT OUTDIR FIRST_SEED
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the
# change's tree; VARIANT: a copy of CHANGE with leaf_rows/leaf_rows.patch
# applied; OUTDIR: scratch space for the per-side result files
# compare.py reads.  Outcome digests of both sides over the e2e pools
# (all 19 streams), which must be identical; `L` hashed after every op
# or flush of 20 generated streams on both sides, which must be
# identical; ten alternating e2e pairs per workload, seeds FIRST_SEED ..
# FIRST_SEED+9; the lockstep comparison of every workload, and of
# `mixed`, `dense_dag` and `read_mostly` with the Δ(M,L) split
# (`read_mostly` on two seeds and with the sides swapped); then the
# text-leaf variant in lockstep against CHANGE, both ways round on
# `mixed` and `read_mostly`, and against PARENT on `mixed`.
set -e
PARENT=$1 CHANGE=$2 VARIANT=$3 OUT=$4 FIRST=$5
LAST=$((FIRST + 9))
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$HERE/../../..
LOCKSTEP=$HERE/../pr54/lockstep.py
mkdir -p "$OUT" "$HERE/leaf_rows"
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
cmp "$HERE/digests_parent.json" "$HERE/digests_change.json"
python3 "$HERE/../pr45/topo_hash.py" "$PARENT" > "$HERE/topo_hash_parent.txt"
python3 "$HERE/../pr45/topo_hash.py" "$CHANGE" > "$HERE/topo_hash_change.txt"
cmp "$HERE/topo_hash_parent.txt" "$HERE/topo_hash_change.txt"
python3 "$HERE/../pr22/pairs_at.py" "$PARENT" "$CHANGE" "$OUT/seeds$FIRST-$LAST" "$FIRST" 10 \
    mixed dense_dag read_mostly subscribed_durable > "$HERE/pairs_seeds$FIRST-$LAST.log"
python3 "$ROOT/benchmarks/e2e/compare.py" "$OUT/seeds$FIRST-$LAST/A" "$OUT/seeds$FIRST-$LAST/B" \
    > "$HERE/compare_seeds$FIRST-$LAST.txt" || echo "compare.py: a worse row" >&2
for workload in mixed dense_dag read_mostly subscribed_durable; do
    python3 "$LOCKSTEP" "$PARENT" "$CHANGE" "$workload" "$FIRST" > "$HERE/lockstep_$workload.txt"
done
for workload in mixed dense_dag; do
    python3 "$LOCKSTEP" "$PARENT" "$CHANGE" "$workload" "$FIRST" --split \
        > "$HERE/lockstep_split_$workload.txt"
done
for seed in 1 2; do
    python3 "$LOCKSTEP" "$PARENT" "$CHANGE" read_mostly $((FIRST + seed)) \
        > "$HERE/lockstep_read_mostly_seed$((FIRST + seed)).txt"
done
for seed in 0 1; do
    python3 "$LOCKSTEP" "$PARENT" "$CHANGE" read_mostly $((FIRST + seed)) --split \
        > "$HERE/lockstep_split_read_mostly_seed$((FIRST + seed)).txt"
done
python3 "$LOCKSTEP" "$CHANGE" "$PARENT" read_mostly "$FIRST" --split \
    > "$HERE/lockstep_split_read_mostly_seed${FIRST}_swapped.txt"
for workload in mixed dense_dag read_mostly subscribed_durable; do
    python3 "$LOCKSTEP" "$CHANGE" "$VARIANT" "$workload" "$FIRST" \
        > "$HERE/leaf_rows/lockstep_$workload.txt"
done
python3 "$LOCKSTEP" "$CHANGE" "$VARIANT" mixed "$FIRST" --split \
    > "$HERE/leaf_rows/lockstep_split_mixed.txt"
python3 "$LOCKSTEP" "$PARENT" "$VARIANT" mixed "$FIRST" \
    > "$HERE/leaf_rows/lockstep_mixed_vs_parent.txt"
for workload in mixed read_mostly; do
    python3 "$LOCKSTEP" "$VARIANT" "$CHANGE" "$workload" "$FIRST" \
        > "$HERE/leaf_rows/lockstep_${workload}_swapped.txt"
done
