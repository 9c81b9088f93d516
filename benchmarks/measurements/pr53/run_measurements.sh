#!/bin/sh
# The runs behind README.md, each step alone on the cores.
#   sh run_measurements.sh PARENT CHANGE OUTDIR FIRST_SEED
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the
# change's tree; OUTDIR: scratch space for the per-side result files
# compare.py reads.  Ten alternating e2e pairs per workload, seeds
# FIRST_SEED .. FIRST_SEED+9; ten alternating pairs of the warm
# per-call timing; the call-by-call split of both sides; six alternating
# pairs of each stream's first new-key call; five alternating traced runs
# per side of the two workloads with new-key inserts; insertions with T
# targets on each side; how often the change's programs are reused.
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
python3 "$HERE/../pr47/insert_shapes.py" "$PARENT" "$CHANGE" --pairs 10 --calls 1000 \
    > "$HERE/insert_shapes_pairs.txt"
python3 "$HERE/insert_calls.py" "$PARENT" > "$HERE/insert_calls_parent.txt"
python3 "$HERE/insert_calls.py" "$CHANGE" > "$HERE/insert_calls_change.txt"
python3 "$HERE/first_calls.py" "$PARENT" "$CHANGE" --pairs 6 > "$HERE/first_calls_pairs.txt"
for workload in subscribed_durable read_mostly; do
    python3 "$HERE/../pr47/traced_layers.py" "$PARENT" "$CHANGE" "$workload" 5 \
        > "$HERE/traced_layers_$workload.txt"
done
python3 "$HERE/multi_target.py" "$PARENT" > "$HERE/multi_target_parent.txt"
python3 "$HERE/multi_target.py" "$CHANGE" > "$HERE/multi_target_change.txt"
python3 "$HERE/programs.py" "$CHANGE" > "$HERE/programs_change.txt"
