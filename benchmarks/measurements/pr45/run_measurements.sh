#!/bin/sh
# The runs behind README.md.
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
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
pairs 4570 seeds4570-4579 mixed dense_dag read_mostly subscribed_durable
for side in "$PARENT" "$CHANGE"; do
    echo "== $side"
    python3 "$HERE/topo_hash.py" "$side"
done > "$HERE/topo_hash.txt"
for side in "$PARENT" "$CHANGE" "$PARENT" "$CHANGE"; do
    echo "== $side"
    python3 "$HERE/consistency_time.py" "$side" 3
done > "$HERE/consistency_time.txt"
