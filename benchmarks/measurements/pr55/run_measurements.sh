#!/bin/sh
# The runs behind README.md, each step alone on the cores.
#   sh run_measurements.sh PARENT CHANGE OUTDIR FIRST_SEED
# PARENT: a `git clone` of the parent commit; CHANGE: a copy of the
# change's tree; OUTDIR: scratch space for the per-side result files
# compare.py reads and the churn stream.  Outcome digests of both sides;
# the decision census of the subscribed_durable pool on both sides, with
# every subscription's counters per stream, which must be identical; the
# CI churn stream checked on both sides under two hash seeds, whose
# tables must be identical; ten alternating e2e pairs per workload,
# seeds FIRST_SEED .. FIRST_SEED+9; the lockstep comparison of every
# workload, and of `mixed` and `dense_dag` with the Δ(M,L) split (the
# self-pair guard in `add_closure_below`); five alternating traced runs
# per side of subscribed_durable.
set -e
PARENT=$1 CHANGE=$2 OUT=$3 FIRST=$4
LAST=$((FIRST + 9))
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT=$HERE/../../..
mkdir -p "$OUT"
python3 "$HERE/../pr21/digests.py" "$PARENT" > "$HERE/digests_parent.json"
python3 "$HERE/../pr21/digests.py" "$CHANGE" > "$HERE/digests_change.json"
cmp "$HERE/digests_parent.json" "$HERE/digests_change.json"
for side in parent change; do
    if [ $side = parent ]; then checkout=$PARENT; else checkout=$CHANGE; fi
    python3 "$HERE/decisions.py" "$checkout" --assert-summary \
        --per-sub "$HERE/per_sub_$side.json" > "$HERE/decisions_$side.txt"
done
cmp "$HERE/per_sub_parent.json" "$HERE/per_sub_change.json"
PYTHONPATH=$CHANGE/src python3 -m repro.bench generate --workload synthetic:120 \
    --pattern churn --ops 60 --subscriptions 32 > "$OUT/churn.jsonl"
for side in parent change; do
    if [ $side = parent ]; then checkout=$PARENT; else checkout=$CHANGE; fi
    for seed in 1 2; do
        PYTHONHASHSEED=$seed PYTHONPATH=$checkout/src python3 \
            "$checkout/scripts/check_subscriptions.py" "$OUT/churn.jsonl" \
            > "$HERE/check_subscriptions_${side}_hashseed$seed.txt"
    done
done
for file in parent_hashseed2 change_hashseed1 change_hashseed2; do
    cmp "$HERE/check_subscriptions_parent_hashseed1.txt" \
        "$HERE/check_subscriptions_$file.txt"
done
python3 "$HERE/../pr22/pairs_at.py" "$PARENT" "$CHANGE" "$OUT/seeds$FIRST-$LAST" "$FIRST" 10 \
    mixed dense_dag read_mostly subscribed_durable > "$HERE/pairs_seeds$FIRST-$LAST.log"
python3 "$ROOT/benchmarks/e2e/compare.py" "$OUT/seeds$FIRST-$LAST/A" "$OUT/seeds$FIRST-$LAST/B" \
    > "$HERE/compare_seeds$FIRST-$LAST.txt" || echo "compare.py: a worse row" >&2
for workload in mixed dense_dag read_mostly subscribed_durable; do
    python3 "$HERE/../pr54/lockstep.py" "$PARENT" "$CHANGE" "$workload" "$FIRST" \
        > "$HERE/lockstep_$workload.txt"
done
for workload in mixed dense_dag; do
    python3 "$HERE/../pr54/lockstep.py" "$PARENT" "$CHANGE" "$workload" "$FIRST" --split \
        > "$HERE/lockstep_split_$workload.txt"
done
python3 "$HERE/traced_subscribe.py" "$PARENT" "$CHANGE" subscribed_durable 5 \
    > "$HERE/traced_subscribe.txt"
