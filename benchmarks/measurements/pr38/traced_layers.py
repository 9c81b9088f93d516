"""Every layer of a traced run, parent -> change, from result files.

    python3 traced_layers.py OUTDIR

OUTDIR is what ``../pr29/traced.py PARENT CHANGE OUTDIR`` wrote: one
``result_<workload>.json`` per workload under ``OUTDIR/parent`` and
``OUTDIR/change``.  Per workload, ``self_share`` and
``self_ms_per_op`` of every layer the tracer names (none folded away),
then the evaluator's, the insert translator's and the subscription
registry's per-unit metrics and ``trace.attributed_share``.
"""
import json
import pathlib
import sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
UNITS = (
    "core.dag_eval.evals_per_op",
    "core.dag_eval.ms_per_eval",
    "relview.insert.ms_per_call",
    "subscribe.ms_per_commit",
    "subscribe.full_refresh_per_commit",
    "subscribe.skip_ratio",
    "subscribe.inclusive_share",
    "trace.attributed_share",
)


def main():
    outdir = pathlib.Path(sys.argv[1])
    for workload in WORKLOADS:
        sides = [
            json.loads((outdir / side / f"result_{workload}.json").read_text())
            for side in ("parent", "change")
        ]
        metrics = [side["metrics"] for side in sides]
        layers = sorted(
            key[: -len(".self_share")] for key in metrics[0]
            if key.endswith(".self_share")
        )
        print(f"{workload}: correct with 0 failed: " + " -> ".join(
            str(side["correct"] and side["failed"] == 0) for side in sides))
        print(f"   {'layer':34s} {'self_share':>22s} {'self_ms_per_op':>24s}")
        for layer in layers:
            share = [m[f"{layer}.self_share"]["value"] or 0.0 for m in metrics]
            ms = [m[f"{layer}.self_ms_per_op"]["value"] or 0.0 for m in metrics]
            print(f"   {layer:34s} {share[0]:>9.4f} -> {share[1]:<9.4f} "
                  f"{ms[0]:>10.4f} -> {ms[1]:<10.4f}")
        for key in UNITS:
            values = [(m.get(key) or {}).get("value") for m in metrics]
            shown = ["%9.4f" % v if v is not None else "%9s" % "-"
                     for v in values]
            print(f"   {key:34s} {shown[0]} -> {shown[1]}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
