"""Every layer of a traced run, parent -> change, from result files.

    python3 traced_layers.py OUTDIR

OUTDIR is what ``../pr29/traced.py PARENT CHANGE OUTDIR`` wrote: one
``result_<workload>.json`` per workload under ``OUTDIR/parent`` and
``OUTDIR/change``.  Prints, per workload, ``self_share`` and
``self_ms_per_op`` of every layer the tracer names (none folded away),
then ``trace.attributed_share``.
"""
import json
import pathlib
import sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")


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
        print(f"   {'layer':22s} {'self_share':>22s} {'self_ms_per_op':>24s}")
        for layer in layers:
            share = [m[f"{layer}.self_share"]["value"] or 0.0 for m in metrics]
            ms = [m[f"{layer}.self_ms_per_op"]["value"] or 0.0 for m in metrics]
            print(f"   {layer:22s} {share[0]:>9.4f} -> {share[1]:<9.4f} "
                  f"{ms[0]:>10.4f} -> {ms[1]:<10.4f}")
        key = "trace.attributed_share"
        values = [m[key]["value"] for m in metrics]
        print(f"   {key:22s} {values[0]:>9.4f} -> {values[1]:<9.4f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
