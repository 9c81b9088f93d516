"""The per-layer rows this change named beforehand, from traced result files.

    python3 traced_layers.py OUTDIR

OUTDIR is what ``../pr29/traced.py PARENT CHANGE OUTDIR`` wrote: one
``result_<workload>.json`` per workload under ``OUTDIR/parent`` and
``OUTDIR/change``.  Prints, per workload, parent -> change for the
insertion translator's and the solver's metrics and the relational rows
around them.
"""
import json
import pathlib
import sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
KEYS = (
    "relview.insert.ms_per_call", "relview.insert.self_ms_per_op",
    "sat.solves_per_op", "sat.ms_per_solve", "sat.self_ms_per_op",
    "relational.spj_evals_per_op", "relational.ms_per_eval",
    "subscribe.skip_ratio",
)


def main():
    outdir = pathlib.Path(sys.argv[1])
    for workload in WORKLOADS:
        sides = [
            json.loads((outdir / side / f"result_{workload}.json").read_text())["metrics"]
            for side in ("parent", "change")
        ]
        print(workload)
        for key in KEYS:
            values = [side[key]["value"] for side in sides]
            print(f"   {key:34s} " + " -> ".join(
                "None" if value is None else f"{value:.4f}" for value in values))


if __name__ == "__main__":
    main()
