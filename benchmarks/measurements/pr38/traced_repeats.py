"""Repeated traced runs of one workload, parent and change alternating.

    python3 traced_repeats.py PARENT CHANGE WORKLOAD N

Runs ``benchmarks/e2e/run.py --workload WORKLOAD --seed 42 --trace 1``
N times per checkout, alternating which goes first, and prints the
per-unit rows this change is judged by for every run, then their
medians.  Span files go to a temporary directory and are not kept.
"""
import json
import statistics
import subprocess
import sys
import tempfile

KEYS = (
    "core.dag_eval.ms_per_eval",
    "core.dag_eval.evals_per_op",
    "core.dag_eval.self_ms_per_op",
    "relview.insert.ms_per_call",
    "service.self_ms_per_op",
)


def traced(checkout, workload, out):
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "42", "--trace", "1", "--out", out],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in KEYS}


def main():
    parent, change, workload, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as out:
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = traced(parent if side == "parent" else change, workload, out)
                runs[side].append(row)
                print(workload, side, i, " ".join(
                    f"{key}={row[key]:.4f}" for key in KEYS), flush=True)
    for key in KEYS:
        a = statistics.median(r[key] for r in runs["parent"])
        b = statistics.median(r[key] for r in runs["change"])
        print(f"median {key:32s} {a:9.4f} -> {b:9.4f}  ({b / a - 1:+.1%})")


if __name__ == "__main__":
    main()
