"""Repeated traced runs of one workload, parent and change alternating.

    python3 traced_repeats.py PARENT CHANGE WORKLOAD N [SEED]

Runs ``benchmarks/e2e/run.py --workload WORKLOAD --seed SEED --trace 1``
(seed 42 by default) N times per checkout, alternating which goes
first.  Prints ``core.maintenance.ms_per_run``, ``runs_per_op`` and
every layer's ``self_ms_per_op`` for each run as one JSON line, then
the medians of both sides, the ratio and how many pairs the change
read lower.  Span files go to a temporary directory and are not kept.
"""
import json
import statistics
import subprocess
import sys
import tempfile

FIXED = ("core.maintenance.ms_per_run", "core.maintenance.runs_per_op")


def traced(checkout, workload, seed, out):
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--out", out],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {
        key: entry["value"] for key, entry in metrics.items()
        if key in FIXED or key.endswith(".self_ms_per_op")
    }


def main():
    parent, change, workload, n = sys.argv[1:5]
    seed = int(sys.argv[5]) if len(sys.argv) > 5 else 42
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as out:
        for i in range(int(n)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = traced(parent if side == "parent" else change,
                             workload, seed, out)
                runs[side].append(row)
                print(json.dumps({"workload": workload, "side": side,
                                  "pair": i, **row}), flush=True)
    keys = [k for k in runs["parent"][0] if k in runs["change"][0]]
    keys.sort(key=lambda k: (k not in FIXED, k))
    for key in keys:
        a = statistics.median(r[key] for r in runs["parent"])
        b = statistics.median(r[key] for r in runs["change"])
        lower = sum(y[key] < x[key] for x, y in zip(runs["parent"], runs["change"]))
        ratio = f"{b / a - 1:+7.1%}" if a else "    n/a"
        print(f"median {key:36s} {a:9.4f} -> {b:9.4f}  ({ratio})  "
              f"change lower {lower}/{len(runs['change'])}")


if __name__ == "__main__":
    main()
