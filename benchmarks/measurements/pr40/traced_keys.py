"""Repeated traced runs of one workload, parent and change alternating.

    python3 traced_keys.py PARENT CHANGE WORKLOAD N KEY... [--seed S]

Runs ``benchmarks/e2e/run.py --workload WORKLOAD --seed S --trace 1``
(seed 42 by default) N times per checkout, alternating which goes
first, and prints the named result metrics (e.g. ``wal.recover_ms``,
``setup_s``) for each run as one JSON line, then the medians of both
sides, the ratio and how many pairs the change read lower.  Span files
go to a temporary directory and are not kept.
"""
import json
import statistics
import subprocess
import sys
import tempfile


def traced(checkout, workload, seed, out, keys):
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--out", out],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in keys}


def main():
    args = sys.argv[1:]
    seed = 42
    if "--seed" in args:
        at = args.index("--seed")
        seed = int(args[at + 1])
        del args[at:at + 2]
    parent, change, workload, n, *keys = args
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as out:
        for i in range(int(n)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = traced(parent if side == "parent" else change,
                             workload, seed, out, keys)
                runs[side].append(row)
                print(json.dumps({"workload": workload, "side": side,
                                  "pair": i, **row}), flush=True)
    for key in keys:
        a = statistics.median(r[key] for r in runs["parent"])
        b = statistics.median(r[key] for r in runs["change"])
        lower = sum(y[key] < x[key] for x, y in zip(runs["parent"], runs["change"]))
        ratio = f"{b / a - 1:+7.1%}" if a else "    n/a"
        print(f"median {key:24s} {a:9.4f} -> {b:9.4f}  ({ratio})  "
              f"change lower {lower}/{len(runs['change'])}")


if __name__ == "__main__":
    main()
