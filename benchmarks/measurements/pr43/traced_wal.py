"""The WAL and replica layers' traced metrics over repeated runs, parent and
change alternating.

    python3 traced_wal.py PARENT CHANGE N [SEED]

Runs ``benchmarks/e2e/run.py --workload subscribed_durable --seed SEED
--trace 1`` (seed 42 by default) N times per checkout, alternating which
goes first, and prints the ``wal.*`` / ``replica.*`` metrics of each
run as one JSON line, then the medians of both sides
and how many pairs the change read lower.  ``wal.checkpoint_ms`` times
``WriteAheadLog.write_checkpoint`` (the boot checkpoint inside
``setup_s`` plus the periodic ones); ``wal.recover_ms`` times
``recover_state`` in the untimed post phase.  Output files go to a
temporary directory and are not kept.
"""
import json
import statistics
import subprocess
import sys
import tempfile

KEYS = (
    "wal.checkpoint_ms",
    "wal.recover_ms",
    "wal.bytes_per_op",
    "wal.self_ms_per_op",
    "replica.snapshot_ms",
    "replica.bootstrap_ms",
)


def traced(checkout, seed, out):
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload",
         "subscribed_durable", "--seed", str(seed), "--trace", "1",
         "--out", out],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in KEYS if key in metrics}


def main():
    parent, change, n = sys.argv[1:4]
    seed = int(sys.argv[4]) if len(sys.argv) > 4 else 42
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as out:
        for i in range(int(n)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = traced(parent if side == "parent" else change, seed, out)
                runs[side].append(row)
                print(json.dumps({"side": side, "pair": i, **row}), flush=True)
    for key in KEYS:
        if key not in runs["parent"][0]:
            continue
        a = statistics.median(r[key] for r in runs["parent"])
        b = statistics.median(r[key] for r in runs["change"])
        lower = sum(
            y[key] < x[key] for x, y in zip(runs["parent"], runs["change"])
        )
        print(f"median {key:36s} {a:10.4f} -> {b:10.4f}  "
              f"change lower {lower}/{len(runs['change'])}")


if __name__ == "__main__":
    main()
