"""Dataset build vs ``open_view``: the two halves of ``setup_s``, in process.

    python3 setup_split.py PARENT CHANGE RUNS [REPEATS]

For each of RUNS rounds, one fresh process per checkout (parent and
change alternating which goes first) times, for ``synthetic:N:0`` with
N in 1000 / 600 / 300 / 200 (the e2e workloads' sizes, stream 0's
dataset), ``named_workload`` (the dataset build: generating and
inserting every base row) and ``open_view(atg, db,
ViewConfig(strict=False))`` (publishing σ(I), ``L`` and ``M``), best of
REPEATS (default 5) each, ``gc.collect()`` before every repeat, and
their sum (best of the per-repeat sums: what ``setup_s`` times before
subscriptions).  It also records how many collections of the oldest
generation the garbage collector ran inside the best repeat's
``open_view``, so a half slowed by a full collection can be told apart.
After the timed repeats it counts,
untimed, the ``Attribute.accepts`` calls one build plus one
``open_view`` makes.  Prints one JSON line per run and size, then per
size the medians over the runs of both sides.
"""
import json
import statistics
import subprocess
import sys

SIZES = (1000, 600, 300, 200)

INNER = r'''
import gc, json, sys
from time import perf_counter
sys.path.insert(0, "src")
from repro import ViewConfig, open_view
from repro.relational.schema import Attribute
from repro.workloads import named_workload

repeats = int(sys.argv[1])
full = [0]
gc.callbacks.append(
    lambda phase, info: phase == "stop" and info["generation"] == 2
    and full.__setitem__(0, full[0] + 1))
out = []
for n in map(int, sys.argv[2:]):
    name = f"synthetic:{n}:0"
    builds, opens, totals = [], [], []
    for _ in range(repeats):
        gc.collect()
        t0 = perf_counter()
        atg, db = named_workload(name)
        t1 = perf_counter()
        full[0] = 0
        service = open_view(atg, db, config=ViewConfig(strict=False))
        t2 = perf_counter()
        builds.append(t1 - t0)
        opens.append((t2 - t1, full[0]))
        totals.append(t2 - t0)
        del service
    calls = [0]
    accepts = Attribute.accepts
    def counted(self, value):
        calls[0] += 1
        return accepts(self, value)
    Attribute.accepts = counted
    atg, db = named_workload(name)
    open_view(atg, db, config=ViewConfig(strict=False))
    Attribute.accepts = accepts
    best_open, full_gcs = min(opens)
    out.append({"size": n, "rows": db.size(), "build_ms": 1e3 * min(builds),
                "open_view_ms": 1e3 * best_open, "open_view_full_gcs": full_gcs,
                "total_ms": 1e3 * min(totals), "accepts_calls": calls[0]})
print(json.dumps(out))
'''


def run(checkout, repeats):
    done = subprocess.run(
        ["python3", "-c", INNER, repeats, *map(str, SIZES)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parent, change, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    repeats = sys.argv[4] if len(sys.argv) > 4 else "5"
    results = {"parent": [], "change": []}
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rows = run(parent if side == "parent" else change, repeats)
            results[side].append(rows)
            for row in rows:
                print(json.dumps({"side": side, "run": i, **row}), flush=True)
    print(f"medians over {runs} runs of best-of-{repeats}")
    print("%6s %6s %7s %21s %21s %21s %14s" % (
        "size", "rows", "side", "build ms", "open_view ms", "build+open ms",
        "accepts calls"))

    def cell(rows, key):
        values = [r[key] for r in rows]
        return "%8.1f (%5.1f-%5.1f)" % (
            statistics.median(values), min(values), max(values))

    for k, size in enumerate(SIZES):
        for side in ("parent", "change"):
            rows = [run_rows[k] for run_rows in results[side]]
            print("%6d %6d %7s %s %s %s %14d" % (
                size, rows[0]["rows"], side, cell(rows, "build_ms"),
                cell(rows, "open_view_ms"), cell(rows, "total_ms"),
                rows[0]["accepts_calls"]))


if __name__ == "__main__":
    main()
