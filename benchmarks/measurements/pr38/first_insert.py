"""First-insert cost on the ``read_mostly`` pool, in process.

    python3 first_insert.py CHECKOUT [REPEATS]

For every stream of the pool, REPEATS times (default 5): build one
service, ``gc.collect()``, then replay the stream's calls in order and
time each write.  Prints per stream the best (minimum over repeats)
first-insert ms, the median of the later inserts' ms, and the timed
loop's total ms, then the median over the pool.  The checkout's own
``benchmarks/e2e`` and ``src`` are imported (run in a fresh process per
checkout, so the two never mix).
"""
import json
import pathlib
import statistics
import subprocess
import sys

INNER = r'''
import gc, json, statistics, sys
from time import perf_counter
sys.path.insert(0, "benchmarks/e2e")
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.workloads import named_workload

repeats = int(sys.argv[1])
workload = workloads.by_name("read_mostly")
out = []
for stream in range(workload.pool):
    path, _ = workloads.ensure_stream(workload, stream)
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        calls = [json.loads(line) for line in handle]
    firsts, laters, totals = [], [], []
    for _ in range(repeats):
        atg, db = named_workload(header["params"]["workload"])
        service = open_view(atg, db, config=ViewConfig(strict=False))
        gc.collect()
        inserts = []
        start = perf_counter()
        for call in calls:
            t0 = perf_counter()
            if call["op"] == "read":
                service.xpath(call["path"])
            else:
                service.apply(call)
                if call["op"] == "insert":
                    inserts.append(perf_counter() - t0)
        totals.append(perf_counter() - start)
        firsts.append(inserts[0])
        laters.append(statistics.median(inserts[1:]))
        del service
    out.append({"stream": stream, "first_insert_ms": 1e3 * min(firsts),
                "later_insert_ms": 1e3 * min(laters),
                "loop_ms": 1e3 * min(totals)})
print(json.dumps(out))
'''


def main():
    checkout = pathlib.Path(sys.argv[1])
    repeats = sys.argv[2] if len(sys.argv) > 2 else "5"
    done = subprocess.run(["python3", "-c", INNER, repeats], cwd=checkout,
                          capture_output=True, text=True, check=True)
    rows = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"read_mostly, best of {repeats} per stream "
          "(one service per stream, gc.collect() before each loop)")
    print("%6s %16s %16s %10s" % ("stream", "first insert ms",
                                  "later inserts ms", "loop ms"))
    for row in rows:
        print("%6d %16.2f %16.3f %10.1f" % (
            row["stream"], row["first_insert_ms"], row["later_insert_ms"],
            row["loop_ms"]))
    print("%6s %16.2f %16.3f %10.1f" % tuple(
        ["median"] + [statistics.median(r[k] for r in rows)
                      for k in ("first_insert_ms", "later_insert_ms", "loop_ms")]))


if __name__ == "__main__":
    main()
