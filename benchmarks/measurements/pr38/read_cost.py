"""Per-read cost of the read path on one ``read_mostly`` stream, in process.

    python3 read_cost.py CHECKOUT

Opens one service on stream 0's view, ``gc.collect()``, then times the
stream's 360 reads (best of 5 passes, µs per read) four ways:
``service.xpath``, ``evaluate`` (targets, ``Ep``, side effects) and
``evaluate_from`` (targets and contexts) on one evaluator, and
``evaluate_from`` on a fresh ``updater.evaluator()`` per read.  Run in a
fresh process inside the checkout, so its own ``src`` is imported.
"""
import subprocess
import sys

INNER = r'''
import gc, json, sys, time
sys.path.insert(0, "benchmarks/e2e")
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.workloads import named_workload
from repro.xpath.parser import parse_xpath

w = workloads.by_name("read_mostly")
path, _ = workloads.ensure_stream(w, 0)
lines = open(path).read().splitlines()
header = json.loads(lines[0])
calls = [json.loads(line) for line in lines[1:]]
atg, db = named_workload(header["params"]["workload"])
service = open_view(atg, db, config=ViewConfig(strict=False))
reads = [c["path"] for c in calls if c["op"] == "read"]
parsed = [parse_xpath(p) for p in reads]
gc.collect()

def per_read(f):
    best = 1e9
    for _ in range(5):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best / len(reads) * 1e6

ev = service.updater.evaluator()
print("%d reads, us per read (best of 5)" % len(reads))
print("service.xpath              %6.1f" % per_read(lambda: [service.xpath(p) for p in reads]))
print("evaluate                   %6.1f" % per_read(lambda: [ev.evaluate(p) for p in parsed]))
print("evaluate_from              %6.1f" % per_read(lambda: [ev.evaluate_from(p) for p in parsed]))
print("evaluator().evaluate_from  %6.1f" % per_read(
    lambda: [service.updater.evaluator().evaluate_from(p) for p in parsed]))
'''


def main():
    done = subprocess.run(["python3", "-c", INNER], cwd=sys.argv[1],
                          capture_output=True, text=True, check=True)
    print(done.stdout, end="")


if __name__ == "__main__":
    main()
