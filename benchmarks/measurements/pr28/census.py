"""What insertion translation solves, per workload, and what it costs.

    python3 census.py CHECKOUT > census_<side>.txt

Applies every write of the 19 pool streams of the four workloads
(`benchmarks/e2e/workloads.py`, the cached stream files, generated into
CHECKOUT's `benchmarks/e2e/.cache` if missing) to a fresh
`ViewService(strict=False)` of CHECKOUT, one stream per process, reads
skipped.  Two functions are wrapped where the product path looks them
up: `translate_insertions` in `repro.core.plan` (its wall ms per call)
and `dpll_solve` in `repro.relview.insert` (the CNF's size and the
solve's wall ms).  Prints one JSON line per stream, then a table per
workload: translate calls, non-trivial solves, mean / max vars and
clauses per solve, DPLL ms and `translate_insertions` ms in total.
"""
import json, subprocess, sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")

STREAM = r"""
import json, sys, time
sys.path.insert(0, 'benchmarks/e2e')
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.core import plan as plan_module
from repro.ops import op_from_dict
from repro.relview import insert as insert_module
from repro.workloads import named_workload

workload = workloads.by_name(sys.argv[1]); stream = int(sys.argv[2])
path, _ = workloads.ensure_stream(workload, stream)
with open(path, encoding='utf-8') as handle:
    header = json.loads(handle.readline())
    calls = [json.loads(line) for line in handle]
solves = []      # (vars, clauses, ms)
translate = []   # ms

solve = insert_module.dpll_solve
def timed_solve(cnf):
    t0 = time.perf_counter(); model = solve(cnf)
    solves.append((cnf.num_vars, len(cnf.clauses), 1e3 * (time.perf_counter() - t0)))
    return model
insert_module.dpll_solve = timed_solve

translate_insertions = plan_module.translate_insertions
def timed_translate(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return translate_insertions(*args, **kwargs)
    finally:
        translate.append(1e3 * (time.perf_counter() - t0))
plan_module.translate_insertions = timed_translate

atg, db = named_workload(header['params']['workload'])
service = open_view(atg, db, config=ViewConfig(strict=False))
for call in calls:
    if call['op'] != 'read':
        service.apply(op_from_dict(call))
print(json.dumps({
    'workload': workload.name, 'stream': stream,
    'translate_calls': len(translate), 'translate_ms': sum(translate),
    'solves': len(solves),
    'vars': sum(s[0] for s in solves), 'clauses': sum(s[1] for s in solves),
    'max_vars': max((s[0] for s in solves), default=0),
    'max_clauses': max((s[1] for s in solves), default=0),
    'dpll_ms': sum(s[2] for s in solves),
}))
"""


def main():
    checkout = sys.argv[1]
    rows = []
    for name in WORKLOADS:
        pool = json.loads(subprocess.run(
            ["python3", "-c", "import sys; sys.path.insert(0, 'benchmarks/e2e');"
             "import workloads; print(workloads.by_name(sys.argv[1]).pool)", name],
            cwd=checkout, capture_output=True, text=True, check=True).stdout)
        for stream in range(pool):
            done = subprocess.run(["python3", "-c", STREAM, name, str(stream)],
                                  cwd=checkout, capture_output=True, text=True, check=True)
            row = json.loads(done.stdout.strip().splitlines()[-1])
            rows.append(row)
            print(json.dumps(row), flush=True)
    print()
    print("%-19s %6s %6s %9s %9s %8s %8s %9s %12s" % (
        "workload", "calls", "solves", "vars/slv", "cls/slv", "max_var", "max_cls",
        "dpll_ms", "translate_ms"))
    for name in WORKLOADS:
        mine = [r for r in rows if r["workload"] == name]
        solves = sum(r["solves"] for r in mine)
        print("%-19s %6d %6d %9.1f %9.1f %8d %8d %9.1f %12.1f" % (
            name, sum(r["translate_calls"] for r in mine), solves,
            sum(r["vars"] for r in mine) / max(solves, 1),
            sum(r["clauses"] for r in mine) / max(solves, 1),
            max(r["max_vars"] for r in mine), max(r["max_clauses"] for r in mine),
            sum(r["dpll_ms"] for r in mine), sum(r["translate_ms"] for r in mine)))


if __name__ == "__main__":
    main()
