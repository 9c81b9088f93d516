"""Every SAT solve of every e2e stream: its size and what each solver costs.

    python3 sat_distribution.py CHECKOUT > sat_distribution_<side>.jsonl

Applies every write of the 19 pool streams of the four workloads
(`benchmarks/e2e/workloads.py`, the cached stream files) to a fresh
`ViewService(strict=False)` of CHECKOUT, one stream per process, reads
skipped.  The solvers the product path calls are wrapped where
`repro.relview.insert` imported them, so each line is one non-trivial
solve as the checkout ran it (`product`: solver calls in order, each with
its wall ms and whether it answered).  Every CNF is then replayed
offline: WalkSAT from a fresh `Random(7)` (the paper's solver, as
`translate_insertions(solver="walksat")` would run it at the parent)
and DPLL.  `answered_by` is the solver the parent's WalkSAT-then-DPLL
ladder would have returned from on that replay.  The last line per
stream is a summary.
"""
import json, random, subprocess, sys, time

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")

STREAM = r"""
import json, sys, time, random
sys.path.insert(0, 'benchmarks/e2e')
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.ops import op_from_dict
from repro.relview import insert as insert_module
from repro.sat.dpll import dpll_solve
from repro.sat.walksat import walksat_solve
from repro.workloads import named_workload

workload = workloads.by_name(sys.argv[1]); stream = int(sys.argv[2])
path, _ = workloads.ensure_stream(workload, stream)
with open(path, encoding='utf-8') as handle:
    header = json.loads(handle.readline())
    calls = [json.loads(line) for line in handle]
solves = []  # [cnf, [(solver, ms, answered)]]

def spy(name, fn):
    def wrapped(cnf, *args, **kwargs):
        t0 = time.perf_counter(); model = fn(cnf, *args, **kwargs)
        ms = 1e3 * (time.perf_counter() - t0)
        if not solves or solves[-1][0] is not cnf:
            solves.append([cnf, []])
        solves[-1][1].append((name, round(ms, 3), model is not None))
        return model
    return wrapped

for name in ('walksat_solve', 'dpll_solve'):
    if hasattr(insert_module, name):
        setattr(insert_module, name, spy(name.split('_')[0], getattr(insert_module, name)))
atg, db = named_workload(header['params']['workload'])
service = open_view(atg, db, config=ViewConfig(strict=False))
ops = 0
for call in calls:
    if call['op'] == 'read':
        continue
    service.apply(op_from_dict(call)); ops += 1
total = {'walksat': 0.0, 'dpll': 0.0, 'product': 0.0}
for op_index, (cnf, product) in enumerate(solves):
    t0 = time.perf_counter(); w = walksat_solve(cnf, rng=random.Random(7))
    w_ms = 1e3 * (time.perf_counter() - t0)
    t0 = time.perf_counter(); d = dpll_solve(cnf)
    d_ms = 1e3 * (time.perf_counter() - t0)
    total['walksat'] += w_ms; total['dpll'] += d_ms
    total['product'] += sum(ms for _, ms, _ in product)
    print(json.dumps({
        'workload': workload.name, 'stream': stream, 'solve': op_index,
        'vars': cnf.num_vars, 'clauses': len(cnf.clauses),
        'units': sum(len(c) == 1 for c in cnf.clauses),
        'product': product, 'walksat_ms': round(w_ms, 3),
        'dpll_ms': round(d_ms, 3), 'sat': d is not None,
        'answered_by': 'walksat' if w is not None else 'dpll',
        'agree': (w is not None) == (d is not None),
    }))
print(json.dumps({'workload': workload.name, 'stream': stream, 'summary': True,
    'ops': ops, 'solves': len(solves),
    'total_ms': {k: round(v, 2) for k, v in total.items()}}))
"""


def main():
    checkout = sys.argv[1]
    for name in WORKLOADS:
        pool = json.loads(subprocess.run(
            ["python3", "-c", "import sys; sys.path.insert(0, 'benchmarks/e2e');"
             "import workloads; print(workloads.by_name(sys.argv[1]).pool)", name],
            cwd=checkout, capture_output=True, text=True, check=True).stdout)
        for stream in range(pool):
            done = subprocess.run(["python3", "-c", STREAM, name, str(stream)],
                                  cwd=checkout, capture_output=True, text=True, check=True)
            sys.stdout.write(done.stdout)
            print(done.stdout.strip().splitlines()[-1], file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
