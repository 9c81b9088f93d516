import sys, time, collections
sys.path.insert(0, sys.argv[1] + "/src")
from repro.bench.workload_gen import WorkloadSpec, generate_ops
from repro.service import ViewConfig, open_view
from repro.workloads import named_workload
from repro.relational.query import SPJQuery
from repro.relational.database import Table
from repro.relview.insert import reset_fresh_counter
spec = WorkloadSpec(workload="synthetic:600", ops=200, seed=11, pattern="mixed")
ops = list(generate_ops(spec))
atg, db = named_workload(spec.workload)
reset_fresh_counter()
service = open_view(atg, db, config=ViewConfig(strict=False))
stats = collections.Counter(); cur = [None]
ev = SPJQuery.evaluate
def evaluate(self, db, bindings=None, **k):
    fixed = k.get("fixed", ())
    cur[0] = (self.name, tuple(sorted({c.alias for c, _ in fixed})), tuple(sorted(bindings or ())))
    stats[("evals",) + cur[0]] += 1
    try: return ev(self, db, bindings, **k)
    finally: cur[0] = None
SPJQuery.evaluate = evaluate
lk = Table.lookup
def lookup(self, attrs, values):
    if cur[0]: stats[("lookups",) + cur[0]] += 1
    return lk(self, attrs, values)
Table.lookup = lookup
for op in ops: service.apply(op)
for k, v in sorted(stats.items(), key=str): print(k, v)
