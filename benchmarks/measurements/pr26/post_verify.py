"""Every write of the 19 e2e streams under per-update verification.

    python3 post_verify.py CHECKOUT > post_verify_<side>.txt

Applies each pool stream's writes (reads skipped) to a fresh
`ViewService(ViewConfig(strict=False))` of CHECKOUT, one stream per
process: after every write the state is checked against a republish
(`check_consistency()`; the stream stops with an error line on a
discrepancy), and once more at the end.  One line per stream: ops,
accepted, rows of ΔR, fresh values minted.  (Up to 0.10 the per-write
check was `ViewConfig(verify_each_update=True)`, which raised inside
the commit.)
"""
import json, subprocess, sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")

STREAM = r"""
import json, sys
sys.path.insert(0, 'benchmarks/e2e')
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.ops import op_from_dict
from repro.workloads import named_workload

workload = workloads.by_name(sys.argv[1]); stream = int(sys.argv[2])
path, _ = workloads.ensure_stream(workload, stream)
with open(path, encoding='utf-8') as handle:
    header = json.loads(handle.readline())
    calls = [json.loads(line) for line in handle if '"read"' not in line]
atg, db = named_workload(header['params']['workload'])
service = open_view(atg, db, config=ViewConfig(strict=False))
ops = accepted = rows = fresh = 0
for call in calls:
    outcome = service.apply(op_from_dict(call))
    problems = service.check_consistency()
    if problems:
        raise SystemExit(f'write {ops}: ' + '; '.join(problems))
    ops += 1; accepted += outcome.accepted
    for op in outcome.delta_r or ():
        rows += 1
        fresh += sum(
            (isinstance(v, str) and v.startswith('zz_fresh_'))
            or (isinstance(v, int) and not isinstance(v, bool) and v > 1_000_000)
            for v in op.row)
print(json.dumps({'workload': workload.name, 'stream': stream, 'ops': ops,
    'accepted': accepted, 'delta_r_rows': rows, 'fresh_values': fresh,
    'consistency': service.check_consistency()}))
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
                                  cwd=checkout, capture_output=True, text=True)
            print(done.stdout.strip() if done.returncode == 0 else json.dumps(
                {"workload": name, "stream": stream,
                 "error": done.stderr.strip().splitlines()[-1]}), flush=True)


if __name__ == "__main__":
    main()
