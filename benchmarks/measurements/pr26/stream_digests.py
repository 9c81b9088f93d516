"""Per-stream outcome digests of two checkouts, and where ΔR differs.

    python3 stream_digests.py PARENT CHANGE WORKLOAD > stream_digests_<W>.txt

`../pr21/digests.py` hashes a workload's streams into one digest; this
prints each stream's `state_digest` / `delta_r_digest` / `reads_digest`
for both checkouts (`run.measure(workload, 42, 15.0)`, the same
measurement) and, for a stream whose `delta_r_digest` moved, the writes
whose ΔR differs, replayed in-process against each checkout's cached
stream file.
"""
import json, subprocess, sys

MEASURE = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads;"
    "sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), 42, 15.0);"
    "print(json.dumps(r['digests']))"
)

DELTAS = r"""
import json, sys
sys.path.insert(0, 'benchmarks/e2e')
import workloads
sys.path.insert(0, str(workloads.SRC))
from repro import ViewConfig, open_view
from repro.ops import op_from_dict
from repro.workloads import named_workload
path, _ = workloads.ensure_stream(workloads.by_name(sys.argv[1]), int(sys.argv[2]))
with open(path, encoding='utf-8') as handle:
    header = json.loads(handle.readline())
    calls = [json.loads(line) for line in handle if '"read"' not in line]
service = open_view(*named_workload(header['params']['workload']),
                    config=ViewConfig(strict=False))
out = []
for call in calls:
    outcome = service.apply(op_from_dict(call))
    out.append([call, outcome.accepted,
                [[op.kind, op.relation, list(op.row)] for op in outcome.delta_r or ()]])
print(json.dumps(out))
"""


def run(checkout, *args):
    done = subprocess.run(["python3", "-c", *args], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parent, change, workload = sys.argv[1:4]
    digests = {side: {d["stream"]: d for d in run(checkout, MEASURE, workload)}
               for side, checkout in (("parent", parent), ("change", change))}
    for stream in sorted(digests["parent"]):
        a, b = digests["parent"][stream], digests["change"][stream]
        moved = [n for n in ("state_digest", "delta_r_digest", "reads_digest") if a[n] != b[n]]
        print(f"{workload} stream {stream}: moved {moved or 'nothing'}")
        if "delta_r_digest" not in moved:
            continue
        left = run(parent, DELTAS, workload, str(stream))
        right = run(change, DELTAS, workload, str(stream))
        assert [c for c, _, _ in left] == [c for c, _, _ in right], "streams differ"
        for index, ((call, ok_a, rows_a), (_, ok_b, rows_b)) in enumerate(zip(left, right)):
            if (ok_a, rows_a) != (ok_b, rows_b):
                print(f"  write {index} {call['op']} {call.get('path')}:")
                print(f"    parent accepted={ok_a} {rows_a}")
                print(f"    change accepted={ok_b} {rows_b}")


if __name__ == "__main__":
    main()
