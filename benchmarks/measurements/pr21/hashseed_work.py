"""Scratch: does the work of an op depend on PYTHONHASHSEED?

`python3 hashseed_work.py CHECKOUT [STREAM.jsonl ...]` replays each cached
stream (default: every file in CHECKOUT/benchmarks/e2e/.cache) in three
fresh processes under PYTHONHASHSEED=1,2,3, counts the Python-level
function calls (`sys.setprofile`, `call` + `c_call`) of every timed call
— a proxy for work that no clock touches — and prints, per stream, the
three totals and how many ops differ between the seeds.
"""
import glob, json, os, subprocess, sys

CHILD = r"""
import sys, json
sys.path.insert(0, sys.argv[1] + "/src")
from repro import ViewConfig, open_view
from repro.workloads import named_workload
with open(sys.argv[2]) as handle:
    header = json.loads(handle.readline()); calls = [json.loads(l) for l in handle]
atg, db = named_workload(header["params"]["workload"])
service = open_view(atg, db, config=ViewConfig(strict=False))
subs = [service.subscribe(path) for path in header["subscriptions"]]
n = [0]
def count(frame, event, arg):
    if event in ("call", "c_call"): n[0] += 1
out = []
for call in calls:
    n[0] = 0
    sys.setprofile(count)
    try:
        service.xpath(call["path"]) if call["op"] == "read" else service.apply(call)
    except Exception:
        pass
    sys.setprofile(None)
    out.append(n[0])
print(json.dumps(out))
"""

def main():
    checkout = sys.argv[1]
    streams = sys.argv[2:] or sorted(glob.glob(f"{checkout}/benchmarks/e2e/.cache/*.jsonl"))
    for stream in streams:
        counts = []
        for seed in ("1", "2", "3"):
            done = subprocess.run(
                [sys.executable, "-c", CHILD, checkout, stream],
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            )
            counts.append(json.loads(done.stdout))
        differing = [i for i, per in enumerate(zip(*counts)) if len(set(per)) > 1]
        widest = max((max(per) - min(per), i, per) for i, per in enumerate(zip(*counts)))
        print(os.path.basename(stream), "ops", len(counts[0]), "calls",
              *(sum(c) for c in counts), "ops differing:", len(differing),
              "widest:", f"op {widest[1]} {widest[2]}" if differing else "-", flush=True)

if __name__ == "__main__":
    main()
