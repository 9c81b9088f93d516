"""Scratch: outcome digests of one checkout, per workload (seed 42, the whole
pool, untraced).  `python3 digests.py CHECKOUT > out.json`; the checkout's
benchmarks/e2e/.cache is removed first, because generated streams depend on
the code (each is produced against a shadow updater) and the cache key does
not."""
import hashlib, json, shutil, subprocess, sys

SNIPPET = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads;"
    "sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), 42, 15.0);"
    "print(json.dumps({k: r[k] for k in ('correct', 'attempted', 'failed', 'digests')}))"
)

def main():
    checkout = sys.argv[1]
    shutil.rmtree(f"{checkout}/benchmarks/e2e/.cache", ignore_errors=True)
    out = {}
    for workload in ("mixed", "dense_dag", "read_mostly", "subscribed_durable"):
        done = subprocess.run(["python3", "-c", SNIPPET, workload], cwd=checkout,
                              capture_output=True, text=True, check=True)
        run = json.loads(done.stdout.strip().splitlines()[-1])
        entry = {"correct": run["correct"], "attempted": run["attempted"],
                 "failed": run["failed"], "streams": len(run["digests"])}
        for name in ("state_digest", "delta_r_digest", "reads_digest"):
            joined = "".join(f"{d['stream']}:{d[name]};" for d in sorted(run["digests"], key=lambda d: d["stream"]))
            entry[name] = hashlib.sha256(joined.encode()).hexdigest()[:16]
        out[workload] = entry
        print(workload, json.dumps(entry), file=sys.stderr, flush=True)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)

if __name__ == "__main__":
    main()
