"""Scratch: row-access branch traffic of one checkout over all four workloads
(seed 42, whole pool, stream generation included), summed over every process.
`python3 traffic.py CHECKOUT` prints one table per workload."""
import collections, json, os, pathlib, shutil, subprocess, sys, tempfile

HERE = pathlib.Path(__file__).resolve().parent
SNIPPET = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads;"
    "sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), 42, 15.0);"
    "print(json.dumps({k: r[k] for k in ('correct', 'attempted', 'failed')}))"
)

def main():
    checkout = sys.argv[1]
    shutil.rmtree(f"{checkout}/benchmarks/e2e/.cache", ignore_errors=True)
    for workload in ("mixed", "dense_dag", "read_mostly", "subscribed_durable"):
        with tempfile.TemporaryDirectory() as tmp:
            sink = os.path.join(tmp, "counts.jsonl")
            env = dict(os.environ, PR21_COUNTS=sink,
                       PYTHONPATH=f"{HERE / 'instrument'}{os.pathsep}{checkout}/src")
            done = subprocess.run(["python3", "-c", SNIPPET, workload], cwd=checkout,
                                  env=env, capture_output=True, text=True, check=True)
            total = collections.Counter()
            processes = 0
            for line in open(sink, encoding="utf-8"):
                total.update(json.loads(line)); processes += 1
        print(f"== {workload}: {done.stdout.strip().splitlines()[-1]} ({processes} processes counted)")
        for name, value in sorted(total.items()):
            print(f"   {name:55s} {value:>12,d}")
    shutil.rmtree(f"{checkout}/benchmarks/e2e/.cache", ignore_errors=True)

if __name__ == "__main__":
    main()
