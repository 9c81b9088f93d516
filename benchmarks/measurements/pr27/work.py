"""Δ(M,L)insert work per insert, one checkout, all four e2e workloads.

    python3 work.py CHECKOUT > work_<side>.txt

Runs `run.measure(workload, 42, 15.0)` (the whole pool, untraced) with
`instrument/` on PYTHONPATH, so each worker process counts what its
`maintain_insert` calls did (see `instrument/sitecustomize.py`), then
sums the counters over every process and prints them with the per-insert
ratios.  The checkout's `benchmarks/e2e/.cache` is removed before and
after; stream generation runs a shadow updater and is counted too.
"""
import collections, json, os, pathlib, shutil, subprocess, sys, tempfile

HERE = pathlib.Path(__file__).resolve().parent
SNIPPET = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads;"
    "sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), 42, 15.0);"
    "print(json.dumps({k: r[k] for k in ('correct', 'attempted', 'failed')}))"
)
PER_INSERT = ("extend_ancestors calls", "add_anc_closure_pairs calls",
              "add_closure_below calls", "row writes", "pairs added",
              "subtree nodes (all_nodes)", "new nodes")


def main():
    checkout = sys.argv[1]
    shutil.rmtree(f"{checkout}/benchmarks/e2e/.cache", ignore_errors=True)
    for workload in ("mixed", "dense_dag", "read_mostly", "subscribed_durable"):
        with tempfile.TemporaryDirectory() as tmp:
            sink = os.path.join(tmp, "counts.jsonl")
            env = dict(os.environ, MAINTAIN_COUNTS=sink,
                       PYTHONPATH=f"{HERE / 'instrument'}{os.pathsep}{checkout}/src")
            done = subprocess.run(["python3", "-c", SNIPPET, workload], cwd=checkout,
                                  env=env, capture_output=True, text=True, check=True)
            total = collections.Counter()
            processes = 0
            for line in open(sink, encoding="utf-8"):
                total.update(json.loads(line))
                processes += 1
        print(f"== {workload}: {done.stdout.strip().splitlines()[-1]} "
              f"({processes} processes counted)")
        for name, value in sorted(total.items()):
            print(f"   {name:45s} {value:>12,d}")
        inserts = max(1, total["inserts"])
        for name in PER_INSERT:
            print(f"   per insert: {name:33s} {total[name] / inserts:>12.2f}")
        sys.stdout.flush()
    shutil.rmtree(f"{checkout}/benchmarks/e2e/.cache", ignore_errors=True)


if __name__ == "__main__":
    main()
