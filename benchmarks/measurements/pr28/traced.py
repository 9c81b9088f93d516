"""Traced runs per workload and checkout: the insert-side per-layer table.

    python3 traced.py PARENT CHANGE OUTDIR > traced_seed42.txt

Runs `benchmarks/e2e/run.py --workload W --seed 42 --trace 1 --out
OUTDIR/<side>` in each checkout (parent first, then change), keeps each
result object as `OUTDIR/<side>/result_<W>.json` and prints, per
workload, the per-layer metrics that say what insertion translation and
its SAT step cost an op.  Span files stay in OUTDIR; they are large and
not kept.
"""
import json, pathlib, subprocess, sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
KEYS = (
    "relview.insert.ms_per_call", "relview.insert.self_share",
    "sat.solves_per_op", "sat.ms_per_solve", "sat.self_share",
    "sat.self_ms_per_op", "relational.self_share",
    "core.dag_eval.self_share", "core.maintenance.self_share",
    "trace.overhead_ratio", "trace.attributed_share",
)


def traced_run(checkout, side, workload, outdir):
    out = outdir / side
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "42", "--trace", "1", "--out", str(out)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    (out / f"result_{workload}.json").write_text(json.dumps(result, indent=1))
    return result


def main():
    parent, change, outdir = sys.argv[1], sys.argv[2], pathlib.Path(sys.argv[3])
    for workload in WORKLOADS:
        a = traced_run(parent, "parent", workload, outdir)
        b = traced_run(change, "change", workload, outdir)
        print(f"{workload}: correct with 0 failed: "
              f"{a['correct'] and a['failed'] == 0} -> "
              f"{b['correct'] and b['failed'] == 0}")
        for key in KEYS:
            print("   %-30s %10.4f -> %10.4f" % (
                key, a["metrics"][key]["value"], b["metrics"][key]["value"]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
