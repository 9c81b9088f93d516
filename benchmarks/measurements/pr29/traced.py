"""Traced runs per workload and checkout: the evaluator's per-layer table.

    python3 traced.py PARENT CHANGE OUTDIR > traced_seed42.txt

Runs `benchmarks/e2e/run.py --workload W --seed 42 --trace 1 --out
OUTDIR/<side>` in each checkout (parent first, then change), keeps each
result object as `OUTDIR/<side>/result_<W>.json` and prints, per
workload, what XPath on the DAG costs an op and the `self_share` rows of
ROADMAP's "Where an op's time goes" table (`everything else` is one
minus the named layers).  Span files stay in OUTDIR; they are large and
not kept.
"""
import json, pathlib, subprocess, sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
KEYS = (
    "core.dag_eval.ms_per_eval", "core.dag_eval.evals_per_op",
    "core.dag_eval.self_ms_per_op",
    "trace.overhead_ratio", "trace.attributed_share",
)
SHARES = {
    "relview.insert": ("relview.insert",),
    "core.dag_eval": ("core.dag_eval",),
    "core.maintenance": ("core.maintenance",),
    "relational + sat": ("relational", "sat"),
}


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


def shares(result):
    def metric(layer):
        return result["metrics"][f"{layer}.self_share"]["value"]

    rows = {
        row: sum(metric(layer) for layer in layers)
        for row, layers in SHARES.items()
    }
    rows["everything else"] = 1.0 - sum(rows.values())
    return rows


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
        sa, sb = shares(a), shares(b)
        for row in sa:
            print("   %-30s %10.4f -> %10.4f" % (
                f"self_share {row}", sa[row], sb[row]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
