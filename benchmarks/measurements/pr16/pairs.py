"""Scratch: N alternating parent/change runs per workload through run.measure,
written as perf_<workload>.json so benchmarks/e2e/compare.py can judge them."""
import json, pathlib, subprocess, sys, statistics

PARENT, CHANGE = "/root/scratch/parent", "/root/repo"
SNIPPET = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads; sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), int(sys.argv[2]), 15.0,"
    " trace_path=(__import__('pathlib').Path(sys.argv[3]) if len(sys.argv) > 3 else None));"
    "print(json.dumps(r))"
)

def measure(checkout, workload, seed, trace=None):
    args = ["python3", "-c", SNIPPET, workload, str(seed)] + ([trace] if trace else [])
    out = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])

def spread(values):
    if len(values) < 2: return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

def summarize(runs):
    names = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
    out = {}
    for name, unit in names.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"unit": unit, "median": statistics.median(vals), "spread": spread(vals), "values": vals}
    for name in ("op_p90_p99_ms", "op_p99_ms"):
        vals = [r["info"][name] for r in runs]
        out[name] = {"unit": "ms", "median": statistics.median(vals), "spread": spread(vals), "values": vals}
    return out

def main():
    outdir = pathlib.Path(sys.argv[1]); first_seed = int(sys.argv[2]); pairs = int(sys.argv[3])
    workloads = sys.argv[4:]
    for side in "AB": (outdir / side).mkdir(parents=True, exist_ok=True)
    for w in workloads:
        runs = {"A": [], "B": []}
        for i in range(pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                r = measure(PARENT if side == "A" else CHANGE, w, first_seed + i)
                runs[side].append(r)
                print(w, side, first_seed + i, "ops/s %.1f p50 %.3f setup %.2f rss %.1f correct=%s failed=%d" % (
                    r["metrics"]["ops_per_s"]["value"], r["metrics"]["op_p50_ms"]["value"],
                    r["metrics"]["setup_s"]["value"], r["metrics"]["peak_rss_mb"]["value"], r["correct"], r["failed"]), flush=True)
        wins = sum(b["metrics"]["ops_per_s"]["value"] > a["metrics"]["ops_per_s"]["value"] for a, b in zip(runs["A"], runs["B"]))
        print(w, "ops_per_s pair wins for B: %d/%d" % (wins, pairs), flush=True)
        for side in "AB":
            payload = {"workload": w, "summary": summarize(runs[side]), "runs": runs[side]}
            (outdir / side / f"perf_{w}.json").write_text(json.dumps(payload, indent=1))
if __name__ == "__main__":
    main()
