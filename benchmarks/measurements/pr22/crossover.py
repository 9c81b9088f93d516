"""Scratch: run `pytest -m perf benchmarks/test_coarse_fallback.py` N times
in CHECKOUT and print the fine/coarse timings and the crossover each run
recorded in BENCH_index.json.  Usage: crossover.py CHECKOUT [N=3]"""
import json, os, pathlib, subprocess, sys

checkout = pathlib.Path(sys.argv[1]).resolve()
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 3
env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
for run in range(1, runs + 1):
    proc = subprocess.run(
        ["python3", "-m", "pytest", "-q", "-m", "perf", "-p", "no:cacheprovider",
         "benchmarks/test_coarse_fallback.py"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    verdict = proc.stdout.strip().splitlines()[-1]
    if proc.returncode != 0:
        # A failed session writes no records; show the assertion instead.
        why = [l for l in proc.stdout.splitlines() if l.startswith("E ")]
        print(f"run {run}: FAILED {why[:2]} | {verdict}", flush=True)
        continue
    records = json.loads((checkout / "benchmarks" / "BENCH_index.json").read_text())
    rows = [r for r in records["records"] if r["experiment"] == "coarse_fallback"]
    times = {r["phase"]: r["seconds"] for r in rows if ":" in r["phase"]}
    cross = [r for r in rows if r["phase"] == "crossover_edges"]
    sizes = sorted({int(p.split(":")[1]) for p in times})
    line = "  ".join(
        "%d: fine %.2f / coarse %.2f ms" % (
            n, times[f"fine_scan:{n}"] * 1e3, times[f"coarse_reeval:{n}"] * 1e3)
        for n in sizes
    )
    print(f"run {run}: crossover {cross[0]['crossover'] if cross else None} | {line} | {verdict}", flush=True)
