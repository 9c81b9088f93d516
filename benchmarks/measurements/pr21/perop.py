"""Run worker.py on each stream of a workload K times; report per-stream totals and the ops whose latency varies most."""
import json, subprocess, sys, glob, statistics, os
checkout, wname, K = sys.argv[1], sys.argv[2], int(sys.argv[3])
env = dict(os.environ)
if len(sys.argv) > 4: env["PYTHONHASHSEED"] = sys.argv[4]
paths = sorted(glob.glob(f"{checkout}/benchmarks/e2e/.cache/{wname}-*.jsonl"))
allruns = []
for k in range(K):
    tot = 0.0; n = 0; per = []
    for i, p in enumerate(paths):
        cmd = ["python3", f"{checkout}/benchmarks/e2e/worker.py", "--stream", p, "--stream-index", str(i)]
        if wname == "subscribed_durable": cmd.append("--durable")
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env, cwd=checkout)
        r = json.loads(out.stdout.splitlines()[-1])
        lat = r["write_s"] + r["read_s"]
        per.append((sum(lat), r["slowdown"], r["write_s"], r["read_s"]))
        tot += sum(lat); n += len(lat)
    allruns.append(per)
    print(f"run {k}: ops/s {n/tot:.1f}  per-stream s: " + " ".join(f"{s:.3f}(x{sl:.2f})" for s, sl, _, _ in per), flush=True)
# per-op variation
for i in range(len(paths)):
    for kind, idx in (("write", 2), ("read", 3)):
        series = list(zip(*[run[i][idx] for run in allruns]))
        if not series: continue
        rng = sorted(((max(s) - min(s), j, min(s), statistics.median(s), max(s)) for j, s in enumerate(series)), reverse=True)[:5]
        tot_rng = sum(max(s) - min(s) for s in series)
        print(f"stream {i} {kind}: sum(max-min) {tot_rng*1e3:.1f} ms; top:", " ".join(f"#{j}:{lo*1e3:.1f}/{md*1e3:.1f}/{hi*1e3:.1f}" for _, j, lo, md, hi in rng))

