"""One untraced 15 s ``run.measure`` of a workload per checkout, in the
order given, printing ``peak_rss_mb`` and ``ops_per_s``.

    python3 rss_one.py WORKLOAD CHECKOUT [CHECKOUT ...]

Seed 5200, the first seed of ``run_measurements.sh``'s pairs.
"""
import json
import subprocess
import sys

SNIPPET = (
    "import sys, json; sys.path.insert(0, 'benchmarks/e2e'); import run, workloads;"
    "sys.path.insert(0, str(workloads.SRC));"
    "r = run.measure(workloads.by_name(sys.argv[1]), int(sys.argv[2]), 15.0);"
    "print(json.dumps(r))"
)

for checkout in sys.argv[2:]:
    out = subprocess.run(
        ["python3", "-c", SNIPPET, sys.argv[1], "5200"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    r = json.loads(out.stdout.strip().splitlines()[-1])
    print(checkout, "rss %.2f ops/s %.0f" % (
        r["metrics"]["peak_rss_mb"]["value"],
        r["metrics"]["ops_per_s"]["value"],
    ), flush=True)
