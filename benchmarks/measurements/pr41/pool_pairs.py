"""Pool the runs of several ``pairs_at.py`` output directories into one
A/B pair of ``perf_<workload>.json`` files that ``benchmarks/e2e/compare.py``
judges: ``python3 pool_pairs.py OUT DIR...``."""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "pr16"))
import pairs  # noqa: E402

out, dirs = pathlib.Path(sys.argv[1]), sys.argv[2:]
for side in "AB":
    (out / side).mkdir(parents=True, exist_ok=True)
    for workload in ("mixed", "dense_dag", "read_mostly", "subscribed_durable"):
        runs = []
        for directory in dirs:
            path = pathlib.Path(directory) / side / f"perf_{workload}.json"
            runs += json.loads(path.read_text())["runs"]
        payload = {"workload": workload, "summary": pairs.summarize(runs), "runs": runs}
        (out / side / f"perf_{workload}.json").write_text(json.dumps(payload, indent=1))
