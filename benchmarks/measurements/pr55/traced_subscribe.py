"""Repeated traced runs of one workload: the ``subscribe`` layer.

    python3 traced_subscribe.py PARENT CHANGE WORKLOAD N [SEED]

``../pr54/traced_layers.py`` with the ``subscribe.*`` metrics: runs
``benchmarks/e2e/run.py --workload WORKLOAD --seed SEED --trace 1``
(seed 42 by default) N times per checkout, alternating which goes
first, and prints per run, then as medians with the ratio and how many
pairs the change read lower, every ``subscribe`` metric
(``ms_per_commit`` should fall, ``skip_ratio`` and
``full_refresh_per_commit`` must not move) and
``trace.overhead_ratio``.
"""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "pr39"))
import traced_repeats  # noqa: E402

PREFIXES = ("subscribe.", "trace.overhead_ratio")


def traced(checkout, workload, seed, out):
    done = traced_repeats.subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--out", out],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {
        key: entry["value"] for key, entry in metrics.items()
        if key.startswith(PREFIXES) and entry["value"] is not None
    }


if __name__ == "__main__":
    traced_repeats.FIXED = ()
    traced_repeats.traced = traced
    traced_repeats.main()
