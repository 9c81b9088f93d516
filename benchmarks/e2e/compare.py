"""Compare two result sets of ``run.py``: ``compare.py A B``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate; both are ``--out`` directories holding
``perf_<workload>.json``.  One row per (end-to-end metric, workload):
both medians, both spreads (interquartile distance over the runs, as a
share of the median), the ratio B/A with its base, and a verdict against
the metric's bound in ``BENCHMARK.json``:

- ``unresolved``    a spread is wider than the bound (or unknown: one run)
- ``worse``         B's median is worse than A's by more than the bound
- ``better``        B's median is better than A's by more than the spreads
- ``within-bound``  anything else

The two tail latencies ``run.py`` summarises without a bound are listed
as ``not gated``.

Exit code 1 on any ``worse`` row or when B failed a larger share of ops.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def verdict(metric: dict, base: dict, cand: dict) -> str:
    if "bound" not in metric:
        return "not gated"
    spreads = (base["spread"], cand["spread"])
    if None in spreads or max(spreads) > metric["bound"]:
        return "unresolved"
    gain = (cand["median"] - base["median"]) / base["median"]
    if metric["better"] == "lower":
        gain = -gain
    if gain < -metric["bound"]:
        return "worse"
    if gain > max(spreads):
        return "better"
    return "within-bound"


def _failed_share(perf: dict) -> float:
    return max(run["info"]["failed_share"] for run in perf["runs"])


def _digests(perf: dict) -> dict:
    return {
        entry["stream"]: entry
        for run in perf["runs"] for entry in run["digests"]
    }


def _share(value) -> str:
    return "   n/a" if value is None else f"{value:6.1%}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, cand_dir = map(pathlib.Path, argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    print(
        f"{'workload':19s} {'metric':13s} {'A median':>11s} {'A iqr':>6s} "
        f"{'B median':>11s} {'B iqr':>6s}  {'B/A':>6s} of base  verdict"
    )
    for workload in (w["name"] for w in declared["workloads"]):
        files = [d / f"perf_{workload}.json" for d in (base_dir, cand_dir)]
        if not all(path.exists() for path in files):
            continue
        base, cand = (json.loads(path.read_text()) for path in files)
        gated = {metric["name"]: metric for metric in declared["end_to_end"]}
        for name, a in base["summary"].items():
            b = cand["summary"][name]
            metric = gated.get(name, {})
            outcome = verdict(metric, a, b)
            failed |= outcome == "worse"
            if metric:
                outcome += f" (bound {metric['bound']:.0%})"
            print(
                f"{workload:19s} {name:13s} {a['median']:11.4f} "
                f"{_share(a['spread'])} {b['median']:11.4f} "
                f"{_share(b['spread'])}  {b['median'] / a['median']:6.3f} "
                f"of {a['median']:.4g} {a['unit']}  {outcome}"
            )
        shares = _failed_share(base), _failed_share(cand)
        if shares[1] > shares[0]:
            failed = True
            print(f"{workload:19s} failed_share rose: {shares[0]} -> {shares[1]}")
        ours, theirs = _digests(base), _digests(cand)
        common = sorted(set(ours) & set(theirs))
        differing = [s for s in common if ours[s] != theirs[s]]
        print(
            f"{workload:19s} outcome digests: {len(common)} common streams, "
            + (f"DIFFER on {differing}" if differing else "identical")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
