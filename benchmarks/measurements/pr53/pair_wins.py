"""Pairs the change won, per workload and gated metric.

    python3 pair_wins.py OUTDIR

OUTDIR holds ``A/perf_<workload>.json`` (parent) and ``B/...`` (change)
as ``../pr22/pairs_at.py`` writes them; pair ``i`` is the ``i``-th run
of each side, made with the same seed.  A tie counts for neither side.
"""
import json
import pathlib
import sys

LOWER = {"ops_per_s": False, "op_p50_ms": True, "setup_s": True, "peak_rss_mb": True}


def main():
    outdir = pathlib.Path(sys.argv[1])
    for path in sorted((outdir / "A").glob("perf_*.json")):
        a = json.loads(path.read_text())["runs"]
        b = json.loads((outdir / "B" / path.name).read_text())["runs"]
        cells = []
        for metric, lower in LOWER.items():
            pairs = [(x["metrics"][metric]["value"], y["metrics"][metric]["value"])
                     for x, y in zip(a, b)]
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            cells.append(f"{metric} {wins}/{len(pairs)}")
        print(f"{path.stem[5:]:20s} " + "  ".join(cells))


if __name__ == "__main__":
    main()
