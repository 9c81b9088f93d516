"""Per-shape read latency over the ``read_mostly`` pool of one checkout.

    python3 read_shapes.py CHECKOUT [--repeat N]

Replays every stream of the e2e ``read_mostly`` pool (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use) in
this process against CHECKOUT's ``src/``, in stream order.  A read is
pure, so it is timed ``N`` times (default 3) and its fastest time kept;
a write is timed once.  Reads are grouped by the four ``make_query_set``
shapes and printed as count, mean and median milliseconds, writes as one
more row.  Run it once per checkout to compare two of them.
"""
import argparse
import gc
import json
import pathlib
import re
import statistics
import subprocess
import sys
from time import perf_counter

SHAPES = (
    ("//cnode[key=a]//cnode[key=b]", re.compile(r"//cnode\[key=\d+\]//cnode\[key=\d+\]")),
    ("cnode[key=a]/sub/cnode[key=b]", re.compile(r"cnode\[key=\d+\]/sub/cnode\[key=\d+\]")),
    ("cnode[key=a]/sub/cnode", re.compile(r"cnode\[key=\d+\]/sub/cnode")),
    ("cnode[key=a and sub/cnode]/...", re.compile(
        r"cnode\[key=\d+ and sub/cnode\]/sub/cnode\[key=\d+\]")),
)


def shape_of(path):
    for name, pattern in SHAPES:
        if pattern.fullmatch(path):
            return name
    raise ValueError(f"not a make_query_set shape: {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.workloads import named_workload

    workload = workloads.by_name("read_mostly")
    times = {name: [] for name, _ in SHAPES}
    times["write"] = []
    for stream in range(workload.pool):
        path, _ = workloads.ensure_stream(workload, stream)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            calls = [json.loads(line) for line in handle]
        atg, db = named_workload(header["params"]["workload"])
        service = open_view(atg, db, config=ViewConfig(strict=False))
        gc.collect()
        for call in calls:
            if call["op"] == "read":
                best = float("inf")
                for _ in range(args.repeat):
                    start = perf_counter()
                    service.xpath(call["path"])
                    best = min(best, perf_counter() - start)
                times[shape_of(call["path"])].append(best)
            else:
                start = perf_counter()
                service.apply(call)
                times["write"].append(perf_counter() - start)
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    ).stdout.strip()
    print(f"commit {commit or '?'}: read_mostly pool, {workload.pool} "
          f"streams, reads best of {args.repeat}")
    print("%-34s %6s %9s %9s" % ("shape", "calls", "mean ms", "p50 ms"))
    for name, values in times.items():
        print("%-34s %6d %9.3f %9.3f" % (
            name, len(values), 1e3 * statistics.fmean(values),
            1e3 * statistics.median(values)))


if __name__ == "__main__":
    main()
