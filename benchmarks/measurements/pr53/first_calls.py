"""A stream's first new-key call, alone, parent and change alternating.

    python3 first_calls.py PARENT CHANGE [--pairs P] [--repeat R]
    python3 first_calls.py CHECKOUT --repeat R

The first new-key call of a stream pays the one-time costs of its
insertion shape: the ``int_ceiling`` scans of the minted columns, the
first probes' index builds (``H.h2``, ``F.f5``) and, with insertion
programs, the shape's preparation.  For every stream of the
``subscribed_durable`` (``synthetic:200``) and ``read_mostly``
(``synthetic:1000``) pools, a fresh service (no subscriptions, no WAL)
replays the stream's writes up to and including its first new-key insert
(one that adds a ``C`` row), and only that call of
``translate_insertions`` is timed; ``R`` services per stream (default
5), the fastest kept.  With two checkouts: ``P`` pairs (default 6), each
side in its own process, the parent first in even pairs; printed per
workload are the median over a pair's streams per side, their ratio and
how many pairs the change was faster.
"""
import argparse
import gc
import json
import pathlib
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("subscribed_durable", "read_mostly")


def one_checkout(checkout, repeat):
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.core.plan as plan_module
    from repro import ViewConfig, open_view
    from repro.errors import ReproError
    from repro.workloads import named_workload

    translate = plan_module.translate_insertions
    timed = []

    def recorded(*args, **kwargs):
        start = perf_counter()
        plan = translate(*args, **kwargs)
        timed.append(((perf_counter() - start) * 1000,
                      any(op.relation == "C" for op in plan.delta_r)))
        return plan

    plan_module.translate_insertions = recorded
    result = {}
    for name in WORKLOADS:
        workload = workloads.by_name(name)
        firsts = []
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                ops = [json.loads(line) for line in handle]
            best = float("inf")
            for _ in range(repeat):
                atg, db = named_workload(header["params"]["workload"])
                service = open_view(atg, db, config=ViewConfig(strict=False))
                gc.collect()
                timed.clear()
                for op in ops:
                    if op["op"] == "read":
                        continue
                    try:
                        service.apply(op)
                    except ReproError:
                        pass
                    if timed and timed[-1][1]:
                        best = min(best, timed[-1][0])
                        break
            firsts.append(best)
        result[name] = firsts
    print(json.dumps(result))


def alternate(parent, change, pairs, repeat):
    sides = {"parent": [], "change": []}
    for pair in range(pairs):
        order = [("parent", parent), ("change", change)]
        for side, checkout in order if pair % 2 == 0 else order[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, checkout, "--repeat", str(repeat)],
                capture_output=True, text=True, check=True,
            )
            firsts = json.loads(done.stdout.strip().splitlines()[-1])
            sides[side].append(firsts)
            print(f"pair {pair} {side}: " + "  ".join(
                f"{name} " + " ".join(f"{ms:.2f}" for ms in firsts[name])
                for name in WORKLOADS
            ), flush=True)
    for name in WORKLOADS:
        a = [statistics.median(run[name]) for run in sides["parent"]]
        b = [statistics.median(run[name]) for run in sides["change"]]
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{name:20s} first new-key call, median over streams: parent "
              f"{statistics.median(a):.2f} ms  change {statistics.median(b):.2f} ms  "
              f"change/parent {statistics.median(b) / statistics.median(a):.2f}  "
              f"change faster in {wins}/{len(a)} pairs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if len(args.checkouts) == 2:
        alternate(*args.checkouts, args.pairs, args.repeat)
    else:
        one_checkout(pathlib.Path(args.checkouts[0]).resolve(), args.repeat)


if __name__ == "__main__":
    main()
