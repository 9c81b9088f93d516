"""Algorithm insert call by call over the e2e pools, one checkout.

    python3 insert_calls.py CHECKOUT [--repeat N] [--workloads W ...]

Replays every stream of the named e2e pools (default ``read_mostly`` and
``subscribed_durable``; the checkout's own ``benchmarks/e2e`` streams,
generated into its cache on first use) in this process against
CHECKOUT's ``src/``, untraced, one fresh service per stream as
``benchmarks/e2e/worker.py`` builds it (subscriptions included, no WAL),
``gc.collect()`` before each stream's loop; reads are skipped.  Every
call of ``translate_insertions`` is timed and classed by its ΔR: a
*new-key* call inserts a ``C`` row.  Printed per workload, over ``N``
passes (default 3):

- each stream's first new-key call, in ms, the fastest of the passes (it
  pays the one-time costs: the ``int_ceiling`` scans of the minted
  columns, the first probes' index builds, and with insertion programs
  the shape's preparation);
- the median and mean of every later new-key call, in µs, from the
  pass whose later calls took least in all;
- where a later new-key call spends its time, µs per call, by the
  functions of ``repro.relview.insert`` the checkout has: the five
  stages (``_resolve_targets``, ``_build_templates``,
  ``_sweep_side_effects``, ``_solve``, ``_decode_valuation``) or the
  resolve step, ``_prepare`` and the program's ``bind`` / ``run``;
  ``other`` is the rest of ``translate_insertions``.

Timer overhead is a few hundred nanoseconds per wrapped call.
"""
import argparse
import collections
import gc
import json
import pathlib
import statistics
import sys
from time import perf_counter

FUNCTIONS = ("_resolve_targets", "_build_templates", "_sweep_side_effects",
             "_solve", "_decode_valuation", "_prepare")
METHODS = ("bind", "run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--workloads", nargs="+",
                        default=["read_mostly", "subscribed_durable"])
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.core.plan as plan_module
    import repro.relview.insert as insert
    from repro import ViewConfig, open_view
    from repro.errors import ReproError
    from repro.workloads import named_workload

    spent = collections.Counter()  # µs per function, within the current call
    depth = [0]

    def timed(original, label):
        def wrapper(*call_args, **call_kwargs):
            depth[0] += 1
            start = perf_counter()
            try:
                return original(*call_args, **call_kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:  # outermost only: a stage inside _prepare counts there
                    spent[label] += (perf_counter() - start) * 1e6
        return wrapper

    labels = []
    for name in FUNCTIONS:
        if hasattr(insert, name):
            setattr(insert, name, timed(getattr(insert, name), name))
            labels.append(name)
    program = getattr(insert, "_InsertionProgram", None)
    for name in METHODS if program is not None else ():
        setattr(program, name, timed(getattr(program, name), name))
        labels.append(name)
    translate = plan_module.translate_insertions
    calls = []

    def recorded(*call_args, **call_kwargs):
        spent.clear()
        start = perf_counter()
        plan = translate(*call_args, **call_kwargs)
        total = (perf_counter() - start) * 1e6
        new_key = any(op.relation == "C" for op in plan.delta_r)
        calls.append((new_key, total, dict(spent)))
        return plan

    plan_module.translate_insertions = recorded
    print(f"checkout {checkout.name}, best of {args.repeat} passes, untraced")
    for name in args.workloads:
        workload = workloads.by_name(name)
        streams = []
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                streams.append((header, [json.loads(line) for line in handle]))
        best = None
        first_best = [float("inf")] * len(streams)
        for _ in range(args.repeat):
            firsts, later = [], []
            for header, ops in streams:
                atg, db = named_workload(header["params"]["workload"])
                service = open_view(atg, db, config=ViewConfig(strict=False))
                for sub_path in header["subscriptions"]:
                    service.subscribe(sub_path)
                if workload.durable:
                    service.changefeed(on_event=lambda event: None)
                gc.collect()
                calls.clear()
                for op in ops:
                    if op["op"] == "read":
                        continue
                    try:
                        service.apply(op)
                    except ReproError:
                        pass
                new_keys = [call for call in calls if call[0]]
                firsts.append(new_keys[0][1] / 1000)
                later += new_keys[1:]
            first_best = [min(a, b) for a, b in zip(first_best, firsts)]
            total = sum(call[1] for call in later)
            if best is None or total < best[0]:
                best = (total, later)
        _, later = best
        firsts = first_best
        totals = [call[1] for call in later]
        print(f"== {name}: {len(later)} later new-key calls")
        print("   first new-key call per stream, ms: "
              + " ".join(f"{ms:.2f}" for ms in firsts))
        print(f"   later new-key call: median {statistics.median(totals):.1f} µs, "
              f"mean {statistics.fmean(totals):.1f} µs")
        split = collections.Counter()
        for _, total, parts in later:
            split.update(parts)
            split["other"] += total - sum(parts.values())
        print("   split, µs per later new-key call: " + ", ".join(
            f"{label} {split[label] / len(later):.1f}" for label in [*labels, "other"]
        ))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
