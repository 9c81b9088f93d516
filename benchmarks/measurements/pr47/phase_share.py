"""Share of an e2e loop spent in each write phase, one checkout.

    python3 phase_share.py CHECKOUT [REPEATS]

Replays every stream of the four e2e pools (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use)
against CHECKOUT's ``src/``, untraced, as ``benchmarks/e2e/worker.py``
runs them: one fresh service per stream with its subscriptions and, for
``subscribed_durable``, a callback changefeed (no WAL: the loop, not the
disk), and ``gc.collect()`` before each timed loop.  The loop is every
call, reads included.  Printed per workload: the loop's wall time and
each ``UpdateOutcome.timings`` phase as a share of it, ``translate_r``
(Algorithm delete and insert, ΔV→ΔR) first.  ``REPEATS`` (default 3)
replays the pool that many times and keeps the fastest loop and the
phase sums of that pass.
"""
import collections
import gc
import json
import pathlib
import sys
from time import perf_counter

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")


def main():
    checkout = pathlib.Path(sys.argv[1]).resolve()
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.errors import ReproError
    from repro.workloads import named_workload

    print(f"checkout {checkout.name}, best of {repeats} passes, untraced")
    for name in WORKLOADS:
        workload = workloads.by_name(name)
        streams = []
        for index in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, index)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                streams.append((header, [json.loads(line) for line in handle]))
        best = None
        for _ in range(repeats):
            loop = 0.0
            phases = collections.Counter()
            for header, calls in streams:
                atg, db = named_workload(header["params"]["workload"])
                service = open_view(atg, db, config=ViewConfig(strict=False))
                for sub_path in header["subscriptions"]:
                    service.subscribe(sub_path)
                if workload.durable:
                    service.changefeed(on_event=lambda event: None)
                gc.collect()
                for call in calls:
                    start = perf_counter()
                    try:
                        if call["op"] == "read":
                            service.xpath(call["path"])
                        else:
                            phases.update(service.apply(call).timings)
                    except ReproError:
                        pass
                    loop += perf_counter() - start
            if best is None or loop < best[0]:
                best = (loop, phases)
        loop, phases = best
        order = sorted(phases, key=lambda p: (p != "translate_r", -phases[p]))
        shares = "  ".join(f"{p} {phases[p] / loop:.3f}" for p in order)
        print(f"{name:20s} loop {loop * 1000:8.1f} ms  {shares}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
