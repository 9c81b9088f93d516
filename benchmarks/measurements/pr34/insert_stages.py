"""Where Algorithm insert and the SPJ join spend a write's time, one checkout.

    python3 insert_stages.py CHECKOUT [--repeat N]

Replays every stream of the four e2e pools (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use) in
this process against CHECKOUT's ``src/``, ``N`` times (default 3), and
keeps the fastest pass of each timer.  Only the loop is timed: each
stream's ``open_view`` (publishing) runs with the timers off, and reads
are skipped (they never reach the relational layer).  Wrapped from
outside, whatever the checkout's internals look like:

- ``loop (service.apply)``: every write, end to end — the denominator of
  the shares printed;
- ``translate_insertions``: Algorithm insert as the updater calls it,
  and its five stages (``_resolve_targets`` includes the
  ``matching_rows`` probes listed below);
- ``SPJQuery.evaluate``, split by the function that called it:
  ``matching_rows`` (insert's targets, delete's ``Sr(Q, t)``),
  ``rows_referencing`` (delete's side-effect test) and ``_child_sems``
  (publishing a new subtree), plus any other caller by name.

Timer overhead is a few hundred nanoseconds per wrapped call, the same
on both sides.  Run it once per checkout to compare two of them.
"""
import argparse
import collections
import gc
import json
import pathlib
import sys
from time import perf_counter

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
STAGES = ("_resolve_targets", "_build_templates", "_sweep_side_effects",
          "_solve", "_decode_valuation")


class Timers:
    def __init__(self):
        self.ms = collections.Counter()
        self.count = collections.Counter()
        self.active = False

    def timed(self, original, label_of):
        def timed(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            label = label_of()
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.ms[label] += (perf_counter() - start) * 1000
                self.count[label] += 1
        return timed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.core.plan
    import repro.relview.insert as insert
    from repro import ViewConfig, open_view
    from repro.relational.query import SPJQuery
    from repro.workloads import named_workload

    timers = Timers()
    for stage in STAGES:
        setattr(insert, stage,
                timers.timed(getattr(insert, stage), lambda s=stage: f"  {s}"))
    repro.core.plan.translate_insertions = timers.timed(
        repro.core.plan.translate_insertions, lambda: "translate_insertions")

    def caller():
        return f"SPJQuery.evaluate from {sys._getframe(2).f_code.co_name}"

    SPJQuery.evaluate = timers.timed(SPJQuery.evaluate, caller)

    print(f"checkout {checkout.name}, best of {args.repeat} passes, loop only")
    for name in WORKLOADS:
        workload = workloads.by_name(name)
        streams = []
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                streams.append((header, [json.loads(line) for line in handle]))
        best_ms: dict[str, float] = {}
        counts: dict[str, int] = {}
        for _ in range(args.repeat):
            timers.ms.clear()
            timers.count.clear()
            for header, calls in streams:
                atg, db = named_workload(header["params"]["workload"])
                service = open_view(atg, db, config=ViewConfig(strict=False))
                apply = timers.timed(service.apply, lambda: "loop (service.apply)")
                gc.collect()
                timers.active = True
                for call in calls:
                    if call["op"] != "read":
                        apply(call)
                timers.active = False
            for label, spent in timers.ms.items():
                best_ms[label] = min(spent, best_ms.get(label, spent))
            counts = dict(timers.count)
        loop = best_ms.get("loop (service.apply)", 0.0) or 1.0
        print(f"== {name} ({workload.pool} streams)")
        print(f"   {'':52s} {'calls':>9s} {'ms':>10s} {'ms/call':>9s} {'loop':>6s}")
        for label in sorted(best_ms, key=_order):
            calls = counts[label]
            print(f"   {label:52s} {calls:>9,d} {best_ms[label]:>10.1f} "
                  f"{best_ms[label] / calls:>9.4f} {best_ms[label] / loop:>6.1%}")
        sys.stdout.flush()


def _order(label):
    if label.startswith("loop"):
        return (0, "")
    if label == "translate_insertions":
        return (1, "")
    if label.startswith("  "):
        return (2, STAGES.index(label.strip()))
    return (3, label)


if __name__ == "__main__":
    main()
