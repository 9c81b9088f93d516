"""What an insert's plan spends on walks no answer needs, one checkout.

    python3 walk_share.py CHECKOUT [--repeat N]

Replays every write of the four e2e pools (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use) in
this process against CHECKOUT's ``src/``, ``N`` times (default 3), and
keeps the fastest pass of each timer.  One service per stream, built
with the timers off, and ``gc.collect()`` before each timed loop, as
``worker.py`` does.  Reads are skipped.  Wrapped from outside, by name,
on whichever checkout has them:

- ``loop (service.apply)``: every write, end to end — the denominator;
- ``UpdatePlan._publish``: interning ``ST`` plus the cycle check;
- ``publish_subtree`` and, where it exists, the publisher's walk of the
  whole ``ST`` (``_subtree_nodes`` / ``_subtree_nodes_from``);
- ``DagXPathEvaluator._detect_side_effects``: the side-effect walk;
- ``StaticValidator.reachable_types``: the schema evaluation of a path.

Run it once per checkout to compare two of them.
"""
import argparse
import collections
import gc
import json
import pathlib
import sys
from time import perf_counter

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")


class Timers:
    def __init__(self):
        self.ms = collections.Counter()
        self.count = collections.Counter()
        self.active = False

    def timed(self, original, label):
        def timed(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
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
    import repro.atg.publisher as publisher
    import repro.core.plan as plan
    from repro import ViewConfig, open_view
    from repro.core.dag_eval import DagXPathEvaluator
    from repro.dtd.validate import StaticValidator
    from repro.workloads import named_workload

    timers = Timers()
    wrapped = [
        (plan.UpdatePlan, "_publish", "UpdatePlan._publish"),
        (plan, "publish_subtree", "  publish_subtree"),
        (publisher, "_subtree_nodes", "    _subtree_nodes"),
        (publisher, "_subtree_nodes_from", "    _subtree_nodes_from"),
        (DagXPathEvaluator, "_detect_side_effects", "_detect_side_effects"),
        (StaticValidator, "reachable_types", "reachable_types"),
    ]
    labels = ["loop (service.apply)"]
    for owner, name, label in wrapped:
        if hasattr(owner, name):
            setattr(owner, name, timers.timed(getattr(owner, name), label))
            labels.append(label)

    print(f"checkout {checkout.name}, best of {args.repeat} passes, "
          "writes only")
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
                apply = timers.timed(service.apply, "loop (service.apply)")
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
        print(f"   {'':34s} {'calls':>9s} {'ms':>10s} {'ms/call':>9s} "
              f"{'loop':>6s}")
        for label in labels:
            if label not in best_ms:
                continue
            calls = counts[label]
            print(f"   {label:34s} {calls:>9,d} {best_ms[label]:>10.1f} "
                  f"{best_ms[label] / calls:>9.4f} "
                  f"{best_ms[label] / loop:>6.1%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
