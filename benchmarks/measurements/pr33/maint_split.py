"""Where Δ(M,L) time goes on the ``mixed`` and ``dense_dag`` pools, one checkout.

    python3 maint_split.py CHECKOUT [--repeat N]

Replays every stream of the two e2e pools (the checkout's own
``benchmarks/e2e`` streams, generated into its cache on first use) in
this process against CHECKOUT's ``src/``, ``N`` times (default 3), and
keeps the fastest pass of each timer; one more, untimed pass counts the
lower-set rows.  The index methods and the two
maintenance entry points are wrapped from outside, whatever the
checkout's ``M`` looks like:

- Δ(M,L)delete (``maintain_delete``): the whole call; its ``LR`` source
  (``desc_of_set`` on ``M``'s descendant rows, or the store walk
  ``descendants_of``); the sweep (``retain_ancestors``, which clears a
  transpose bit per removed pair where ``M`` keeps one); ``drop_node``.
- Δ(M,L)insert (``maintain_insert``): the whole call; every
  ``add_closure_below``, split into calls that return at the mask test
  and calls that extend rows below the node, with the rows of the lower
  set they read (``desc`` row bits + 1, or the nodes the walk visits);
  the membership container of ``L``'s ``swap`` (``desc_view`` or
  ``region``).

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

WORKLOADS = ("mixed", "dense_dag")


class Timers:
    def __init__(self):
        self.ms = collections.Counter()
        self.count = collections.Counter()

    def wrap(self, owner, name, key=None, classify=None):
        original = getattr(owner, name, None)
        if original is None:
            return
        key = key or name

        def timed(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            spent = (perf_counter() - start) * 1000
            label = key if classify is None else f"{key} {classify(result)}"
            self.ms[label] += spent
            self.count[label] += 1
            return result

        setattr(owner, name, timed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.atg.incremental
    import repro.core.maintenance
    import repro.core.updater
    from repro import ViewConfig, open_view
    from repro.index import BitsetReachabilityIndex
    from repro.views.store import ViewStore
    from repro.workloads import named_workload

    timers = Timers()
    index = BitsetReachabilityIndex
    inside_delete = [False]
    counting = [False]  # the one untimed pass that counts lower-set rows
    walked = collections.Counter()

    # The lower set each extending add_closure_below reads.
    original_acb = index.add_closure_below
    original_children = ViewStore.children_of

    def counting_children(self, node):
        walked["visits"] += 1
        return original_children(self, node)

    def lower_probe(self, *args):
        if not counting[0]:
            return original_acb(self, *args)
        if "_desc" in type(self).__slots__:  # rows below read from M
            node = args[-1]
            before = len(self)
            result = original_acb(self, *args)
            if len(self) != before:
                walked["rows"] += self._desc.get(node, 0).bit_count() + 1
            return result
        ViewStore.children_of = counting_children
        walked["visits"] = 0
        try:
            result = original_acb(self, *args)
        finally:
            ViewStore.children_of = original_children
        if result:
            walked["rows"] += walked["visits"]
        return result

    index.add_closure_below = lower_probe
    timers.wrap(index, "add_closure_below", "add_closure_below",
                classify=lambda added: "extends" if added else "returns at once")
    timers.wrap(index, "retain_ancestors", "delete sweep: retain_ancestors")
    timers.wrap(index, "desc_of_set", "delete LR: desc_of_set")
    timers.wrap(index, "drop_node", "delete: drop_node")
    timers.wrap(index, "desc_view", "insert swap test: desc_view")
    timers.wrap(index, "region", "swap test / // region: region")

    original_walk = ViewStore.descendants_of

    def walk(self, roots):
        if not inside_delete[0]:
            return original_walk(self, roots)
        start = perf_counter()
        result = original_walk(self, roots)
        timers.ms["delete LR: store walk"] += (perf_counter() - start) * 1000
        timers.count["delete LR: store walk"] += 1
        return result

    ViewStore.descendants_of = walk
    original_delete = repro.core.maintenance.maintain_delete
    original_insert = repro.core.maintenance.maintain_insert

    def maintain_delete(*args, **kwargs):
        inside_delete[0] = True
        start = perf_counter()
        try:
            return original_delete(*args, **kwargs)
        finally:
            timers.ms["maintain_delete (all)"] += (perf_counter() - start) * 1000
            timers.count["maintain_delete (all)"] += 1
            inside_delete[0] = False

    def maintain_insert(*args, **kwargs):
        start = perf_counter()
        try:
            return original_insert(*args, **kwargs)
        finally:
            timers.ms["maintain_insert (all)"] += (perf_counter() - start) * 1000
            timers.count["maintain_insert (all)"] += 1

    for module in (repro.core.maintenance, repro.core.updater,
                   repro.atg.incremental):
        module.maintain_delete = maintain_delete
        module.maintain_insert = maintain_insert

    print(f"checkout {checkout.name}, best of {args.repeat} passes")
    for name in WORKLOADS:
        workload = workloads.by_name(name)
        streams = []
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                streams.append((header, [json.loads(line) for line in handle]))
        best_ms: dict[str, float] = {}
        counts = None
        walked["rows"] = 0
        for index_of_pass in range(args.repeat + 1):
            counting[0] = index_of_pass == args.repeat
            timers.ms.clear()
            timers.count.clear()
            for header, calls in streams:
                atg, db = named_workload(header["params"]["workload"])
                service = open_view(atg, db, config=ViewConfig(strict=False))
                gc.collect()
                for call in calls:
                    if call["op"] == "read":
                        service.xpath(call["path"])
                    else:
                        service.apply(call)
            if counting[0]:
                break
            for label, spent in timers.ms.items():
                best_ms[label] = min(spent, best_ms.get(label, spent))
            counts = dict(timers.count)
        rows = walked["rows"]
        print(f"== {name} ({workload.pool} streams)")
        for label in sorted(best_ms):
            print(f"   {label:45s} {counts[label]:>9,d} calls "
                  f"{best_ms[label]:>10.1f} ms")
        print(f"   {'lower-set rows read by extending calls':45s} {rows:>9,d}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
