"""Warm per-call cost of Algorithm insert on two insertion shapes.

    python3 insert_shapes.py CHECKOUT [--calls N] [--rounds R]
    python3 insert_shapes.py PARENT CHANGE --pairs P [--calls N] [--rounds R]

On ``synthetic:1000`` (seed 42) against CHECKOUT's ``src/``:

- ``sharing``: ``//cnode[key=P]/sub`` gains an existing ``cnode`` — one
  new ``H`` row, no unknowns, one derivation;
- ``new key``: the same parent gains a new ``cnode`` — new ``H``, ``C``
  and ``F`` rows, 26 unknowns.

Each op is planned once through the public service; inside that plan the
updater's call to ``translate_insertions`` is repeated ``N`` times
(default 2000) on the very arguments the plan passed, each with a fresh
``itertools.count(1)`` for the fresh values, after 200 untimed warm-up
calls.  The plan is then aborted.  Printed: the median and the best of
``R`` rounds (default 5) of the mean µs per call, and how many
``SPJQuery.evaluate`` / ``Table.get`` / ``make_atom`` calls one
translation makes (counted on one extra call, outside the timing).

With two checkouts, runs ``P`` alternating pairs (the parent first in
even pairs, the change first in odd ones), each side in a fresh
process, and prints the median over the pairs of each side's median,
the change/parent ratio per shape and how many pairs the change won.
"""
import argparse
import itertools
import pathlib
import re
import statistics
import subprocess
import sys
from time import perf_counter


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=0)
    args = parser.parse_args()
    if args.pairs:
        return alternate(args)
    checkout = pathlib.Path(args.checkouts[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import repro.core.plan as plan_module
    import repro.relview.insert as insert
    from repro import InsertOp, ViewConfig, open_view
    from repro.relational.database import Table
    from repro.relational.query import SPJQuery
    from repro.workloads.synthetic import SyntheticConfig, build_synthetic

    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=42))
    service = open_view(dataset.atg, dataset.db, config=ViewConfig(strict=False))
    store = service.updater.store
    parent = min(dataset.top_level)
    children = {
        store.sem_of(child)[0]
        for node in store.nodes() if store.type_of(node) == "cnode"
        and store.sem_of(node)[0] == parent
        for sub in store.children_of(node)
        for child in store.children_of(sub)
    }
    shared = next(
        store.sem_of(node) for node in store.nodes()
        if store.type_of(node) == "cnode" and store.sem_of(node)[0] != parent
        and store.sem_of(node)[0] not in children
    )
    shapes = {
        "sharing": InsertOp(f"//cnode[key={parent}]/sub", "cnode", shared),
        "new key": InsertOp(f"//cnode[key={parent}]/sub", "cnode", (10**6 + 7, "fresh")),
    }

    original = plan_module.translate_insertions
    counted = {"SPJQuery.evaluate": SPJQuery, "Table.get": Table}
    print(f"checkout {checkout.name}: synthetic:1000, {args.calls} warm calls "
          f"per round, {args.rounds} rounds")
    for name, op in shapes.items():
        report = {}

        def repeated(*call_args, **call_kwargs):
            run = lambda: original(*call_args[:4], fresh=itertools.count(1))
            for _ in range(200):
                run()
            means = []
            for _ in range(args.rounds):
                start = perf_counter()
                for _ in range(args.calls):
                    run()
                means.append((perf_counter() - start) / args.calls * 1e6)
            report["us"] = means
            calls = dict.fromkeys([*counted, "make_atom"], 0)
            saved = {}
            for label, owner in counted.items():
                attr = label.split(".")[1]
                saved[label] = getattr(owner, attr)
                setattr(owner, attr, _counting(saved[label], calls, label))
            saved_atom = insert.make_atom
            insert.make_atom = _counting(saved_atom, calls, "make_atom")
            try:
                result = run()
            finally:
                for label, owner in counted.items():
                    setattr(owner, label.split(".")[1], saved[label])
                insert.make_atom = saved_atom
            report["calls"] = calls
            report["delta_r"] = len(result.delta_r)
            return original(*call_args, **call_kwargs)

        plan_module.translate_insertions = repeated
        try:
            plan = service.plan(op)
        finally:
            plan_module.translate_insertions = original
        assert plan.state.value == "planned", plan.outcome.reason
        plan.abort()
        us = report["us"]
        print(f"{name:8s}  |ΔR|={report['delta_r']}  median {statistics.median(us):8.1f} µs"
              f"  best {min(us):8.1f} µs  per call: "
              + ", ".join(f"{k} {v}" for k, v in report["calls"].items()))


def alternate(args):
    parent, change = args.checkouts
    medians = {"parent": {}, "change": {}}
    for pair in range(args.pairs):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, checkout, "--calls", str(args.calls),
                 "--rounds", str(args.rounds)],
                capture_output=True, text=True, check=True,
            )
            print(f"pair {pair} {side}: " + done.stdout.strip().replace("\n", "\n    "))
            for shape, median in re.findall(r"^(\S+(?: key)?) .*median +([0-9.]+)",
                                            done.stdout, re.M):
                medians[side].setdefault(shape, []).append(float(median))
    for shape in medians["parent"]:
        a, b = medians["parent"][shape], medians["change"][shape]
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{shape:8s} parent {statistics.median(a):7.1f} µs  change "
              f"{statistics.median(b):7.1f} µs  change/parent "
              f"{statistics.median(b) / statistics.median(a):.2f}  "
              f"change faster in {wins}/{len(a)} pairs")


def _counting(function, calls, label):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return function(*args, **kwargs)
    return wrapper


if __name__ == "__main__":
    main()
