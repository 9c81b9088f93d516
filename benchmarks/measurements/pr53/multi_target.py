"""Algorithm insert with T targets of one view (Fig. 11(g)'s insertions).

    python3 multi_target.py CHECKOUT [--targets T ...] [--calls N]

On ``synthetic:1000`` (seed 42) against CHECKOUT's ``src/``, the op
``//cnode[key=k1 or … or kT]/sub`` gains a ``cnode`` under T published
parents at once, in two shapes:

- ``sharing``: an existing ``cnode`` (Fig. 11(g)'s op): T new ``H`` rows;
- ``new key``: a new ``cnode``: T new ``H`` rows, one ``C``, one ``F``.

The op is planned once through the public service; inside that plan the
updater's call to ``translate_insertions`` is repeated on the very
arguments the plan passed.  Printed per T and shape, in µs, the median
of ``N`` calls (default 20):

- ``cold``: every insertion program dropped before the call (what a
  shape's first call pays; on a checkout without insertion programs it
  is every call);
- ``warm``: the call repeated with whatever the previous call cached;
- ``guards``: the comparisons the cached program re-checks per call
  (``-`` without insertion programs or when nothing is cached).
"""
import argparse
import itertools
import pathlib
import statistics
import sys
from time import perf_counter


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--targets", type=int, nargs="+", default=[1, 2, 4, 8, 32, 128])
    parser.add_argument("--calls", type=int, default=20)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import repro.core.plan as plan_module
    from repro import InsertOp, ViewConfig, open_view
    from repro.workloads.synthetic import SyntheticConfig, build_synthetic

    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=42))
    service = open_view(dataset.atg, dataset.db, config=ViewConfig(strict=False))
    store = service.updater.store
    parents = sorted({
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
        and any(store.type_of(c) == "sub" for c in store.children_of(node))
    })
    chosen = parents[: max(args.targets)]
    children = {
        store.sem_of(child)[0]
        for node in store.nodes() if store.type_of(node) == "cnode"
        and store.sem_of(node)[0] in chosen
        for sub in store.children_of(node)
        for child in store.children_of(sub)
    }
    shared = next(
        store.sem_of(node) for node in sorted(store.nodes())
        if store.type_of(node) == "cnode" and store.sem_of(node)[0] not in children
        and store.sem_of(node)[0] not in chosen
    )
    original = plan_module.translate_insertions
    print(f"checkout {checkout.name}: synthetic:1000, {args.calls} calls per cell, µs")
    print(f"{'T':>4s}  {'shape':8s} {'cold':>9s} {'warm':>9s} {'guards':>7s}")
    for t in args.targets:
        if t > len(parents):
            print(f"{t:4d}  only {len(parents)} parents with a sub")
            continue
        filt = " or ".join(f"key={k}" for k in parents[:t])
        ops = {
            "sharing": InsertOp(f"//cnode[{filt}]/sub", "cnode", shared),
            "new key": InsertOp(f"//cnode[{filt}]/sub", "cnode", (10**6 + 7, "fresh")),
        }
        for name, op in ops.items():
            report = {}

            def repeated(*call_args, **call_kwargs):
                registry = call_args[0]
                run = lambda: original(*call_args[:4], fresh=itertools.count(1))

                def forget():
                    for skeleton in registry.skeletons.values():
                        getattr(skeleton, "insertions", {}).clear()

                cold, warm = [], []
                for _ in range(args.calls):
                    forget()
                    start = perf_counter()
                    run()
                    cold.append(perf_counter() - start)
                    start = perf_counter()
                    run()
                    warm.append(perf_counter() - start)
                report["cold"] = statistics.median(cold) * 1e6
                report["warm"] = statistics.median(warm) * 1e6
                report["guards"] = "-"
                for skeleton in registry.skeletons.values():
                    for programs in getattr(skeleton, "insertions", {}).values():
                        for program in programs if isinstance(programs, list) else [programs]:
                            report["guards"] = len(program.guards)
                return original(*call_args, **call_kwargs)

            plan_module.translate_insertions = repeated
            try:
                plan = service.plan(op)
            finally:
                plan_module.translate_insertions = original
            assert plan.state.value == "planned", plan.outcome.reason
            plan.abort()
            print(f"{t:4d}  {name:8s} {report['cold']:9.1f} {report['warm']:9.1f} "
                  f"{report['guards']!s:>7s}")


if __name__ == "__main__":
    main()
