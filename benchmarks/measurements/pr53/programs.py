"""How often an insertion's program is reused, over the e2e pools.

    python3 programs.py CHECKOUT [--workloads W ...]

Replays every stream of the named e2e pools (default: all four; the
checkout's own ``benchmarks/e2e`` streams, generated into its cache on
first use) in this process against CHECKOUT's ``src/``, one fresh
service per stream as ``benchmarks/e2e/worker.py`` builds it
(subscriptions included, no WAL); reads are skipped.  Every call of
``translate_insertions`` is classed by what it did:

- ``bound``: the shape's program bound the call's values;
- ``guard miss``: the shape had a program, its values compared
  otherwise, and the call was prepared again (the new program replaces
  the old one when it may be cached);
- ``new shape``: the shape had no program yet;
- ``own``: prepared and answered alone, caching nothing (a target with
  no row read, a sweep probe that found a row, a BOOL residue);
- ``rejected``: the preparation rejected the call;
- ``no target``: every edge was derivable already.

Printed per workload: the count of each class, and the shapes cached at
the end of each stream (summed over streams).  A stream missing from the
cache is generated first, and the generator's own insertions are then
counted too: run it twice on a new checkout.
"""
import argparse
import collections
import json
import pathlib
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--workloads", nargs="+",
                        default=["mixed", "dense_dag", "read_mostly", "subscribed_durable"])
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.core.plan as plan_module
    import repro.relview.insert as insert
    from repro import ViewConfig, open_view
    from repro.errors import ReproError, UpdateRejectedError
    from repro.workloads import named_workload

    seen = {}
    bind, prepare = insert._InsertionProgram.bind, insert._prepare

    def bound(self, *call_args):
        result = bind(self, *call_args)
        seen["bind"] = result is not None
        return result

    def prepared(*call_args):
        seen["prepared"] = None
        program = prepare(*call_args)
        seen["prepared"] = program
        return program

    insert._InsertionProgram.bind = bound
    insert._prepare = prepared
    translate = plan_module.translate_insertions
    counts = collections.Counter()

    def recorded(*call_args, **call_kwargs):
        seen.clear()
        try:
            return translate(*call_args, **call_kwargs)
        except UpdateRejectedError:
            counts["rejected"] += 1
            raise
        finally:
            if "prepared" not in seen:
                counts["bound" if seen.get("bind") else "no target"] += 1
            elif seen["prepared"] is not None:
                if not seen["prepared"].cacheable:
                    counts["own"] += 1
                elif "bind" in seen:
                    counts["guard miss"] += 1
                else:
                    counts["new shape"] += 1

    plan_module.translate_insertions = recorded
    print(f"checkout {checkout.name}, untraced")
    for name in args.workloads:
        workload = workloads.by_name(name)
        counts.clear()
        shapes = 0
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                ops = [json.loads(line) for line in handle]
            atg, db = named_workload(header["params"]["workload"])
            service = open_view(atg, db, config=ViewConfig(strict=False))
            for sub_path in header["subscriptions"]:
                service.subscribe(sub_path)
            for op in ops:
                if op["op"] == "read":
                    continue
                try:
                    service.apply(op)
                except ReproError:
                    pass
            shapes += sum(
                len(skeleton.insertions)
                for skeleton in service.updater.registry.skeletons.values()
            )
        print(f"== {name}: " + ", ".join(
            f"{label} {counts[label]}"
            for label in ("bound", "guard miss", "new shape", "own", "rejected", "no target")
        ) + f"; shapes cached at the end of the streams: {shapes}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
