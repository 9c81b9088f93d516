"""The side-effect sweep's own time on the ``mixed`` pool, every index prebuilt.

    python3 sweep_check.py CHECKOUT

Replays the ``mixed`` pool in-process three times against CHECKOUT's
``src/``, builds every single-attribute index of every table right after
``open_view`` (so no index build lands inside the sweep), and prints the
fastest pass's total ``_sweep_side_effects`` ms.
"""
import gc
import json
import pathlib
import sys
from time import perf_counter


def main():
    checkout = pathlib.Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    import repro.relview.insert as insert
    from repro import ViewConfig, open_view
    from repro.workloads import named_workload

    spent = [0.0]
    original = insert._sweep_side_effects

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - start

    insert._sweep_side_effects = timed
    workload = workloads.by_name("mixed")
    streams = []
    for stream in range(workload.pool):
        path, _ = workloads.ensure_stream(workload, stream)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            streams.append((header, [json.loads(line) for line in handle]))
    best = None
    for _ in range(3):
        spent[0] = 0.0
        for header, calls in streams:
            atg, db = named_workload(header["params"]["workload"])
            service = open_view(atg, db, config=ViewConfig(strict=False))
            for name in db.table_names():
                table = db.table(name)
                table.create_index(table.schema.attribute_names)
            gc.collect()
            for call in calls:
                if call["op"] != "read":
                    service.apply(call)
        best = spent[0] if best is None else min(best, spent[0])
    print(f"{checkout.name} sweep ms with every index prebuilt: {best * 1000:.1f}")


if __name__ == "__main__":
    main()
