"""Which single-attribute indexes a write builds, and who pays for them.

    python3 index_builds.py CHECKOUT [WORKLOAD ...]

Replays every stream of the named e2e pools (default: all four; the
checkout's cached streams, generated on first use) in this process
against CHECKOUT's ``src/``, and counts the ``Table._index`` calls that
build an index while the loop runs (publishing excluded), with the ms
they take and the ``(relation, attribute)`` built.  An index is built
once per stream, by whichever probe needs it first; a plan that reads a
table by its primary key no longer builds that key's index, so the
first later ``lookup`` on it (the side-effect sweep's) pays instead.
"""
import collections
import json
import pathlib
import sys
from time import perf_counter

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")


def main():
    checkout = pathlib.Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.relational.database import Table
    from repro.workloads import named_workload

    builds = collections.Counter()
    spent = [0.0]
    active = [False]
    original = Table._index

    def counted(self, attr):
        if not active[0] or attr in self._indexes:
            return original(self, attr)
        builds[(self.schema.name, attr)] += 1
        start = perf_counter()
        try:
            return original(self, attr)
        finally:
            spent[0] += (perf_counter() - start) * 1000

    Table._index = counted
    print(f"checkout {checkout.name}, loop only")
    for name in sys.argv[2:] or WORKLOADS:
        workload = workloads.by_name(name)
        builds.clear()
        spent[0] = 0.0
        for stream in range(workload.pool):
            path, _ = workloads.ensure_stream(workload, stream)
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                calls = [json.loads(line) for line in handle]
            atg, db = named_workload(header["params"]["workload"])
            service = open_view(atg, db, config=ViewConfig(strict=False))
            active[0] = True
            for call in calls:
                if call["op"] != "read":
                    service.apply(call)
            active[0] = False
        built = ", ".join(f"{r}.{a} x{n}" for (r, a), n in sorted(builds.items()))
        print(f"== {name}: {sum(builds.values())} index builds, "
              f"{spent[0]:.1f} ms: {built}")


if __name__ == "__main__":
    main()
