"""Share of an e2e stream's timed loop spent maintaining `L` (ROADMAP 3(c)).

    python3 topo_share.py CHECKOUT WORKLOAD STREAM [STREAM ...]

Applies cached streams of `WORKLOAD` (run `run.py` once first so
`benchmarks/e2e/.cache` holds them) in this process through
`worker.run_stream`, with timing wrappers on `TopoOrder._reindex`,
`swap`, `insert_at`, `insert_front` and `maintenance.place_new_nodes`
(only the outermost wrapped call is timed, so nested calls count once),
and prints the wrapped seconds, the loop's `raw_s` and their ratio per
stream.  The wrappers add their own cost to both, so the share is an
upper bound.
"""
import pathlib, sys
from time import perf_counter


def main():
    checkout = pathlib.Path(sys.argv[1]).resolve()
    workload, streams = sys.argv[2], [int(s) for s in sys.argv[3:]]
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    import worker, workloads  # noqa: E401 - the checkout's own copies
    from repro.core import maintenance, session, updater
    from repro.core.topo import TopoOrder

    spent = {"s": 0.0, "depth": 0}

    def timed(function):
        def wrapper(*args, **kwargs):
            spent["depth"] += 1
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent["depth"] -= 1
                if spent["depth"] == 0:
                    spent["s"] += perf_counter() - start
        return wrapper

    for name in ("_reindex", "swap", "insert_at", "insert_front"):
        setattr(TopoOrder, name, timed(getattr(TopoOrder, name)))
    place = timed(maintenance.place_new_nodes)
    maintenance.place_new_nodes = session.place_new_nodes = place
    spec = workloads.by_name(workload)
    for stream in streams:
        path, _ = workloads.ensure_stream(spec, stream)
        spent["s"] = 0.0
        result = worker.run_stream(str(path), spec.durable, None)
        print(f"{workload} stream {stream}: L maintenance {spent['s']:.4f} s "
              f"of raw_s {result['raw_s']:.4f} s = "
              f"{spent['s'] / result['raw_s']:.2%}")


if __name__ == "__main__":
    main()
