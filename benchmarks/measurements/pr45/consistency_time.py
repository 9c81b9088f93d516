"""Time `check_consistency()` and `TopoOrder.is_valid_for` on one checkout.

    python3 consistency_time.py CHECKOUT [REPEATS]

At `synthetic:300` / `1000` / `3000`: open a view, apply 40 generated
`dense_dag` writes (seed 0), then time `service.check_consistency()` and
the `L` check alone (`topo.is_valid_for(...)` with the argument the
checkout takes: the store, or `M`'s `is_ancestor`), best of REPEATS
(default 3), in ms.
"""
import inspect
import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

from repro import ViewConfig, open_view  # noqa: E402
from repro.bench.workload_gen import WorkloadSpec, generate_ops  # noqa: E402
from repro.workloads import named_workload  # noqa: E402


def best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return min(times)


def main() -> None:
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    for size in (300, 1000, 3000):
        workload = f"synthetic:{size}"
        atg, db = named_workload(workload)
        service = open_view(atg, db, config=ViewConfig(strict=False))
        for op in generate_ops(WorkloadSpec(workload=workload, ops=40, seed=0,
                                            pattern="dense_dag")):
            service.apply(op)
        updater = service.updater
        takes_store = "store" in inspect.signature(updater.topo.is_valid_for).parameters
        arg = updater.store if takes_store else updater.reach.is_ancestor
        assert service.check_consistency() == []
        full = best(service.check_consistency, repeats)
        valid = best(lambda: updater.topo.is_valid_for(arg), repeats)
        print(f"{workload:16} nodes={len(updater.topo):6} check_consistency {full:9.1f} ms"
              f"   is_valid_for {valid:9.2f} ms", flush=True)


if __name__ == "__main__":
    main()
