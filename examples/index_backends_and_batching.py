"""Demo: pluggable reachability-index backends + batched update sessions.

1. Build the same synthetic view with the ``sets`` (reference) and
   ``bitset`` (int-bitmask) backends and time Algorithm Reach on each —
   the matrices are equals()-identical, the bitset build is much faster.
2. Run a burst of deletions once sequentially (one Δ(M,L) repair per
   update) and once inside ``with updater.batch():`` (one deferred
   repair for the whole burst) and compare the background-maintenance
   cost; the final states are identical.

Run:  python examples/index_backends_and_batching.py
"""

import time

from repro import ViewConfig, build_index, open_view
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def fresh_service():
    dataset = build_synthetic(SyntheticConfig(n_c=300, seed=7))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    return service, dataset


def main() -> None:
    # -- 1. backend ablation ---------------------------------------------------
    service, dataset = fresh_service()
    store, topo = service.store, service.topo
    print(f"store: {store.num_nodes} nodes, {store.num_edges} edges")
    indexes = {}
    for backend in ("sets", "bitset"):
        start = time.perf_counter()
        indexes[backend] = build_index(store, topo, backend)
        elapsed = time.perf_counter() - start
        print(f"  Algorithm Reach [{backend:6s}]: {elapsed * 1e3:7.2f} ms, "
              f"|M| = {len(indexes[backend])}")
    assert indexes["sets"].equals(indexes["bitset"])
    print("  backends agree: M is equals()-identical\n")

    # -- 2. batched update session ---------------------------------------------
    ops = [
        op
        for cls in ("W1", "W2", "W3")
        for op in make_workload(dataset, "delete", cls, count=4)
    ]

    sequential, _ = fresh_service()
    maintain = 0.0
    for op in ops:
        maintain += sequential.apply(op).timings.get("maintain", 0.0)
    print(f"sequential: {len(ops)} deletions, "
          f"{sequential.maintenance_runs} maintenance passes, "
          f"{maintain * 1e3:.2f} ms background repair")

    batched, _ = fresh_service()
    with batched.batch() as batch:
        for op in ops:
            batch.apply(op)
    report = batch.session.report
    print(f"batched:    {len(ops)} deletions, "
          f"{report.maintenance_passes} maintenance pass, "
          f"{report.seconds * 1e3:.2f} ms background repair")

    assert batched.reach.equals(sequential.reach)
    print("final reachability matrices identical; consistency:",
          batched.check_consistency() or "OK")


if __name__ == "__main__":
    main()
