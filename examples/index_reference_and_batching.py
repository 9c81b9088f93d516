"""Demo: the reachability index against its reference + batches.

1. Run Algorithm Reach over the same synthetic view on
   ``BitsetReachabilityIndex`` (the index every view is built with) and
   on ``repro.baselines.SetReachabilityIndex`` (the paper's matrix as a
   dict of sets, the reference the tests check the index against) — the
   matrices are equals()-identical, the bitset build is much faster.
2. Run a burst of deletions once one by one and once as one batch
   (``with service.batch():``, one write scope whose ops each run the
   single-op path, repair included) and compare their whole walls; the
   final states are identical.

Run:  python examples/index_reference_and_batching.py
"""

import time

from repro import BitsetReachabilityIndex, ViewConfig, open_view
from repro.baselines import SetReachabilityIndex
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
    # -- 1. the index and its reference ----------------------------------------
    service, dataset = fresh_service()
    store, topo = service.store, service.topo
    print(f"store: {store.num_nodes} nodes, {store.num_edges} edges")
    index, reference = BitsetReachabilityIndex(), SetReachabilityIndex()
    for reach in (reference, index):
        start = time.perf_counter()
        reach.recompute(store, topo)
        elapsed = time.perf_counter() - start
        print(f"  Algorithm Reach [{type(reach).__name__:23s}]: "
              f"{elapsed * 1e3:7.2f} ms, |M| = {len(reach)}")
    assert index.equals(reference) and index.equals(service.reach)
    print("  the index agrees with its reference: M is equals()-identical\n")

    # -- 2. one by one and as one batch -----------------------------------------
    ops = [
        op
        for cls in ("W1", "W2", "W3")
        for op in make_workload(dataset, "delete", cls, count=4)
    ]

    sequential, _ = fresh_service()
    start = time.perf_counter()
    for op in ops:
        sequential.apply(op)
    one_by_one = time.perf_counter() - start
    print(f"one by one: {len(ops)} deletions, "
          f"{sequential.maintenance_runs} maintenance passes, "
          f"{one_by_one * 1e3:.2f} ms")

    batched, _ = fresh_service()
    start = time.perf_counter()
    with batched.batch() as batch:
        for op in ops:
            batch.apply(op)
    whole = time.perf_counter() - start
    print(f"one batch:  {len(ops)} deletions, "
          f"{batched.maintenance_runs} maintenance passes, "
          f"{whole * 1e3:.2f} ms ({whole / one_by_one:.2f}x)")

    assert batched.store.digest() == sequential.store.digest()
    assert batched.reach.equals(sequential.reach)
    print("final stores and reachability matrices identical; consistency:",
          batched.check_consistency() or "OK")


if __name__ == "__main__":
    main()
