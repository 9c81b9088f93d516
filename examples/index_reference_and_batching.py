"""Demo: the reachability index against its reference + batched sessions.

1. Run Algorithm Reach over the same synthetic view on
   ``BitsetReachabilityIndex`` (the index every view is built with) and
   on ``repro.baselines.SetReachabilityIndex`` (the paper's matrix as a
   dict of sets, the reference the tests check the index against) — the
   matrices are equals()-identical, the bitset build is much faster.
2. Run a burst of deletions once sequentially (one Δ(M,L) repair per
   update) and once inside ``with updater.batch():`` (one deferred
   repair for the whole burst) and compare the background-maintenance
   cost; the final states are identical.

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
