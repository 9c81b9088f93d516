"""Tour of the paper's evaluation dataset (Section 5).

Builds the synthetic C/F/H database, publishes the recursive view,
reports the compression statistics of Fig. 10(b), runs one operation of
each workload class (W1/W2/W3) and prints the per-phase timings the
paper's Fig. 11 plots.

Run:  python examples/synthetic_dag_tour.py [n_c]
"""

import sys

from repro.atg.publisher import publish_tree
from repro.service import ViewConfig, open_view
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xmltree.tree import tree_size


def main(n_c: int = 500) -> None:
    dataset = build_synthetic(SyntheticConfig(n_c=n_c))
    db = dataset.db
    print(f"|C| = {len(db.table('C'))}, |F| = {len(db.table('F'))}, "
          f"|H| = {len(db.table('H'))}")

    service = open_view(
        dataset.atg,
        db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    store = service.store
    cnodes = [n for n in store.nodes() if store.type_of(n) == "cnode"]
    shared = sum(1 for n in cnodes if store.in_degree(n) > 1)
    print(f"published C instances: {len(cnodes)}")
    print(f"DAG: {store.num_nodes} nodes, {store.num_edges} edges")
    print(f"shared C instances: {shared} ({shared / len(cnodes):.1%}; "
          "paper reports 31.4%)")
    print(f"|M| = {len(service.reach)} reachability pairs, "
          f"|L| = {len(service.topo)}")

    if n_c <= 300:
        try:
            size = tree_size(publish_tree(dataset.atg, db, max_nodes=2_000_000))
            print(f"uncompressed tree: {size} nodes "
                  f"({size / store.num_nodes:.0f}x the DAG)")
        except Exception:
            print("uncompressed tree: > 2M nodes (exponential blowup)")

    print("\nOne operation per workload class:")
    for cls in ("W1", "W2", "W3"):
        delete_op = make_workload(dataset, "delete", cls, count=1)[0]
        outcome = service.apply(delete_op)
        phases = {k: f"{v * 1e3:.2f}ms" for k, v in outcome.timings.items()}
        print(f"  {cls} delete {delete_op.path}")
        print(f"     accepted={outcome.accepted} phases={phases}")

        insert_op = make_workload(dataset, "insert", cls, count=1)[0]
        outcome = service.apply(insert_op)
        phases = {k: f"{v * 1e3:.2f}ms" for k, v in outcome.timings.items()}
        print(f"  {cls} insert {insert_op.path} <- cnode{insert_op.sem}")
        print(f"     accepted={outcome.accepted} phases={phases}")

    print("\nConsistency:", service.check_consistency() or "OK")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 500)
