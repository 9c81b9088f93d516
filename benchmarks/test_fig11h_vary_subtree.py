"""Fig. 11(h): runtime vs inserted-subtree size |ST(A,t)| at |r[[p]]| = 1.

Paper shape: Xdelete is flat (fixed |Ep(r)|); Xinsert and the maintenance
algorithms scale linearly with the subtree size.

Here maintenance departs from the paper's curve on purpose.  The
paper's Δ(M,L)insert runs a localized Reach over all of ``ST(A, t)``;
this one writes only the pairs the insert adds, and the series inserts
an already-published subtree under a node that reaches it already, so
every row adds 0 pairs and maintenance is flat in |ST|.  Maintenance
still grows with |ST| when the insert does add pairs (``under_leaf``:
``anc*(target) × ST`` of them).
"""

import pytest

from conftest import fresh_updater
from benchmarks.paper.experiments import fig11h_vary_subtree
from repro.ops import InsertOp

N_C = 360


def _fastest_of(runs: int, **kwargs) -> list[dict]:
    """The series ``runs`` times, each row's ``maintain_s`` the minimum
    (one GC pause must not decide a shape assertion)."""
    series = [
        fig11h_vary_subtree(n_c=N_C, print_report=False, **kwargs)
        for _ in range(runs)
    ]
    rows = series[0]
    for row, *others in zip(*series):
        row["maintain_s"] = min(r["maintain_s"] for r in (row, *others))
    return rows


def test_subtree_size_series_shape():
    rows = _fastest_of(3)
    assert len(rows) >= 3
    sizes = [r["st_nodes"] for r in rows]
    assert sizes == sorted(sizes)
    small, large = rows[0], rows[-1]
    assert large["st_nodes"] > 4 * small["st_nodes"]
    # No pair to add: maintenance does not grow with the subtree.
    assert [r["pairs_added"] for r in rows] == [0] * len(rows)
    assert all(r["accepted"] for r in rows)
    times = [r["maintain_s"] for r in rows]
    assert max(times) < 3 * min(times)


def test_maintenance_grows_with_pairs_added():
    rows = _fastest_of(3, under_leaf=True)
    assert all(r["accepted"] for r in rows)
    small, large = rows[0], rows[-1]
    assert large["st_nodes"] > 4 * small["st_nodes"]
    assert large["pairs_added"] > 4 * small["pairs_added"] > 0
    assert large["maintain_s"] > small["maintain_s"]


@pytest.mark.parametrize("layer_index", [0, -1])
def test_insert_subtree_extremes(benchmark, layer_index):
    """Benchmark inserting the smallest vs largest available subtree."""

    def setup():
        updater, dataset = fresh_updater(N_C)
        store = updater.store
        by_layer = {}
        for node in sorted(store.nodes()):
            if store.type_of(node) != "cnode":
                continue
            key = store.sem_of(node)[0]
            by_layer.setdefault(dataset.layer_of[key], []).append(key)
        layers = sorted(by_layer)
        layer = layers[1] if layer_index == 0 else layers[-1]
        key = by_layer[layer][0]
        row = dataset.db.table("C").get((key,))
        target = None
        for node in sorted(store.nodes()):
            if (
                store.type_of(node) == "sub"
                and dataset.layer_of[store.sem_of(node)[0]] == 0
            ):
                target = store.sem_of(node)[0]
                break
        return (updater, f"cnode[key={target}]/sub", (key, row[4])), {}

    def work(updater, path, sem):
        return updater.apply_op(InsertOp(path, "cnode", sem))

    benchmark.pedantic(work, setup=setup, rounds=2, iterations=1)
