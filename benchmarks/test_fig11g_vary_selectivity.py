"""Fig. 11(g): runtime vs update selectivity (|r[[p]]| / |Ep(r)|) at fixed |C|.

Paper shape: Xinsert/Xdelete translation grows mildly with the number of
selected nodes; Algorithm delete's cost grows clearly with |Ep(r)| (more
database point queries); the insertion coding time stays roughly flat.
"""

import pytest

from conftest import fresh_updater
from benchmarks.paper.experiments import fig11g_vary_selectivity
from repro.ops import InsertOp

N_C = 360
FANOUTS = (1, 2, 4)


@pytest.mark.parametrize("fanout", FANOUTS)
def test_insert_fanout(benchmark, fanout):
    from benchmarks.paper.experiments import _existing_key, _keys_with_children

    def setup():
        updater, dataset = fresh_updater(N_C)
        keys = _keys_with_children(updater, dataset, fanout)[:fanout]
        filt = " or ".join(f"key={k}" for k in keys)
        child_key = _existing_key(dataset)
        row = dataset.db.table("C").get((child_key,))
        return (updater, f"//cnode[{filt}]/sub", (child_key, row[4])), {}

    def work(updater, path, sem):
        return updater.apply_op(InsertOp(path, "cnode", sem))

    outcome = benchmark.pedantic(work, setup=setup, rounds=2, iterations=1)
    assert outcome.accepted


def test_selectivity_series_shape():
    rows = fig11g_vary_selectivity(
        n_c=N_C, fanouts=(1, 2, 4, 8), print_report=False
    )
    inserts = [r for r in rows if r["kind"] == "insert"]
    assert [r["selected"] for r in inserts] == [1, 2, 4, 8]
    # XPath evaluation grows with the disjunctive filter size.
    assert inserts[-1]["xpath_s"] > inserts[0]["xpath_s"]
    deletes = [r for r in rows if r["kind"] == "delete"]
    assert max(r["selected"] for r in deletes) >= 4
