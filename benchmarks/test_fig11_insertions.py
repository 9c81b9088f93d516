"""Fig. 11(d)–(f): insertion performance vs database size per class.

Paper shape: linear scaling with |C|; the SAT coding cost is roughly
independent of the database size (it depends on |ΔV| and |Q| only); a
fraction of insertions is rejected (the paper reports 78% solver success).
"""

import pytest

from conftest import OPS_PER_CLASS, SIZES, fresh_updater
from benchmarks.paper.harness import PhaseAccumulator
from repro.workloads.queries import make_workload


def run_insertions(updater, dataset, cls):
    acc = PhaseAccumulator()
    for op in make_workload(dataset, "insert", cls, count=OPS_PER_CLASS):
        acc.add(updater.apply_op(op))
    return acc


@pytest.mark.parametrize("cls", ["W1", "W2", "W3"])
@pytest.mark.parametrize("n_c", SIZES)
def test_insertion_workload(benchmark, cls, n_c):
    def setup():
        return fresh_updater(n_c), {}

    def work(updater, dataset):
        return run_insertions(updater, dataset, cls)

    acc = benchmark.pedantic(work, setup=setup, rounds=2, iterations=1)
    assert acc.count == OPS_PER_CLASS
    assert acc.accepted > 0


def test_insertions_mostly_accepted():
    """Acceptance rate in the ballpark of the paper's 78%."""
    accepted = total = 0
    updater, dataset = fresh_updater(SIZES[-1])
    for cls in ("W1", "W2", "W3"):
        for op in make_workload(dataset, "insert", cls, count=OPS_PER_CLASS):
            outcome = updater.apply_op(op)
            accepted += outcome.accepted
            total += 1
    assert accepted / total > 0.5
    assert updater.check_consistency() == []


def test_insertion_scales_linearly():
    totals = {}
    for n_c in SIZES:
        updater, dataset = fresh_updater(n_c)
        acc = run_insertions(updater, dataset, "W2")
        totals[n_c] = acc.foreground
    factor = SIZES[-1] / SIZES[0]
    growth = totals[SIZES[-1]] / max(totals[SIZES[0]], 1e-9)
    assert growth < factor ** 2
