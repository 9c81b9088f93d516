"""Ablation A-4: sensitivity to recursion depth.

The paper's headline capability is *recursive* view definitions; this
ablation isolates depth as the variable: a pure prerequisite chain of
increasing length, measuring publishing, Algorithm Reach (whose output
|M| is Θ(depth²) here — the matrix's worst case), the descendant-axis
evaluation, and a deep update.
"""

import pytest

from repro.atg.publisher import publish_store
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.workloads.chains import build_chain
from repro.ops import DeleteOp

DEPTHS = (50, 150, 300)


@pytest.mark.parametrize("depth", DEPTHS)
def test_publish_chain(benchmark, depth):
    atg, db = build_chain(depth=depth)
    store = benchmark(publish_store, atg, db)
    assert store.num_nodes == 1 + depth * 5


@pytest.mark.parametrize("depth", DEPTHS)
def test_reach_on_chain(benchmark, depth):
    atg, db = build_chain(depth=depth)
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    matrix = benchmark(build_index, store, topo)
    # Quadratic |M|: every level is an ancestor of every deeper level.
    assert len(matrix) > depth * depth / 2


@pytest.mark.parametrize("depth", DEPTHS)
def test_descendant_query_on_chain(benchmark, depth):
    atg, db = build_chain(depth=depth)
    updater = XMLViewUpdater(atg, db)
    target = f"K{depth - 1:04d}"
    result = benchmark(updater.evaluate_xpath, f"//course[cno={target}]")
    assert len(result.targets) == 1


def test_deep_update(benchmark):
    depth = 150

    def setup():
        atg, db = build_chain(depth=depth, students=1)
        updater = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        return (updater,), {}

    def work(updater):
        return updater.apply_op(DeleteOp(
            f"//course[cno=K{depth - 2:04d}]//student[ssn=T000]"
        ))

    outcome = benchmark.pedantic(work, setup=setup, rounds=2, iterations=1)
    assert outcome.accepted


def test_m_quadratic_in_depth():
    sizes = {}
    for depth in DEPTHS:
        atg, db = build_chain(depth=depth)
        store = publish_store(atg, db)
        topo = TopoOrder.from_store(store)
        sizes[depth] = len(build_index(store, topo))
    # 6x depth should give ~36x pairs (quadratic); allow slack.
    growth = sizes[DEPTHS[-1]] / sizes[DEPTHS[0]]
    ratio = DEPTHS[-1] / DEPTHS[0]
    assert ratio ** 1.5 < growth
