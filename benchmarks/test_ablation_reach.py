"""Ablation A-1: Algorithm Reach (topological DP) vs naive closures.

Paper claim (Section 3.1): Reach computes M in O(n·|V|) versus the
O(|V|² log |V|) textbook alternative.
"""

import pytest

from conftest import SIZES
from repro.baselines.naive_reach import naive_reachability, squaring_reachability
from repro.index import build_index
from repro.core.topo import TopoOrder


@pytest.mark.parametrize("n_c", SIZES)
def test_algorithm_reach(benchmark, readonly_updaters, n_c):
    updater, _ = readonly_updaters[n_c]
    store = updater.store
    topo = TopoOrder.from_store(store)
    matrix = benchmark(build_index, store, topo)
    assert len(matrix) == len(updater.reach)


@pytest.mark.parametrize("n_c", SIZES)
def test_semi_naive_closure(benchmark, readonly_updaters, n_c):
    updater, _ = readonly_updaters[n_c]
    matrix = benchmark(squaring_reachability, updater.store)
    assert matrix.equals(updater.reach)


@pytest.mark.parametrize("n_c", SIZES[:1])
def test_per_node_dfs(benchmark, readonly_updaters, n_c):
    updater, _ = readonly_updaters[n_c]
    matrix = benchmark(naive_reachability, updater.store)
    assert matrix.equals(updater.reach)


def test_reach_beats_semi_naive(readonly_updaters):
    import time

    updater, _ = readonly_updaters[SIZES[-1]]
    store = updater.store
    topo = TopoOrder.from_store(store)
    t0 = time.perf_counter()
    build_index(store, topo)
    reach_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    squaring_reachability(store)
    naive_time = time.perf_counter() - t0
    assert reach_time < naive_time
