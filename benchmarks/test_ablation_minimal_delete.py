"""Ablation A-3: Algorithm delete (PTIME, arbitrary source choice) vs the
NP-complete minimal-deletion problem (greedy + exact).

Paper context: Theorem 1 vs Theorem 3 — correctness is tractable,
minimality is not.  The benchmark shows the cost gap and that the greedy
cover stays close to the exact optimum on these instances.
"""

import pytest

from conftest import fresh_updater
from repro.core.translate import xdelete
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.baselines.minimal import (
    minimal_deletion_exact,
    minimal_deletion_greedy,
)
from repro.workloads.queries import make_workload

N_C = 120


@pytest.fixture(scope="module")
def deletion_instance():
    updater, dataset = fresh_updater(N_C)
    op = make_workload(dataset, "delete", "W1", count=1)[0]
    result = updater.evaluate_xpath(op.path)
    delta_v = xdelete(updater.store, result)
    rows = expand_view_deletions(
        updater.registry, updater.store, updater.db, delta_v
    )
    return updater, rows


def test_algorithm_delete(benchmark, deletion_instance):
    updater, rows = deletion_instance
    plan = benchmark(translate_deletions, updater.registry, updater.db, rows)
    assert len(plan.delta_r) >= 1


def test_greedy_minimal(benchmark, deletion_instance):
    updater, rows = deletion_instance
    delta = benchmark(
        minimal_deletion_greedy, updater.registry, updater.db, rows
    )
    assert delta is not None


def test_exact_minimal(benchmark, deletion_instance):
    updater, rows = deletion_instance
    delta = benchmark(
        minimal_deletion_exact, updater.registry, updater.db, rows
    )
    assert delta is not None


def test_greedy_close_to_exact(deletion_instance):
    updater, rows = deletion_instance
    greedy = minimal_deletion_greedy(updater.registry, updater.db, rows)
    exact = minimal_deletion_exact(updater.registry, updater.db, rows)
    algorithm = translate_deletions(updater.registry, updater.db, rows)
    assert len(exact) <= len(greedy) <= len(algorithm.delta_r) + 1
    assert len(greedy) <= 2 * max(1, len(exact))
