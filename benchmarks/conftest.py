"""Shared helpers for the benchmark suite.

Every benchmark mirrors one paper artifact (see DESIGN.md §3).  Sizes are
laptop-scale; the assertions check the *shape* of the results (linearity,
who wins, orderings), not absolute times.

Nothing here writes a file: the gated ledger is ``BENCHMARK.json`` /
``benchmarks/e2e/``.
"""

from __future__ import annotations

import pytest

from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

SIZES = (120, 360)
OPS_PER_CLASS = 5


def fresh_updater(n_c: int, seed: int = 42):
    """A pristine dataset + updater (mutating benchmarks rebuild per round)."""
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    updater = XMLViewUpdater(
        dataset.atg,
        dataset.db,
        side_effect_policy=SideEffectPolicy.PROPAGATE,
        strict=False,
    )
    return updater, dataset


@pytest.fixture(scope="session")
def readonly_updaters():
    """Session-cached updaters for read-only benchmarks."""
    return {n: fresh_updater(n) for n in SIZES}
