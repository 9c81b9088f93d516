"""Ablation A-5: the reachability index and its set-based reference.

Algorithm Reach (``recompute``) on ``BitsetReachabilityIndex`` — the one
class the product constructs — and on ``SetReachabilityIndex``, the
reference the lockstep tests check it against, over the Fig. 11
configurations: the bitset index must be ≥3× faster at the largest.
(The end-to-end runs of whole updaters on each, which settled the
choice, are recorded in ``docs/index-backends.md``.)

Also times a batch of N deletions against the same deletions applied
one by one: a batch runs each op's repair at its commit, so its whole
wall must stay that of its ops.
"""

from __future__ import annotations

import time

import pytest
from conftest import OPS_PER_CLASS, SIZES, fresh_updater

from repro.baselines import SetReachabilityIndex
from repro.index import BitsetReachabilityIndex
from repro.service import ViewConfig, open_view
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

#: The Fig. 11 |C| configurations (``DEFAULT_SIZES`` of
#: ``benchmarks/paper/experiments.py``); the largest is big enough that M
#: rows span many machine words.
FIG11_SIZES = (300, 1000, 3000)
LARGEST_FIG11_NC = FIG11_SIZES[-1]

BOTH = (BitsetReachabilityIndex, SetReachabilityIndex)


def _reach_seconds(n_c: int) -> dict[type, float]:
    """Best-of-3 Algorithm Reach per class on one Fig. 11 store; the
    two results must be the same M."""
    updater, _ = fresh_updater(n_c)
    store, topo = updater.store, updater.topo
    seconds, built = {}, {}
    for cls in BOTH:
        best = float("inf")
        for _ in range(3):
            index = cls()
            start = time.perf_counter()
            index.recompute(store, topo)
            best = min(best, time.perf_counter() - start)
        seconds[cls], built[cls] = best, index
    assert built[BitsetReachabilityIndex].equals(built[SetReachabilityIndex])
    assert built[BitsetReachabilityIndex].equals(updater.reach)
    return seconds


@pytest.mark.perf
def test_bitset_speedup_on_largest_fig11_config():
    seconds = _reach_seconds(LARGEST_FIG11_NC)
    ratio = seconds[SetReachabilityIndex] / seconds[BitsetReachabilityIndex]
    assert ratio >= 3.0, (
        f"bitset Algorithm Reach only {ratio:.2f}x faster than the "
        f"reference ({seconds})"
    )


@pytest.mark.perf
def test_two_way_ablation_across_fig11_sizes():
    """Algorithm Reach at every Fig. 11 size: both representations
    build the same M.

    No ratio assertions at the smaller sizes (constant factors dominate
    there); ``python -m benchmarks.paper`` reports how the two scale.
    """
    for n_c in FIG11_SIZES:
        _reach_seconds(n_c)


def test_backends_equal_on_benchmark_sizes():
    """Cheap guard at the pytest-benchmark sizes: after a few W2
    deletions the updater's M is the reference's M for its store."""
    for n_c in SIZES:
        updater, dataset = fresh_updater(n_c)
        for op in make_workload(dataset, "delete", "W2", count=3):
            updater.apply_op(op)
        reference = SetReachabilityIndex()
        reference.recompute(updater.store, updater.topo)
        assert updater.reach.equals(reference), f"diverged at n_c={n_c}"


def _service(n_c: int):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=42))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    return service, dataset


@pytest.mark.perf
def test_a_batch_costs_what_its_ops_cost_one_by_one():
    """N deletions one by one and as one batch: the same final state,
    and the batch's whole wall (every op's plan, commit and repair) at
    most 1.25x the one-by-one wall, best of three each."""
    n_c = SIZES[-1]
    _, dataset = _service(n_c)
    ops = [
        op
        for cls in ("W1", "W2", "W3")
        for op in make_workload(dataset, "delete", cls, count=OPS_PER_CLASS)
    ]
    walls = {"one by one": float("inf"), "batch": float("inf")}
    for _ in range(3):
        sequential, _ = _service(n_c)
        start = time.perf_counter()
        single = [sequential.apply(op).accepted for op in ops]
        walls["one by one"] = min(
            walls["one by one"], time.perf_counter() - start
        )
        batched, _ = _service(n_c)
        start = time.perf_counter()
        batch = [outcome.accepted for outcome in batched.apply(ops)]
        walls["batch"] = min(walls["batch"], time.perf_counter() - start)
        assert batch == single
        assert batched.store.digest() == sequential.store.digest()
        assert batched.reach.equals(sequential.reach)
    assert walls["batch"] <= walls["one by one"] * 1.25, walls
