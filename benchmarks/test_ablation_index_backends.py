"""Ablation: reachability-index backends on the Fig. 11 workloads.

Compares the reference ``sets`` backend against ``bitset`` on (a)
Algorithm Reach (``build_index``) over the paper's largest Fig. 11
configuration and (b) the Δ(M,L) maintenance phase across the W1–W3
deletion and insertion classes: the bitset backend must be ≥3× faster
than ``sets`` on the combined metric.

Also measures batched update sessions (one deferred maintenance pass
for N updates) against sequential per-update maintenance.

All timings land in ``BENCH_index.json`` via ``conftest.record_bench``.
"""

from __future__ import annotations

import time

import pytest
from conftest import OPS_PER_CLASS, SIZES, fresh_updater, record_bench

from repro.index import BACKENDS, build_index
from repro.relview.insert import reset_fresh_counter
from repro.workloads.queries import make_workload

#: The Fig. 11 |C| configurations (bench/experiments.py DEFAULT_SIZES);
#: the largest is big enough that M rows span many machine words.
FIG11_SIZES = (300, 1000, 3000)
LARGEST_FIG11_NC = FIG11_SIZES[-1]

ALL_BACKENDS = sorted(BACKENDS)


def _measure_backend(backend: str, n_c: int = LARGEST_FIG11_NC) -> dict:
    """Build + maintenance timings for one backend on one Fig. 11 config."""
    reset_fresh_counter()  # identical fresh constants per backend run
    updater, dataset = fresh_updater(n_c, index_backend=backend)
    store, topo = updater.store, updater.topo

    build_seconds = min(
        _timed(lambda: build_index(store, topo, backend)) for _ in range(3)
    )

    maintain_seconds = 0.0
    ops = accepted = 0
    for cls in ("W1", "W2", "W3"):
        for op in make_workload(dataset, "delete", cls, count=OPS_PER_CLASS):
            outcome = updater.apply_op(op)
            maintain_seconds += outcome.timings.get("maintain", 0.0)
            ops += 1
            accepted += outcome.accepted
        for op in make_workload(dataset, "insert", cls, count=3):
            outcome = updater.apply_op(op)
            maintain_seconds += outcome.timings.get("maintain", 0.0)
            ops += 1
            accepted += outcome.accepted
    return {
        "build": build_seconds,
        "maintain": maintain_seconds,
        "m_repair": updater.m_repair_seconds,
        "ops": ops,
        "accepted": accepted,
        "updater": updater,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _check_lockstep(results: dict) -> None:
    """All backends saw the same workload and ended on the same M."""
    sets_res = results["sets"]
    assert sets_res["accepted"] > 0
    for backend in results:
        if backend == "sets":
            continue
        assert results[backend]["ops"] == sets_res["ops"]
        assert results[backend]["accepted"] == sets_res["accepted"]
        assert results[backend]["updater"].reach.equals(
            sets_res["updater"].reach
        )


@pytest.mark.perf
def test_bitset_speedup_on_largest_fig11_config():
    """Combined metric: build + Δ(M,L) repairs."""
    results = {b: _measure_backend(b) for b in ALL_BACKENDS}
    for backend, res in results.items():
        record_bench(
            "fig11_largest",
            backend,
            "compute_reach",
            res["build"],
            n_c=LARGEST_FIG11_NC,
        )
        record_bench(
            "fig11_largest",
            backend,
            "maintain",
            res["maintain"],
            n_c=LARGEST_FIG11_NC,
            ops=res["ops"],
        )
        record_bench(
            "fig11_largest",
            backend,
            "m_repair",
            res["m_repair"],
            n_c=LARGEST_FIG11_NC,
            ops=res["ops"],
        )
    _check_lockstep(results)

    sets_total = results["sets"]["build"] + results["sets"]["maintain"]
    for backend in ALL_BACKENDS:
        if backend == "sets":
            continue
        total = results[backend]["build"] + results[backend]["maintain"]
        record_bench(
            "fig11_largest",
            backend,
            "speedup_vs_sets",
            0.0,
            ratio=round(sets_total / total, 2),
        )

    bits_total = results["bitset"]["build"] + results["bitset"]["maintain"]
    ratio = sets_total / bits_total
    assert ratio >= 3.0, (
        f"bitset compute_reach+maintenance only {ratio:.2f}x faster "
        f"(sets {sets_total:.4f}s vs bitset {bits_total:.4f}s)"
    )


@pytest.mark.perf
def test_two_way_ablation_across_fig11_sizes():
    """Per-backend build + maintenance rows at every Fig. 11 size.

    No ratio assertions at the smaller sizes (constant factors dominate
    there); the rows exist so ``BENCH_index.json`` shows how the
    backends scale, not just who wins at the largest configuration.
    """
    for n_c in FIG11_SIZES:
        results = {b: _measure_backend(b, n_c=n_c) for b in ALL_BACKENDS}
        _check_lockstep(results)
        for backend, res in results.items():
            record_bench(
                "fig11_scaling",
                backend,
                f"compute_reach:{n_c}",
                res["build"],
                n_c=n_c,
            )
            record_bench(
                "fig11_scaling",
                backend,
                f"maintain:{n_c}",
                res["maintain"],
                n_c=n_c,
                ops=res["ops"],
            )


def test_backends_equal_on_benchmark_sizes():
    """Cheap guard at the pytest-benchmark sizes: same M either way."""
    for n_c in SIZES:
        updaters = {}
        for backend in ALL_BACKENDS:
            reset_fresh_counter()
            updater, dataset = fresh_updater(n_c, index_backend=backend)
            for op in make_workload(dataset, "delete", "W2", count=3):
                updater.apply_op(op)
            updaters[backend] = updater
        for backend in ALL_BACKENDS:
            if backend == "sets":
                continue
            assert updaters[backend].reach.equals(updaters["sets"].reach), (
                f"{backend} diverged from sets at n_c={n_c}"
            )


@pytest.mark.perf
def test_batch_session_amortizes_maintenance():
    """One deferred pass for N deletions: same state, fewer repairs."""
    n_c = SIZES[-1]
    ops = None

    reset_fresh_counter()
    sequential, dataset = fresh_updater(n_c)
    ops = [
        op
        for cls in ("W1", "W2", "W3")
        for op in make_workload(dataset, "delete", cls, count=OPS_PER_CLASS)
    ]
    seq_maintain = 0.0
    for op in ops:
        seq_maintain += sequential.apply_op(op).timings.get("maintain", 0.0)

    reset_fresh_counter()
    batched, _ = fresh_updater(n_c)
    runs_before = batched.maintenance_runs
    with batched.batch() as session:
        for op in ops:
            batched.apply_op(op)
    batch_maintain = session.report.seconds

    assert batched.maintenance_runs - runs_before == 1
    assert session.report.maintenance_passes == 1
    assert batched.reach.equals(sequential.reach)

    backend = batched.index_backend
    record_bench(
        "batch_sessions", backend, "sequential_maintain", seq_maintain,
        n_c=n_c, ops=len(ops),
    )
    record_bench(
        "batch_sessions", backend, "batched_maintain", batch_maintain,
        n_c=n_c, ops=len(ops), passes=1,
    )
    # The single pass must not cost more than the N sequential passes
    # (generous slack: the win is structural, the guard is anti-regression).
    assert batch_maintain <= seq_maintain * 1.25
