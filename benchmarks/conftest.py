"""Shared helpers for the benchmark suite.

Every benchmark mirrors one paper artifact (see DESIGN.md §3).  Sizes are
laptop-scale; the assertions check the *shape* of the results (linearity,
who wins, orderings), not absolute times.

Some benchmarks (the index ablation A-5, the service and subscription
figures) additionally record per-phase timings via
:func:`record_bench`; at session end the records are written to
``benchmarks/BENCH_index.json``, an untracked output (the gated ledger
is ``BENCHMARK.json`` / ``benchmarks/e2e/``).
"""

from __future__ import annotations

import json
import pathlib
import platform

import pytest

from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

SIZES = (120, 360)
OPS_PER_CLASS = 5

BENCH_INDEX_PATH = pathlib.Path(__file__).with_name("BENCH_index.json")

#: Per-phase timing records accumulated by index-backend benchmarks.
BENCH_RECORDS: list[dict] = []


def record_bench(
    experiment: str, backend: str, phase: str, seconds: float, **extra
) -> None:
    """Record one (experiment, backend, phase) timing for BENCH_index.json."""
    BENCH_RECORDS.append(
        {
            "experiment": experiment,
            "backend": backend,
            "phase": phase,
            "seconds": round(seconds, 6),
            **extra,
        }
    )


def pytest_sessionfinish(session, exitstatus):
    if not BENCH_RECORDS or exitstatus != 0:
        return  # never let a failed/partial run clobber good data
    # Merge with the previous run's file so running a benchmark subset
    # only refreshes its own (experiment, backend, phase) records.
    merged: dict[tuple, dict] = {}
    if BENCH_INDEX_PATH.exists():
        try:
            previous = json.loads(BENCH_INDEX_PATH.read_text())
            for rec in previous.get("records", []):
                merged[(rec["experiment"], rec["backend"], rec["phase"])] = rec
        except (ValueError, KeyError):
            merged = {}
    for rec in BENCH_RECORDS:
        merged[(rec["experiment"], rec["backend"], rec["phase"])] = rec
    payload = {
        "schema": "repro-bench-index/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "records": sorted(merged.values(), key=lambda r: (
            r["experiment"], r["backend"], r["phase"],
        )),
    }
    BENCH_INDEX_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


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
