"""Measuring the fine-vs-coarse crossover for subscription maintenance.

Per event the registry has two regimes:

- **fine** — one digest of the event (its edges' parents, its edges by
  type, and on demand one OR of the parents' ancestor rows), met
  against every standing subscription's trigger summary; a
  subscription it meets has its edges scanned against its stages'
  patterns (``affects``: cost ∝ |edges| × |patterns|),
  and either way the reward is skips;
- **coarse** — skip the scan and fully re-evaluate every subscription
  (cost independent of |edges|).

For small events fine wins by orders of magnitude (that is the whole
subscription story); past some edge-list size the scan alone costs more
than re-evaluating, so the registry degrades such events to coarse —
the ROADMAP's "cost-based fallback", ``SubscriptionRegistry.coarse_threshold``.

This benchmark measures both regimes against synthetic events of
growing size (worst-case non-matching edges: the scan never
short-circuits), finds the measured crossover, and sanity-checks that the shipped default
(:data:`repro.subscribe.engine.DEFAULT_COARSE_THRESHOLD`) is within an
order of magnitude of the measurement — thresholds should be measured,
not guessed, but they also should not flap per machine.
"""

from __future__ import annotations

import time

import pytest

from repro.service import ViewConfig, open_view
from repro.subscribe.engine import DEFAULT_COARSE_THRESHOLD
from repro.views.events import EdgeRecord, ViewEvent
from repro.workloads import make_query_set
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

N_QUERIES = 16
SIZES = (4, 16, 64, 256, 1024)
REPEATS = 5


def _service():
    dataset = build_synthetic(SyntheticConfig(n_c=240, seed=7))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    for query in make_query_set(dataset, count=N_QUERIES):
        service.subscribe(query)
    return service


def _event(service, n_edges: int) -> ViewEvent:
    """A fine event of ``n_edges`` worst-case (never-matching) edges.

    Unmatched edge types never short-circuit: every edge hangs off the
    root, which every anchored subscription's summary lists, so each
    of those scans every edge against every pattern — the regime the
    threshold guards against.  (A leading ``//`` subscription's summary
    holds only its legs' types and the nodes below its first seeded
    level, so these events miss it and it is skipped without a scan.)
    The generation matches the current one so the maintained
    subscriptions stay consistent for the next measurement.
    """
    return ViewEvent(
        generation=service.updater.generation,
        edges=[
            EdgeRecord("insert", "zz_parent", "zz_child", 0, i)
            for i in range(n_edges)
        ],
        reason="synthetic",
    )


def _measure_regime(service, n_edges: int, coarse: bool) -> float:
    registry = service.subscriptions
    registry.coarse_threshold = 0 if coarse else 10**9
    best = float("inf")
    for _ in range(REPEATS):
        event = _event(service, n_edges)
        start = time.perf_counter()
        registry.apply_batched(event)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.perf
def test_crossover_measured_and_recorded():
    """Wall-clock regimes compared head to head (flaky on noisy shared
    runners, hence the perf marker)."""
    service = _service()
    crossover = None
    for n_edges in SIZES:
        fine = _measure_regime(service, n_edges, coarse=False)
        coarse = _measure_regime(service, n_edges, coarse=True)
        if crossover is None and fine > coarse:
            crossover = n_edges
    # Scanning a huge never-matching event must eventually lose to one
    # re-evaluation per subscription — otherwise the fallback is moot.
    assert crossover is not None, (
        f"fine scan never crossed coarse re-eval up to {SIZES[-1]} edges"
    )
    # The shipped default sits within an order of magnitude of the
    # measured crossover (machine-dependent, so keep the band wide).
    assert crossover / 16 <= DEFAULT_COARSE_THRESHOLD <= crossover * 16, (
        f"DEFAULT_COARSE_THRESHOLD={DEFAULT_COARSE_THRESHOLD} is far from "
        f"the measured crossover {crossover}"
    )


def test_fallback_keeps_results_correct_at_scale():
    """A real bulk batch big enough to trip the default threshold still
    leaves every subscription equal to a fresh evaluation."""
    from repro.workloads import make_workload

    dataset = build_synthetic(SyntheticConfig(n_c=240, seed=11))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    service.subscriptions.coarse_threshold = 8
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=8)]
    ops = make_workload(dataset, "delete", "W2", count=6)
    service.apply(ops)  # one batch: a wide coalesced event
    stats = service.subscriptions.stats()
    for sub in subs:
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        )
    # The coalesced event exceeds the configured threshold, so the
    # fallback must actually have engaged — for every subscription.
    assert stats["coarse_fallbacks"] == len(subs), stats
