"""Batch recomputation of the auxiliary structures (Table 1 baseline)."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex, build_index
from repro.views.store import ViewStore


@dataclass
class RecomputeTimings:
    """Wall-clock seconds to rebuild each structure from scratch."""

    topo_seconds: float
    reach_seconds: float
    topo: TopoOrder
    reach: ReachabilityIndex

    @property
    def total_seconds(self) -> float:
        return self.topo_seconds + self.reach_seconds


def recompute_structures(store: ViewStore) -> RecomputeTimings:
    """Rebuild ``L`` then ``M`` from the current store, timing each."""
    t0 = time.perf_counter()
    topo = TopoOrder.from_store(store)
    t1 = time.perf_counter()
    reach = build_index(store, topo)
    t2 = time.perf_counter()
    return RecomputeTimings(t1 - t0, t2 - t1, topo, reach)
