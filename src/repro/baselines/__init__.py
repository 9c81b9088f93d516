"""Baselines and comparators for the evaluation.

- :mod:`repro.baselines.recompute` — batch recomputation of ``L`` and
  ``M`` (the "Recomputation" columns of Table 1);
- :mod:`repro.baselines.naive_reach` — transitive closure without the
  topological-order dynamic programming (the ``O(|V|² log |V|)``
  approach Algorithm Reach improves on, Section 3.1);
- :mod:`repro.baselines.set_index` — the paper's ``M`` as a dict of
  ``set`` rows, the reference the bitset index is tested against;
- :mod:`repro.baselines.tree_updater` — uncompressed-tree processing:
  publish the full tree, evaluate XPath node-at-a-time, re-publish after
  updates (what a system without DAG compression would do).
"""

from repro.baselines.recompute import recompute_structures, RecomputeTimings
from repro.baselines.naive_reach import naive_reachability, squaring_reachability
from repro.baselines.set_index import SetReachabilityIndex
from repro.baselines.tree_updater import TreeUpdater

__all__ = [
    "recompute_structures",
    "RecomputeTimings",
    "naive_reachability",
    "squaring_reachability",
    "SetReachabilityIndex",
    "TreeUpdater",
]
