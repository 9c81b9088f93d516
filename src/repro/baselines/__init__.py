"""Baselines and comparators for the evaluation.

- :mod:`repro.baselines.recompute` — batch recomputation of ``L`` and
  ``M`` (the "Recomputation" columns of Table 1);
- :mod:`repro.baselines.naive_reach` — transitive closure without the
  topological-order dynamic programming (the ``O(|V|² log |V|)``
  approach Algorithm Reach improves on, Section 3.1);
- :mod:`repro.baselines.set_index` — the paper's ``M`` as a dict of
  ``set`` rows, the reference the bitset index is tested against;
- :mod:`repro.baselines.minimal` — the (NP-complete, Theorem 3) minimal
  view deletion problem: exact small-instance solver + greedy set-cover
  heuristic, the A-3 comparator of Algorithm delete;
- :mod:`repro.baselines.keypres` — the key-preservation condition on SPJ
  views (Section 4.1), checked via the equality closure of the selection
  condition, independently of how the registry builds its edge views.

The uncompressed tree that Fig. 10(b) and the A-2 ablation compare with
is :func:`repro.atg.publisher.publish_tree` plus
:func:`repro.xpath.tree_eval.evaluate_on_tree`.
"""

from repro.baselines.recompute import recompute_structures, RecomputeTimings
from repro.baselines.naive_reach import naive_reachability, squaring_reachability
from repro.baselines.set_index import SetReachabilityIndex

__all__ = [
    "recompute_structures",
    "RecomputeTimings",
    "naive_reachability",
    "squaring_reachability",
    "SetReachabilityIndex",
]
