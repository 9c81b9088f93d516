"""Relational view updates under key preservation (paper, Section 4).

- :mod:`repro.relview.delete` — Algorithm delete (Fig. 9): PTIME
  translation of group view deletions to base-table deletions
  (Theorem 1);
- :mod:`repro.relview.insert` — Algorithm insert (Section 4.3 +
  Appendix A): tuple templates, symbolic evaluation over the U/A/B
  partitions, side-effect encoding, SAT solving, and ``ΔR`` extraction;
- :mod:`repro.relview.symbolic` — the tuple templates and derivations
  Algorithm insert evaluates symbolically.

The §4.1 key-preservation checker and Theorem 3's minimal deletion are
comparators, not steps of the pipeline: they live in
:mod:`repro.baselines`.
"""

from repro.relview.delete import translate_deletions, DeletionPlan
from repro.relview.insert import translate_insertions, InsertionPlan

__all__ = [
    "translate_deletions",
    "DeletionPlan",
    "translate_insertions",
    "InsertionPlan",
]
