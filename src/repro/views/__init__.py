"""Relational coding of DAG-compressed XML views (paper, Section 2.3).

The published view ``σ(I)`` is stored as a DAG with one node per
``(element type, $A)`` pair — the *subtree property* guarantees this is
lossless.  The DAG is held in a :class:`~repro.views.store.ViewStore`
(gen tables + ordered edge relations) and can be materialized into plain
relations (``gen_A`` / ``edge_A_B`` tables) for storage in an RDBMS.

:mod:`repro.views.registry` derives, for every starred ATG rule, the
*edge-view* SPJ definition over the base relations — the key-preserving
views that the Section-4 translation algorithms reason over.
"""

from repro.views.store import ViewStore, ViewDelta, EdgeOp
from repro.views.registry import EdgeView, EdgeViewRegistry, build_registry

__all__ = [
    "ViewStore",
    "ViewDelta",
    "EdgeOp",
    "EdgeView",
    "EdgeViewRegistry",
    "build_registry",
]
