"""The paper's core machinery (Sections 3.1–3.4 and the Fig. 3 pipeline).

- :mod:`repro.core.topo` — the topological order ``L`` (descendants
  before ancestors) with incremental moves;
- :mod:`repro.core.reachability` — the reachability matrix ``M`` and
  Algorithm **Reach** (Fig. 4);
- :mod:`repro.core.dag_eval` — the demand-driven XPath evaluator on DAGs with
  side-effect detection (Section 3.2);
- :mod:`repro.core.translate` — Algorithms **Xinsert** / **Xdelete**
  (Figs. 5–6), translating ``ΔX`` to ``ΔV``;
- :mod:`repro.core.maintenance` — Algorithms **Δ(M,L)insert** /
  **Δ(M,L)delete** (Figs. 7–8), incremental maintenance of ``M`` and
  ``L`` plus the garbage-collection feed ``Δ'V``;
- :mod:`repro.core.updater` — the end-to-end framework
  (:class:`~repro.core.updater.XMLViewUpdater`).
"""

from repro.core.topo import TopoOrder
from repro.core.reachability import ReachabilityMatrix, compute_reach
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.translate import xinsert, xdelete
from repro.core.maintenance import maintain_insert, maintain_delete
from repro.core.updater import (
    BatchReport,
    PlanState,
    SideEffectPolicy,
    UpdateOutcome,
    UpdatePlan,
    UpdateSession,
    XMLViewUpdater,
)

__all__ = [
    "TopoOrder",
    "ReachabilityMatrix",
    "compute_reach",
    "DagXPathEvaluator",
    "EvalResult",
    "xinsert",
    "xdelete",
    "maintain_insert",
    "maintain_delete",
    "XMLViewUpdater",
    "UpdateOutcome",
    "UpdatePlan",
    "PlanState",
    "UpdateSession",
    "BatchReport",
    "SideEffectPolicy",
]
