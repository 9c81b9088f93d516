"""The paper's core machinery (Sections 3.1–3.4 and the Fig. 3 pipeline).

- :mod:`repro.core.topo` — the topological order ``L`` (descendants
  before ancestors) with incremental moves (the reachability matrix
  ``M`` and Algorithm **Reach**, Fig. 4, are :mod:`repro.index`);
- :mod:`repro.core.dag_eval` — the demand-driven XPath evaluator on DAGs with
  side-effect detection (Section 3.2);
- :mod:`repro.core.translate` — Algorithms **Xinsert** / **Xdelete**
  (Figs. 5–6), translating ``ΔX`` to ``ΔV``;
- :mod:`repro.core.maintenance` — Algorithms **Δ(M,L)insert** /
  **Δ(M,L)delete** (Figs. 7–8), incremental maintenance of ``M`` and
  ``L`` plus the garbage-collection feed ``Δ'V``;
- the end-to-end framework, along the phases of Fig. 3:
  :mod:`repro.core.plan` (:class:`UpdatePlan`: validate → XPath →
  ``ΔX→ΔV`` → ``ΔV→ΔR``, Sections 2.4, 3.2, 3.3, 4),
  :mod:`repro.core.updater` (:class:`XMLViewUpdater`: owner of ``V``,
  ``L``, ``M``, generation and sink — apply, the Δ(M,L) repair pass,
  base-update propagation, the one generation-finished tail),
  :mod:`repro.core.outcome` (the report).
"""

from repro.core.topo import TopoOrder
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.translate import xinsert, xdelete
from repro.core.maintenance import maintain_delete, repair
from repro.core.updater import (
    PlanState,
    SideEffectPolicy,
    UpdateOutcome,
    UpdatePlan,
    XMLViewUpdater,
)

__all__ = [
    "TopoOrder",
    "DagXPathEvaluator",
    "EvalResult",
    "xinsert",
    "xdelete",
    "maintain_delete",
    "repair",
    "XMLViewUpdater",
    "UpdateOutcome",
    "UpdatePlan",
    "PlanState",
    "SideEffectPolicy",
]
