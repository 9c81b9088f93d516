"""Incrementally maintained XPath subscriptions (ΔV-driven).

- the structured per-commit event model (:class:`ViewEvent` /
  :class:`EdgeRecord`), defined below ``core`` in
  :mod:`repro.views.events` and re-exported here;
- :mod:`repro.subscribe.deps` — per-step dependency extraction from the
  XPath AST and the one decision made per event and subscription:
  :func:`affects`, one walk over the query's stages that reads every
  cached level by membership after the commit (without that the
  ``subscribed_durable`` benchmark workload never skips an event), and
  the per-subscription trigger summary folded from the same stages,
  which answers most decisions before the walk;
- :mod:`repro.subscribe.engine` — :class:`Subscription` and the
  :class:`SubscriptionRegistry` the commit pipeline maintains: skip, or
  re-evaluate from the root with the seeded evaluator.

Public entry point: :meth:`repro.service.ViewService.subscribe`.
"""

from repro.subscribe.deps import (
    QueryProfile,
    affects,
    profile_query,
)
from repro.subscribe.engine import Subscription, SubscriptionRegistry
from repro.views.events import (
    SCHEMA_VERSION,
    EdgeRecord,
    NodeRecord,
    ViewEvent,
    coalesce,
    node_records_for,
)

__all__ = [
    "SCHEMA_VERSION",
    "EdgeRecord",
    "NodeRecord",
    "ViewEvent",
    "coalesce",
    "node_records_for",
    "QueryProfile",
    "affects",
    "profile_query",
    "Subscription",
    "SubscriptionRegistry",
]
