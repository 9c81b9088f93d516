"""Incrementally maintained XPath subscriptions (ΔV-driven).

- :mod:`repro.subscribe.delta` — the structured per-commit event model
  (:class:`ViewEvent` / :class:`EdgeRecord`);
- :mod:`repro.subscribe.deps` — per-step dependency extraction from the
  XPath AST, powering skip / suffix-restart decisions;
- :mod:`repro.subscribe.engine` — :class:`Subscription` and the
  :class:`SubscriptionRegistry` the commit pipeline maintains.

Public entry point: :meth:`repro.service.ViewService.subscribe`.
"""

from repro.subscribe.delta import (
    SCHEMA_VERSION,
    EdgeRecord,
    NodeRecord,
    ViewEvent,
    coalesce,
    node_records_for,
)
from repro.subscribe.deps import (
    QueryProfile,
    first_affected_step,
    profile_query,
)
from repro.subscribe.engine import Subscription, SubscriptionRegistry

__all__ = [
    "SCHEMA_VERSION",
    "EdgeRecord",
    "NodeRecord",
    "ViewEvent",
    "coalesce",
    "node_records_for",
    "QueryProfile",
    "first_affected_step",
    "profile_query",
    "Subscription",
    "SubscriptionRegistry",
]
