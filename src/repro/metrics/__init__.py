"""First-class runtime metrics for the view service (no dependencies).

Three pieces, one contract:

- :mod:`repro.metrics.registry` — :class:`MetricsRegistry` with
  counters, gauges and fixed-bucket latency histograms, threaded
  through :class:`~repro.service.facade.ViewService`,
  :class:`~repro.service.pipeline.CommitPipeline`,
  :class:`~repro.changefeed.hub.ChangefeedHub`,
  :class:`~repro.subscribe.engine.SubscriptionRegistry` and
  :class:`~repro.wal.log.WriteAheadLog`;
- :mod:`repro.metrics.render` — :func:`render_prometheus`, the text
  exposition format;
- :mod:`repro.metrics.validate` — :func:`validate_exposition`, the
  well-formedness/monotonicity checker behind
  ``scripts/validate_metrics.py``.

``service.metrics()`` snapshots the registry as a JSON-safe dict;
``service.metrics_text()`` renders the exposition document (what
``repro.apply --metrics`` prints).  The metric catalog lives in
``docs/observability.md``.
"""

from repro.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.metrics.render import render_prometheus
from repro.metrics.validate import parse_exposition, validate_exposition

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_prometheus",
    "parse_exposition",
    "validate_exposition",
]
