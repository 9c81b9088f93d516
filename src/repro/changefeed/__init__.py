"""The public, versioned changefeed over one view's ΔV event stream.

This package is the way for external consumers — caches, materialized
replicas, audit logs — to follow a published view; the commit pipeline
(:mod:`repro.service.pipeline`) drives it, one sealed event per write
scope:

- :mod:`repro.changefeed.hub` — the per-view publisher
  (:class:`ChangefeedHub`): the replay buffer, the durable log append,
  fan-out;
- :mod:`repro.changefeed.consumer` — the handle
  (:class:`ChangefeedConsumer`): callback contract or blocking/pull
  iterator, resume bookkeeping;
- :mod:`repro.changefeed.buffer` — the bounded generation-indexed
  :class:`ReplayBuffer` with typed gap detection.

Entry point: :meth:`repro.service.ViewService.changefeed`.  The event
unit is the JSON-serializable :class:`~repro.views.events.ViewEvent`
(schema version :data:`~repro.views.events.SCHEMA_VERSION`), specified
normatively in ``docs/event-schema.md``.
"""

from repro.changefeed.buffer import ReplayBuffer
from repro.changefeed.consumer import ChangefeedConsumer
from repro.changefeed.hub import DEFAULT_RETENTION, ChangefeedHub
from repro.errors import ChangefeedError, EventDecodeError, ReplayGapError
from repro.views.events import SCHEMA_VERSION, EdgeRecord, ViewEvent

__all__ = [
    "ChangefeedConsumer",
    "ChangefeedError",
    "ChangefeedHub",
    "DEFAULT_RETENTION",
    "EdgeRecord",
    "EventDecodeError",
    "ReplayBuffer",
    "ReplayGapError",
    "SCHEMA_VERSION",
    "ViewEvent",
]
