"""The publisher side of the changefeed: one hub per published view.

The :class:`ChangefeedHub` turns the commit pipeline's sealed events
into the stable public feed.  It registers nowhere: the pipeline calls
:meth:`ChangefeedHub.stage` under the write lock and
:meth:`ChangefeedHub.deliver` after releasing it, once per write scope.

- retention starts **once**, on the first :meth:`ChangefeedHub.open`
  (or at construction of a durable service), and lasts for the life of
  the service — it must be continuous for replay to be trustworthy, and
  until then nobody consumes events, so none are built;
- consumers see exactly one event per write scope that committed
  something: a batch arrives as the one coalesced event of its ops, at
  its last op's generation;
- every published event lands in the generation-indexed
  :class:`~repro.changefeed.buffer.ReplayBuffer` *before* fan-out, so a
  consumer attached with ``since=`` can never miss an event between its
  replay and its first live delivery (staging and attach both happen
  under the writer's critical section).

Generations are the updater's version counter: strictly increasing,
not necessarily dense (failed commits bump without publishing; batches
publish once).  ``open(since=g)`` means "I have processed every event
with generation ≤ g" — the hub replays the retained events after ``g``
and raises :class:`~repro.errors.ReplayGapError` when eviction has made
that impossible.
"""

from __future__ import annotations

import threading

from repro.changefeed.buffer import ReplayBuffer
from repro.changefeed.consumer import ChangefeedConsumer
from repro.errors import ChangefeedError, ReplayGapError
from repro.metrics.registry import MetricsRegistry
from repro.views.events import ViewEvent

#: Default number of published events retained for replay.
DEFAULT_RETENTION = 256


class _Staged:
    """A staged publication: the sealed event + its fan-out snapshot."""

    __slots__ = ("event", "consumers")

    def __init__(self, event: ViewEvent, consumers: list):
        self.event = event
        self.consumers = consumers


class ChangefeedHub:
    """Publishes one view's ΔV event stream to attached consumers."""

    def __init__(self, updater, retention: int = DEFAULT_RETENTION, wal=None,
                 metrics=None):
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        metrics = metrics or MetricsRegistry()
        self.updater = updater
        self.retention = retention
        self.wal = wal
        """The durable log (:class:`~repro.wal.log.WriteAheadLog`) every
        staged event is appended to, or ``None``.  With a WAL the replay
        floor extends below the in-memory buffer: ``open(since=g)``
        falls back to the log when ``g`` predates the buffer."""
        self.checkpoint_fn = None
        """Callback (set by the façade) that cuts a WAL checkpoint of
        the writer's current state; invoked under the writer's critical
        section when the log's interval elapses."""
        self._members = threading.Lock()
        self._consumers: list[ChangefeedConsumer] = []
        self._buffer: ReplayBuffer | None = None
        # Series handles (``labels()`` materializes each at 0 in the
        # exposition); ``stats()`` reads them back.
        self._m_published = metrics.counter(
            "repro_events_published_total",
            "Events published to the changefeed (coalesced batches "
            "count once).",
        ).labels()
        self._m_overflows = metrics.counter(
            "repro_consumer_overflows_total",
            "Pull consumers detached for exceeding their queue bound.",
        ).labels()
        self._m_parks = metrics.counter(
            "repro_consumer_parks_total",
            "Deliveries parked waiting for a full pull queue to drain.",
        ).labels()
        self._m_callback_errors = metrics.counter(
            "repro_consumer_callback_errors_total",
            "Live deliveries that raised and detached their consumer.",
        ).labels()

    # -- attachment -----------------------------------------------------------------

    @property
    def attached(self) -> bool:
        """Whether the hub retains events (true from the first open on;
        from then on the pipeline counts it as a consumer)."""
        return self._buffer is not None

    @property
    def floor(self) -> int:
        """Oldest resumable generation (the attach generation until the
        replay buffer evicts; with a WAL, the log's compaction floor —
        whichever reaches further back)."""
        if self._buffer is None:
            base = self.updater.generation
        else:
            base = self._buffer.floor
        if self.wal is not None:
            return min(base, self.wal.floor)
        return base

    def _ensure_attached(self) -> None:
        if self._buffer is None:
            # Attach exactly once and never detach: replay is only
            # trustworthy while retention is continuous.  Events before
            # the first open are unobservable (floor = attach version).
            self._buffer = ReplayBuffer(
                self.retention, floor=self.updater.generation
            )

    # -- the consumer-facing API -----------------------------------------------------

    def validate_since(self, since: int | None) -> None:
        """Raise exactly what :meth:`open` would for this resume point.

        Side-effect free: a failed ``changefeed()`` call must not
        switch on per-commit event construction for the life of the
        service.
        """
        if since is None:
            return
        current = self.updater.generation
        if since > current:
            raise ChangefeedError(
                f"since={since} is ahead of the feed (current "
                f"generation is {current})"
            )
        if since < self.floor:
            raise ReplayGapError(since=since, floor=self.floor)

    def open(
        self,
        since: int | None = None,
        on_event=None,
    ) -> ChangefeedConsumer:
        """Attach a consumer, optionally replaying from ``since``.

        Callers must hold the writer side of the service lock (the
        :class:`~repro.service.facade.ViewService` façade does), which
        makes replay-then-live gapless: no commit can interleave between
        the replayed batch and the consumer joining the fan-out list.
        """
        self.validate_since(since)  # before the attach side effect
        self._ensure_attached()
        assert self._buffer is not None
        if since is None:
            replayed: list[ViewEvent] = []
            start = self.updater.generation
        elif self.wal is not None and since < self._buffer.floor:
            # The buffer has evicted this range but the durable log
            # still covers it (validate_since checked the WAL floor):
            # replay the logged wire-form events instead.  Identical
            # stream — the buffer and the log are appended together.
            replayed = self.wal.events_since(since)
            start = since
        else:
            replayed = self._buffer.since(since)
            start = since
        consumer = ChangefeedConsumer(
            self, on_event, generation=start,
            # Bound pull queues at twice the retention window — a
            # consumer lagging beyond another window on top of a full
            # replay could no longer resume via replay anyway.  A
            # log-backed replay can exceed the buffer window (the WAL
            # floor sits below the buffer's), so the bound must always
            # cover the attach batch itself plus one retention window
            # of live slack, or the attach would block on its own
            # replay and detach the consumer it is creating.
            max_pending=max(2 * self.retention,
                            len(replayed) + self.retention),
        )
        for event in replayed:
            consumer._deliver(event)
        with self._members:
            self._consumers.append(consumer)
        return consumer

    def _discard(self, consumer: ChangefeedConsumer) -> None:
        with self._members:
            if consumer in self._consumers:
                self._consumers.remove(consumer)

    def __len__(self) -> int:
        return len(self._consumers)

    # -- the publish path (writer's critical section) ---------------------------------

    def stage(self, event: ViewEvent):
        """Retain ``event`` and snapshot its fan-out list (under the lock).

        The half of publication that *must* stay in the writer's
        critical section: the replay-buffer append (so a consumer
        attaching right after the lock is released replays this event
        instead of missing it) and the consumer-list snapshot (so that
        same late consumer is not *also* delivered to live — no gaps, no
        duplicates).  Returns an opaque staging token for
        :meth:`deliver`, or ``None`` when the hub never attached.
        """
        if self._buffer is None:
            return None
        self._buffer.append(event)
        if self.wal is not None:
            self.wal.append(event)
            if self.wal.should_checkpoint() and self.checkpoint_fn is not None:
                # Still inside the writer's critical section: the store
                # and base database are at rest at this generation.
                self.checkpoint_fn()
        self._m_published.inc()
        with self._members:
            consumers = list(self._consumers)
        return _Staged(event, consumers)

    def deliver(self, staged) -> None:
        """Fan a staged event out to its snapshot of consumers.

        Runs *outside* the write lock, in commit order — the pipeline's
        ticket fence serializes concurrent publishers.
        """
        if staged is None:
            return
        event = staged.event
        for consumer in staged.consumers:
            try:
                if not consumer._deliver(event):
                    self._m_overflows.inc()
            except Exception as exc:
                # The commit already happened; letting a consumer bug
                # propagate here would tell the writer its (successful)
                # update failed.  Record and detach the consumer instead.
                consumer.error = exc
                self._m_callback_errors.inc()
                consumer.close()

    # -- full-queue accounting (called by consumers) ------------------------------

    def _on_park(self) -> None:
        """One delivery parked on a full pull queue."""
        self._m_parks.inc()

    # -- diagnostics ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe hub statistics (for ``service.stats()``)."""
        return {
            "attached": self.attached,
            "consumers": len(self._consumers),
            "events_published": int(self._m_published.value),
            "callback_errors": int(self._m_callback_errors.value),
            "overflows": int(self._m_overflows.value),
            "parks": int(self._m_parks.value),
            "retention": self.retention,
            "retained": len(self._buffer) if self._buffer else 0,
            "floor": self.floor,
            "durable": self.wal is not None,
        }
