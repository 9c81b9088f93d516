"""The consumer handle returned by ``service.changefeed()``.

A :class:`ChangefeedConsumer` operates in exactly one of two modes,
chosen at creation time:

- **callback mode** (``changefeed(on_event=fn)``) — ``fn(event)`` runs
  synchronously on the committing thread for every published event,
  during the pipeline's *publish* phase: after subscription maintenance
  for the event's generation and after the write lock is released, so
  the callback never extends the writer's critical section.  It must
  not write back into the service — a nested
  ``apply``/``plan``/``apply_base_update`` raises
  :class:`~repro.errors.PlanError` (the pipeline's delivery guard, not
  the lock, enforces this, so a nested commit cannot publish events out
  of order mid-delivery).  Replayed events are delivered through the
  same callback during attach, under the write lock that ``changefeed()``
  holds.  A live delivery that *raises* detaches the
  consumer (the exception lands on :attr:`ChangefeedConsumer.error`)
  instead of failing the writer's already-committed update.
- **pull mode** (the default) — events queue on the consumer;
  :meth:`ChangefeedConsumer.next_event` blocks (with optional timeout),
  :meth:`ChangefeedConsumer.events` drains without blocking, and
  iterating the consumer yields events until :meth:`close`.  Pull mode
  decouples the consumer's pace from the writer: queues are bounded at
  twice the hub's retention window, and at the bound delivery waits up
  to :data:`DEFAULT_BLOCK_TIMEOUT` seconds for the consumer to drain a
  slot; a consumer still full after that is detached (overflow sets
  :attr:`ChangefeedConsumer.error`; the queued backlog stays
  drainable) rather than wedging the publisher forever.  On the staged
  commit pipeline, delivery runs *outside* the writer's critical
  section, so a blocked delivery delays the publisher — not readers,
  and not the next writer's mutation.  No event is ever dropped from a
  queue: a consumer sees every event or is detached.

Either way the consumer tracks :attr:`ChangefeedConsumer.generation` —
the generation of the last event it has *taken* — which is exactly the
value to hand back as ``changefeed(since=...)`` after a disconnect.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import ChangefeedError
from repro.views.events import ViewEvent

#: How long a delivery to a full pull queue waits for space before
#: giving up and detaching the consumer (seconds).
DEFAULT_BLOCK_TIMEOUT = 1.0


class ChangefeedConsumer:
    """One attached consumer of a view's published event stream."""

    def __init__(
        self, hub, on_event=None, generation: int = 0,
        max_pending: int = 0,
    ):
        self._hub = hub
        self._callback = on_event
        self._queue: deque[ViewEvent] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._max_pending = max_pending
        """Pull-queue bound (0 = unbounded); the hub passes its
        retention window — beyond it, replay could not cover the
        backlog either, so the consumer is detached on overflow."""
        self.generation = generation
        """Generation of the last event taken (callback mode: delivered);
        pass as ``since=`` to resume after a disconnect."""
        self.delivered = 0
        """Events handed to this consumer (both modes), replay included."""
        self.error: BaseException | None = None
        """Why this consumer was force-detached, when it was: a live
        callback delivery raised (the hub records the exception rather
        than letting a consumer bug poison the writer's commit path),
        or a pull queue overflowed its bound."""

    # -- delivery (called by the hub) ---------------------------------------------

    def _deliver(self, event: ViewEvent) -> bool:
        """Hand one event over; ``False`` means the pull queue
        overflowed and the consumer detached itself."""
        if self._callback is not None:
            if self._closed:
                return True
            self.delivered += 1
            self._callback(event)
            self.generation = event.generation
            return True
        overflowed = False
        with self._cond:
            if self._closed:
                return True
            if self._max_pending and len(self._queue) >= self._max_pending:
                # Give the consumer a chance to drain a slot
                # (next_event()/events() notify on take).
                self._hub._on_park()
                timeout = DEFAULT_BLOCK_TIMEOUT
                self._cond.wait_for(
                    lambda: self._closed
                    or len(self._queue) < self._max_pending,
                    timeout=timeout,
                )
                if self._closed:
                    return True
                if len(self._queue) >= self._max_pending:
                    self.error = ChangefeedError(
                        f"pull consumer fell behind: {len(self._queue)} "
                        f"events pending reached the queue bound of "
                        f"{self._max_pending} "
                        f"and no slot freed within "
                        f"{timeout}s; drain the backlog, "
                        f"then reattach with "
                        f"changefeed(since=<last generation>)"
                    )
                    self._closed = True
                    self._cond.notify_all()
                    overflowed = True
            if not overflowed:
                self.delivered += 1
                self._queue.append(event)
                self._cond.notify_all()
                return True
        self._hub._discard(self)
        return False

    # -- the pull contract ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has detached this consumer."""
        return self._closed

    @property
    def pending(self) -> int:
        """Queued events not yet taken (always 0 in callback mode)."""
        with self._cond:
            return len(self._queue)

    def _require_pull(self, what: str) -> None:
        if self._callback is not None:
            raise ChangefeedError(
                f"{what} is a pull-mode operation; this consumer was "
                "opened with on_event= and receives events through its "
                "callback"
            )

    def next_event(self, timeout: float | None = None) -> ViewEvent | None:
        """Take the next event, blocking until one arrives.

        Returns ``None`` when ``timeout`` (seconds) elapses with no
        event, or — without blocking — when the consumer is already
        closed and its queue is drained.  A :meth:`close` that lands
        *while this call is blocked* raises
        :class:`~repro.errors.ChangefeedError` instead, so a puller
        parked on a long timeout learns about the close immediately
        rather than timing out into an indistinguishable ``None``.
        """
        self._require_pull("next_event()")
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait_for(
                    lambda: self._queue or self._closed, timeout=timeout
                )
                if not self._queue and self._closed:
                    raise ChangefeedError(
                        "consumer closed while blocked in next_event()"
                    )
            if not self._queue:
                return None
            event = self._queue.popleft()
            self.generation = event.generation
            # A delivery may be parked on a full queue.
            self._cond.notify_all()
            return event

    def events(self) -> list[ViewEvent]:
        """Drain every queued event without blocking (may be empty)."""
        self._require_pull("events()")
        with self._cond:
            drained = list(self._queue)
            self._queue.clear()
            if drained:
                self.generation = drained[-1].generation
                # A delivery may be parked on a full queue.
                self._cond.notify_all()
            return drained

    def __iter__(self):
        """Yield events as they arrive until the consumer is closed."""
        self._require_pull("iteration")
        while True:
            try:
                event = self.next_event()
            except ChangefeedError:
                # Closed while blocked: iteration ends normally.
                return
            if event is None:
                return
            yield event

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the feed (idempotent); wakes blocked pullers.

        Queued events already delivered remain drainable via
        :meth:`events`; a *subsequent* :meth:`next_event` returns
        ``None`` once the queue is empty, while a call blocked *right
        now* is woken with :class:`~repro.errors.ChangefeedError`.
        """
        if self._closed:
            return
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._hub._discard(self)

    def __enter__(self) -> "ChangefeedConsumer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "callback" if self._callback is not None else "pull"
        return (
            f"ChangefeedConsumer({mode} gen={self.generation} "
            f"delivered={self.delivered}{' closed' if self._closed else ''})"
        )
