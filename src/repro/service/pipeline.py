"""The staged commit pipeline: plan → mutate → maintain → publish.

The :class:`CommitPipeline` is the one dispatcher of commit events: the
updater hands it every event it emits (it is the updater's *sink*, see
:meth:`~repro.core.updater.XMLViewUpdater.attach_sink`), and the
subscription registry and the changefeed hub are driven from here and
nowhere else.  A commit runs in four phases with per-phase wall-clock
accounting:

- **plan** — the foreground phases (validate → ΔR), still under the
  write lock so the plan cannot go stale before its commit;
- **mutate** — ΔR/ΔV application plus the Δ(M,L) repair; the emitted
  :class:`~repro.views.events.ViewEvent` stream is collected into the
  scope's :class:`CommitRecord`;
- **maintain** — the record is sealed (one generation-stamped event per
  write scope) and the subscription registry runs its
  *batched* decision pass (:meth:`SubscriptionRegistry.apply_batched`)
  — still under the lock, so readers can never observe generation ``g``
  with stale subscriptions;
- **publish** — changefeed fan-out and consumer delivery run *after the
  write lock is released*, fenced by a ticket so concurrent writers
  publish in commit order.  Consumers therefore only ever see generation
  ``g`` after maintenance for ``g`` completed, and a slow pull consumer
  (a full queue waits for it to drain) delays the *publisher*, not the
  whole critical section.

The service façade installs one pipeline per view; every write goes
through it.  An event emitted with no scope open on the thread — the
updater driven around the façade (a bare ``apply_base_update``) — gets
a scope of its own, so it takes the same seal → maintain → publish
tail.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.core.outcome import PhaseTimer
from repro.metrics.registry import MetricsRegistry
from repro.views.events import ViewEvent, coalesce

#: The four pipeline phases, in commit order.
PHASES = ("plan", "mutate", "maintain", "publish")


class CommitRecord:
    """One commit's sealed output: events, records and phase timings.

    While a pipeline scope is open on the writer thread, every event the
    updater emits is collected here.  :meth:`seal` folds them into a
    single generation-stamped event, after which the record is immutable
    in spirit: ``event`` is what maintenance consumed and fan-out
    delivered.
    """

    __slots__ = ("generation", "events", "event", "timings", "_sealed")

    def __init__(self) -> None:
        self.generation = -1
        """Generation of the sealed event (-1 until sealed non-empty)."""
        self.events: list[ViewEvent] = []
        """Events collected while the scope was open, in emit order
        (one per committed op: a batch's scope has several)."""
        self.event: ViewEvent | None = None
        """The sealed, coalesced event (``None`` = nothing published)."""
        self.timings: dict[str, float] = {}
        """Per-phase wall-clock seconds (plus ``lock_wait`` and
        ``lock_hold``)."""
        self._sealed = False

    def phase(self, name: str) -> PhaseTimer:
        """Time a code block into ``timings[name]`` (accumulating)."""
        return PhaseTimer(self.timings, name)

    def seal(self) -> ViewEvent | None:
        """Fold the collected events into one at-rest event.

        A single event passes through untouched; several coalesce.
        Returns the sealed event, or ``None`` when the scope emitted
        nothing (aborted plans, services nobody consumes).
        """
        if self._sealed:
            return self.event
        self._sealed = True
        if not self.events:
            return None
        if len(self.events) == 1:
            self.event = self.events[0]
        else:
            self.event = coalesce(self.events)
        self.generation = self.event.generation
        return self.event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self.event is not None else "open"
        return (
            f"CommitRecord({state} gen={self.generation} "
            f"events={len(self.events)})"
        )


class CommitPipeline:
    """Owns phase ordering, generation fencing and per-phase timings.

    One instance per :class:`~repro.service.facade.ViewService`,
    attached to the updater as its sink.  The façade routes every write
    through :meth:`scope`; the updater hands emitted events to
    :meth:`emit`.
    """

    def __init__(self, lock, updater, registry, hub, metrics=None):
        metrics = metrics or MetricsRegistry()
        self._lock = lock
        self.registry = registry
        self.hub = hub
        # Series handles, resolved here: every series exists (at 0)
        # from construction on, so a ``stats()`` read adds none.
        self._m_commits = metrics.counter(
            "repro_commits_total",
            "Completed write scopes (aborted plans included).",
        ).labels()
        self._m_sealed = metrics.counter(
            "repro_commit_records_sealed_total",
            "Write scopes that sealed and published a non-empty event.",
        ).labels()
        phase = metrics.histogram(
            "repro_commit_phase_seconds",
            "Per-phase commit latency (plan/mutate/maintain/publish).",
        )
        self._m_phase = {name: phase.labels(phase=name) for name in PHASES}
        self._m_lock_wait = metrics.histogram(
            "repro_lock_wait_seconds",
            "Time writers waited to acquire the write lock.",
        ).labels()
        self._m_lock_hold = metrics.histogram(
            "repro_lock_hold_seconds",
            "Time the write lock was held per commit (publish excluded).",
        ).labels()
        self._local = threading.local()
        self._turn_cond = threading.Condition()
        self._next_ticket = 0
        self._turn = 0
        self.last: dict = {}
        """The most recent scope's timings (debug/benchmark aid)."""
        self.closed = False  # set by ViewService.close(): writes raise
        updater.attach_sink(self)

    # -- the sink protocol (called by the updater) ---------------------------------

    @property
    def consuming(self) -> bool:
        """Whether anyone reads commit events: a standing subscription
        or a changefeed that has ever been opened.  While false the
        updater builds no events at all."""
        return len(self.registry) > 0 or self.hub.attached

    @property
    def delivering(self) -> bool:
        """Whether the calling thread is inside the publish phase (a
        changefeed callback): the updater rejects mutations from there."""
        return getattr(self._local, "delivering", False)

    def emit(self, event: ViewEvent) -> None:
        """Take one at-rest event from the updater.

        Collected into the scope open on the calling thread (scopes
        nest); with none open (the updater driven around the façade)
        the event gets a scope of its own and so the same
        maintain/publish tail.
        """
        with self.scope() as record:
            record.events.append(event)

    # -- the write scope -----------------------------------------------------------

    def scope(self) -> "_Scope":
        """Open a staged write section; ``with`` gives the :class:`CommitRecord`.

        Acquire the write lock, run the body (plan + mutate), then —
        still under the lock — seal the record, run the registry's
        batched maintenance and stage changefeed fan-out; release the
        lock and deliver to consumers in ticket (= commit) order.  The
        seal/maintain/publish tail runs even when the body raises
        (a strict-mode batch failure publishes the ops committed before
        it).

        Reentrant per thread: a nested scope (``service.apply`` inside
        ``service.batch()``, a plan's ``commit()`` inside either) joins
        the outer record.
        """
        return _Scope(self)

    # -- the publish phase (off the lock) --------------------------------------------

    def _take_ticket(self) -> int:
        with self._turn_cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            return ticket

    def _publish(self, ticket: int, staged) -> None:
        """Deliver in commit order, outside the writer's critical section.

        The ticket fence keeps concurrent writers' deliveries ordered;
        :attr:`delivering` is raised on this thread so a consumer
        callback writing back into the service raises
        :class:`~repro.errors.PlanError` (the lock is free by now — the
        guard, not the lock, enforces the no-reentrancy contract).
        """
        with self._turn_cond:
            self._turn_cond.wait_for(lambda: self._turn == ticket)
        self._local.delivering = True
        try:
            self.hub.deliver(staged)
        finally:
            self._local.delivering = False
            with self._turn_cond:
                self._turn += 1
                self._turn_cond.notify_all()

    # -- accounting -------------------------------------------------------------------

    def _account(self, record: CommitRecord) -> None:
        timings = record.timings
        hold = timings.get("lock_hold", 0.0)
        timings.setdefault(
            "mutate",
            max(
                0.0,
                hold
                - timings.get("plan", 0.0)
                - timings.get("maintain", 0.0),
            ),
        )
        self.last = {"generation": record.generation, **timings}
        self._m_commits.inc()
        if record.event is not None:
            self._m_sealed.inc()
        self._m_lock_wait.observe(timings.get("lock_wait", 0.0))
        self._m_lock_hold.observe(hold)
        for name in PHASES:
            if name in timings:
                self._m_phase[name].observe(timings[name])

    def stats(self) -> dict:
        """JSON-safe pipeline counters (for ``service.stats()``), read
        from the metrics registry: counts are the counters' values,
        seconds the histograms' sums."""
        return {
            "commits": int(self._m_commits.value),
            "records_sealed": int(self._m_sealed.value),
            "lock_wait_seconds": self._m_lock_wait.sum,
            "lock_hold_seconds": self._m_lock_hold.sum,
            "phase_seconds": {
                name: series.sum for name, series in self._m_phase.items()
            },
            "last": dict(self.last),
        }


class _Scope:
    """One :meth:`CommitPipeline.scope` entry; ``record`` is ``None`` when it
    joined an outer one."""

    __slots__ = ("pipeline", "record", "acquired")

    def __init__(self, pipeline: CommitPipeline):
        self.pipeline, self.record = pipeline, None

    def __enter__(self) -> CommitRecord:
        pipeline = self.pipeline
        local = pipeline._local
        if getattr(local, "depth", 0):
            local.depth += 1
            return local.record
        record = self.record = CommitRecord()
        wait_start = perf_counter()
        try:
            pipeline._lock.acquire_write()
        except BaseException:
            pipeline._account(record)
            raise
        acquired = self.acquired = perf_counter()
        record.timings["lock_wait"] = acquired - wait_start
        local.depth, local.record = 1, record
        return record

    def __exit__(self, *exc) -> None:
        pipeline, record = self.pipeline, self.record
        local = pipeline._local
        if record is None:
            local.depth -= 1
            return
        staged = ticket = None
        try:
            try:
                local.depth, local.record = 0, None
                event = record.seal()
                if event is not None:
                    with record.phase("maintain"):
                        pipeline.registry.apply_batched(event)
                    staged = pipeline.hub.stage(event)
                    if staged is not None and staged.consumers:
                        ticket = pipeline._take_ticket()
                record.timings["lock_hold"] = perf_counter() - self.acquired
            finally:
                pipeline._lock.release_write()
        finally:
            if ticket is not None:
                with record.phase("publish"):
                    pipeline._publish(ticket, staged)
            pipeline._account(record)
