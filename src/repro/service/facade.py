"""The plan/commit ``ViewService`` façade over one published view.

``repro.open_view(atg, db, config=ViewConfig(...))`` is the public front
door of the system: it publishes the view once and returns a service
whose write path is the typed operation algebra (:mod:`repro.ops`) and
whose read path (:meth:`ViewService.xpath`, :meth:`ViewService.xml_tree`)
is safe to call from other threads while updates — including their
"background" Δ(M,L) maintenance — are in flight, via a write-preferring
readers–writer lock.

Two write protocols:

- ``service.apply(op)`` — translate + apply in one call; a list of ops
  is one write scope (one lock hold, one coalesced event) in which each
  op commits, and repairs ``M`` and ``L``, as a single op does;
- ``plan = service.plan(op)`` — run the paper's foreground phases only,
  inspect ``plan.targets`` / ``plan.side_effects`` / ``plan.delta_v`` /
  ``plan.delta_r`` / ``plan.timings``, then ``plan.commit()`` (identical
  ΔV/ΔR to ``apply``) or ``plan.abort()`` (state stays byte-identical).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable

from repro.atg.model import ATG
from repro.changefeed.consumer import ChangefeedConsumer
from repro.changefeed.hub import ChangefeedHub
from repro.core.dag_eval import EvalResult
from repro.core.updater import (
    PlanState,
    UpdateOutcome,
    UpdatePlan,
    XMLViewUpdater,
)
from repro.errors import ReproError
from repro.metrics import MetricsRegistry, render_prometheus
from repro.ops import UpdateOperation, op_from_dict
from repro.relational.database import Database
from repro.service.config import ViewConfig
from repro.service.pipeline import CommitPipeline
from repro.service.rwlock import RWLock
from repro.subscribe.engine import Subscription, SubscriptionRegistry
from repro.views.snapshot import Snapshot
from repro.wal.log import WriteAheadLog
from repro.wal.recover import recover_state
from repro.xmltree.tree import XMLNode
from repro.xpath.ast import XPath
from repro.xpath.parser import parse_xpath

#: The façade's live levels: ``_levels()`` key → gauge (name, help).
_LEVEL_GAUGES = {
    "generation": ("repro_generation", "Current committed view generation."),
    "nodes": ("repro_view_nodes", "Nodes in the view store."),
    "edges": ("repro_view_edges", "Edges in the view store."),
    "subscriptions": ("repro_subscriptions_active", "Standing subscriptions."),
    "consumers": (
        "repro_changefeed_consumers", "Attached changefeed consumers."
    ),
}


class ViewService:
    """Thread-safe plan/commit façade over one :class:`XMLViewUpdater`.

    Construct via :func:`open_view`.  All mutation goes through typed
    operations; reads take the shared side of the service lock and are
    safe during concurrent updates and background maintenance.
    """

    def __init__(
        self,
        atg: ATG,
        db: Database,
        config: ViewConfig | None = None,
        wal_fs=None,
    ):
        self.config = config or ViewConfig()
        self._lock = RWLock()
        # One registry for the whole service; every component below
        # registers its instruments here, so ``service.metrics()`` /
        # ``metrics_text()`` expose a single coherent surface.
        self.metrics_registry = MetricsRegistry()
        self._m_ops = self.metrics_registry.counter(
            "repro_ops_total",
            "Update operations applied through the service, by kind "
            "and acceptance.",
        )
        self._op_series: dict = {}  # (kind, accepted) -> series
        self._m_xpath = self.metrics_registry.histogram(
            "repro_xpath_seconds",
            "XPath read-path evaluation latency (lock wait included).",
        )
        # With ``wal_dir`` set, open (or create) the durable changefeed
        # log first: a non-empty log *recovers* the exact last-durable
        # state — checkpoint restore + record replay — instead of
        # publishing the view fresh from the base tables (whose node
        # ids would not match the logged event stream).
        self.wal = None
        recovered = None
        if self.config.wal_dir is not None:
            self.wal = WriteAheadLog(
                self.config.wal_dir,
                fsync=self.config.wal_fsync,
                segment_bytes=self.config.wal_segment_bytes,
                checkpoint_every=self.config.wal_checkpoint_every,
                keep_checkpoints=self.config.wal_keep_checkpoints,
                fs=wal_fs,
                metrics=self.metrics_registry,
            )
            recovered = recover_state(atg, db, self.wal)
        recovered_store, recovered_generation = recovered or (None, 0)
        self.updater = XMLViewUpdater(
            atg,
            db,
            side_effect_policy=self.config.policy,
            strict=self.config.strict,
            store=recovered_store,
            # New commits extend the logged generation sequence.
            generation=recovered_generation,
        )
        self.subscriptions = SubscriptionRegistry(
            self.updater, self._lock, metrics=self.metrics_registry
        )
        # (The hub does not lock internally: changefeed() holds the
        # service write lock across attach, and staging runs inside
        # the writer's critical section.)
        self.changefeeds = ChangefeedHub(
            self.updater,
            retention=self.config.changefeed_retention,
            wal=self.wal,
            metrics=self.metrics_registry,
        )
        # The staged commit pipeline (plan → mutate → maintain →
        # publish) installs itself as the updater's sink: the one
        # dispatcher of commit events.  It builds them only while a
        # subscription stands or the hub retains; registry maintenance
        # runs before changefeed staging, and delivery happens after
        # the lock is released (see docs/architecture.md).
        self.pipeline = CommitPipeline(
            self._lock, self.updater, self.subscriptions,
            self.changefeeds, metrics=self.metrics_registry,
        )
        if self.wal is not None:
            # A durable service starts retention at construction (not
            # on the first changefeed() call) so every commit from here
            # on is logged.  The initial checkpoint makes the replay
            # floor point at a live checkpoint from generation 0.
            self.changefeeds.checkpoint_fn = self._wal_checkpoint
            self.changefeeds._ensure_attached()
            if recovered is None:
                self._wal_checkpoint()

    def _wal_checkpoint(self) -> None:
        """Cut a WAL checkpoint of the current at-rest state.

        Runs inside the writer's critical section (the hub invokes it
        from :meth:`~repro.changefeed.hub.ChangefeedHub.stage`, or
        ``__init__`` calls it before the service is shared), so the
        store and base database are consistent at the current
        generation.  The checkpoint is a replication snapshot whose
        ``base`` holds the rows: what recovery resumes from, and what
        :meth:`~repro.replica.view.ReplicaView.from_wal` bootstraps from.
        """
        self.wal.write_checkpoint(
            Snapshot.capture(
                self.updater.store,
                generation=self.updater.generation,
                config=self.config.to_dict(),
                base=self.updater.db.export_state(),
            )
        )

    def close(self) -> None:
        """Stop taking writes; flush and release the durable log, if any.

        Idempotent.  With ``wal_dir`` set, ``close()`` fsyncs the active
        segment per the fsync policy and drops cached descriptors.  The
        service stays readable (``xpath``, ``snapshot()``, ``stats()``),
        and every later write raises
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._lock.write():
            self.pipeline.closed = True
            if self.wal is not None:
                self.wal.close()

    def __enter__(self) -> "ViewService":
        """Context-manager entry (no side effects)."""
        return self

    def __exit__(self, *exc) -> bool:
        """Context-manager exit: :meth:`close`."""
        self.close()
        return False

    # -- write path ---------------------------------------------------------------

    def apply(
        self,
        op: UpdateOperation | dict | Iterable[UpdateOperation | dict],
    ) -> UpdateOutcome | list[UpdateOutcome]:
        """Translate and apply one op, or a batch of ops.

        Accepts op instances or their wire dicts.  A single op returns
        its :class:`UpdateOutcome`; a list returns the outcome list and
        runs in one :meth:`batch` scope: each op is planned and committed
        as a single op is, ``BaseUpdateOp`` included, and subscribers,
        the changefeed and the WAL see one coalesced event.

        Under ``strict`` config a rejected op raises out of the batch;
        the ops before it stay committed, and their outcomes (whose
        ``delta_r`` feeds :meth:`undo`) ride on the exception as
        ``exc.batch_outcomes``.
        """
        if isinstance(op, (UpdateOperation, dict)):
            decoded = self._decode(op)
            with self.pipeline.scope() as record:
                # The same dispatch as updater.apply_op, with the two
                # foreground phases marked on the commit record.
                with record.phase("plan"):
                    plan = self.updater.plan(decoded)
                if plan.state is PlanState.REJECTED:
                    # strict mode raised inside plan()
                    return self._count_op(plan.outcome)
                return self._count_op(plan.commit())
        ops = [self._decode(item) for item in op]
        outcomes: list[UpdateOutcome] = []
        with self.batch() as batch:
            try:
                for decoded in ops:
                    outcomes.append(self._count_op(batch.apply(decoded)))
            except ReproError as exc:
                # Ops before the failure are committed; hand their
                # outcomes to the caller for inspection or undo.
                exc.batch_outcomes = outcomes
                raise
        return outcomes

    def _count_op(self, outcome: UpdateOutcome) -> UpdateOutcome:
        """Account one applied op on the metrics surface (pass-through)."""
        key = (outcome.kind, outcome.accepted)
        if key not in self._op_series:
            self._op_series[key] = self._m_ops.labels(
                kind=outcome.kind, accepted="true" if outcome.accepted else "false"
            )
        self._op_series[key].inc()
        return outcome

    def plan(self, op: UpdateOperation | dict) -> UpdatePlan:
        """Run the foreground phases; commit/abort later.

        The returned plan's ``commit()``/``abort()`` open a pipeline
        scope, so a held plan can be completed from any thread and its
        commit publishes through the same maintain/publish phases as
        :meth:`apply`.
        """
        decoded = self._decode(op)
        with self._lock.write():
            return self.updater.plan(decoded)

    def undo(self, outcome: UpdateOutcome):
        """Invert an accepted update's ΔR and re-synchronize the view."""
        with self.pipeline.scope():
            return self.updater.undo(outcome)

    @contextmanager
    def batch(self):
        """One write scope for many ops: ``with service.batch() as batch:``
        holds the write lock throughout, ``batch.apply(op)`` commits each
        op as a single op does, and the scope's events leave it as one."""
        with self.pipeline.scope():
            yield _BatchHandle(self.updater)

    # -- subscriptions -------------------------------------------------------------

    def subscribe(self, path: str | XPath) -> Subscription:
        """Register ``path`` as a live query and evaluate it eagerly.

        The returned :class:`~repro.subscribe.engine.Subscription` is
        maintained incrementally from the ΔV every committed op emits:
        ``sub.result()`` always equals a fresh :meth:`xpath` evaluation
        of the same path (as a sorted node-id tuple), usually without
        re-evaluating anything.  Maintenance happens inside the writer's
        critical section; ``result()`` takes the read side.  Call
        ``sub.close()`` to stop maintaining it.
        """
        with self._lock.write():
            return self.subscriptions.subscribe(path)

    # -- changefeed ----------------------------------------------------------------

    def changefeed(
        self,
        since: int | None = None,
        on_event=None,
    ) -> ChangefeedConsumer:
        """Attach a consumer to this view's published event stream.

        One JSON-serializable :class:`~repro.views.events.ViewEvent` per
        committed generation observable at rest (batches arrive as one
        coalesced event), specified in ``docs/event-schema.md``.

        ``since=g`` resumes after generation ``g``: retained events are
        replayed in order before any live delivery, gaplessly (attach
        holds the write lock).  A resume point older than the retention
        window raises :class:`~repro.errors.ReplayGapError`; one ahead
        of the feed raises :class:`~repro.errors.ChangefeedError`.
        ``since=None`` starts from now.  Events before the service's
        *first* ``changefeed()`` call are not retained — open the feed
        early (e.g. right after :func:`open_view`) if you need replay
        from generation 0.

        ``on_event=fn`` selects callback mode: ``fn(event)`` runs
        synchronously on the committing thread during the pipeline's
        *publish* phase — after subscription maintenance for the event's
        generation completed and after the write lock was released, so
        the callback never extends the critical section (and
        ``sub.result()``/``sub.delta()`` read consistently with the
        event).  Writing back into the service
        from the callback raises :class:`~repro.errors.PlanError`; a
        callback that raises is detached (``consumer.error``) rather
        than failing the commit.
        Without ``on_event`` the returned consumer is a pull handle:
        iterate it, or call ``next_event(timeout=...)`` / ``events()``;
        ``close()`` detaches.  Pull queues are bounded at twice the
        retention window; at the bound delivery waits up to
        :data:`~repro.changefeed.consumer.DEFAULT_BLOCK_TIMEOUT` seconds
        for the consumer to drain a slot and detaches it only if none
        frees up (the backlog stays drainable; ``consumer.error``
        explains how to reattach).  No event is dropped.
        """
        with self._lock.write():
            return self.changefeeds.open(since=since, on_event=on_event)

    # -- read path ----------------------------------------------------------------

    def xpath(self, path: str | XPath) -> EvalResult:
        """Evaluate an XPath on the current view (no update): ``r[[p]]``.

        The result carries ``targets`` and ``contexts`` only.  ``Ep(r)``
        and the side effects belong to an update and stay empty here;
        ``plan(op)`` previews them for an op without applying it.
        """
        start = time.perf_counter()
        try:
            parsed = parse_xpath(path) if isinstance(path, str) else path
            with self._lock.read():
                return self.updater.evaluator().evaluate_from(parsed)
        finally:
            self._m_xpath.observe(time.perf_counter() - start)

    def snapshot(self):
        """A durable, generation-stamped replication snapshot.

        Returns a :class:`~repro.views.snapshot.Snapshot` artifact —
        the complete store state plus config and provenance metadata,
        captured under the read lock so it is consistent with one
        generation.  ``snapshot.save(path)`` /
        ``Snapshot.load(path)`` round-trip it through a gzip'd JSON
        file; a :class:`~repro.replica.ReplicaView` bootstraps from it
        and resumes the changefeed at ``snapshot.generation``.

        .. note:: Before 0.7.0 this method returned the unfolded XML
           tree; that read moved to :meth:`xml_tree`.
        """
        with self._lock.read():
            return Snapshot.capture(
                self.updater.store,
                generation=self.updater.generation,
                config=self.config.to_dict(),
            )

    def check_consistency(self) -> list[str]:
        """Verify state against a fresh republish; [] means consistent.

        O(|V|)-ish — intended for tests, not per-update production use.
        """
        with self._lock.read():
            return self.updater.check_consistency()

    def _levels(self) -> dict[str, int]:
        """The point-in-time levels, the one read both ``stats()`` and a
        scrape start from (caller holds the read lock, so either
        describes one generation)."""
        store = self.updater.store
        return {
            "generation": self.updater.generation,
            "nodes": store.num_nodes,
            "edges": store.num_edges,
            "subscriptions": len(self.subscriptions),
            "consumers": len(self.changefeeds),
        }

    def _refresh_gauges(self) -> None:
        """Set each level's gauge (under the read lock)."""
        for key, value in self._levels().items():
            self.metrics_registry.gauge(*_LEVEL_GAUGES[key]).set(value)

    def stats(self) -> dict:
        """JSON-safe service statistics (store/M/L sizes, config)."""
        with self._lock.read():
            levels = self._levels()
            return {
                "generation": levels["generation"],
                "nodes": levels["nodes"],
                "edges": levels["edges"],
                "reach_pairs": len(self.updater.reach),
                "topo_len": len(self.updater.topo),
                "maintenance_runs": self.updater.maintenance_runs,
                # A constant: M has one implementation.  The key stays
                # because benchmarks/e2e/worker.py records it per run.
                "index_backend": "bitset",
                "subscriptions": self.subscriptions.stats(),
                "changefeed": self.changefeeds.stats(),
                "pipeline": self.pipeline.stats(),
                "wal": self.wal.stats() if self.wal is not None else None,
                "config": self.config.to_dict(),
            }

    def metrics(self) -> dict:
        """The metrics surface as a JSON-safe dict.

        Counters and histograms accumulate since construction; gauges
        (generation, store sizes, consumer counts) are refreshed at
        call time under the read lock.  See ``docs/observability.md``
        for the catalog.
        """
        with self._lock.read():
            self._refresh_gauges()
            return self.metrics_registry.to_dict()

    def metrics_text(self) -> str:
        """The metrics surface in Prometheus text exposition format.

        The output passes ``scripts/validate_metrics.py`` and is
        byte-deterministic for a given registry state (families sorted
        by name, series by label value).
        """
        with self._lock.read():
            self._refresh_gauges()
            return render_prometheus(self.metrics_registry)

    # -- delegation (read-mostly internals used by tests/benchmarks) ---------------

    @property
    def atg(self) -> ATG:
        """The view definition σ this service publishes."""
        return self.updater.atg

    @property
    def db(self) -> Database:
        """The base database I (mutated in place by accepted updates)."""
        return self.updater.db

    @property
    def store(self):
        """The DAG view store V (read-mostly delegation)."""
        return self.updater.store

    @property
    def topo(self):
        """The topological order L (read-mostly delegation)."""
        return self.updater.topo

    @property
    def reach(self):
        """The reachability index M (read-mostly delegation)."""
        return self.updater.reach

    @property
    def registry(self):
        """The edge-view registry (read-mostly delegation)."""
        return self.updater.registry

    @property
    def maintenance_runs(self) -> int:
        """Δ(M,L) repair passes run so far (one per committed view update)."""
        return self.updater.maintenance_runs

    def xml_tree(self) -> XMLNode:
        """The current XML view, unfolded to an (uncompressed) tree."""
        with self._lock.read():
            return self.updater.xml_tree()

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _decode(op: UpdateOperation | dict) -> UpdateOperation:
        if isinstance(op, UpdateOperation):
            return op
        return op_from_dict(op)


class _BatchHandle:
    """What ``with service.batch() as batch:`` yields."""

    def __init__(self, updater: XMLViewUpdater):
        self._updater = updater

    def apply(self, op: UpdateOperation | dict) -> UpdateOutcome:
        return self._updater.apply_op(ViewService._decode(op))


def open_view(
    atg: ATG,
    db: Database,
    config: ViewConfig | None = None,
    wal_fs=None,
) -> ViewService:
    """Publish ``σ(I)`` and open the plan/commit service façade over it.

    With ``config.wal_dir`` set, an existing log in that directory is
    *recovered* instead: the newest checkpoint is restored into ``db``
    and the store, the logged records past it are replayed, and the
    service resumes at the last durable generation (see
    ``docs/durability.md``).  ``wal_fs`` injects a file-system seam for
    the log (fault-injection tests); it is deliberately not part of
    :class:`~repro.service.config.ViewConfig`, which stays serializable.
    """
    return ViewService(atg, db, config=config, wal_fs=wal_fs)
