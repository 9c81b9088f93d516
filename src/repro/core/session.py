"""Batched update sessions (Section 3.4 in the paper's "background"
mode): N updates, one Δ(M,L) repair — :class:`UpdateSession`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.atg.publisher import SubtreeResult
from repro.errors import ReproError
from repro.views.events import ViewEvent
from repro.views.store import ViewDelta

if TYPE_CHECKING:
    from repro.core.updater import XMLViewUpdater


@dataclass
class BatchReport:
    """What one deferred maintenance pass (session flush) did."""

    inserts: int = 0
    deletes: int = 0
    removed_nodes: list[int] = field(default_factory=list)
    gc_delta: ViewDelta = field(default_factory=ViewDelta)
    maintenance_passes: int = 0
    seconds: float = 0.0


class UpdateSession:
    """Batched update session: N updates, one Δ(M,L) repair.

    Created by :meth:`XMLViewUpdater.batch`; use as a context manager::

        with updater.batch():
            updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
            updater.apply_op(DeleteOp("course[cno='CS240']/project"))

    Per accepted update the updater does the *cheap* ``L`` work eagerly
    (new-node placement and the paper's ``swap`` repair, which read the
    store's edges only, exactly as a single op does) and the session
    queues the ``M`` repair; meanwhile the XPath evaluator
    derives descendant regions from the store's edges, so mid-batch
    queries and updates see correct results.  :meth:`flush` — called
    automatically on exit, even when the block raises — runs the
    updater's one repair pass (:meth:`XMLViewUpdater.repair`) over
    everything queued.  It converges to the closure of the final store
    whatever the order of the batch's ops: its delete pass runs first
    and leaves every row a subset of that closure, so the insertions'
    ``ΔM`` never reads a stale row.  Deferred garbage collection
    means a subtree deleted and re-inserted within one batch is shared
    instead of republished (the paper's gen_id interning).
    """

    def __init__(self, updater: "XMLViewUpdater"):
        self.updater = updater
        self._pending_inserts: list[tuple[SubtreeResult, list[int]]] = []
        self._pending_deletes: list[int] = []
        self.events: list[ViewEvent] = []
        """The batch's per-op events, held until :meth:`flush` emits
        them coalesced with its own (``M`` is stale until then)."""
        self.report: BatchReport | None = None
        self._closed = False

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "UpdateSession":
        if self._closed:
            raise ReproError("update session already closed")
        self.updater.bind_session(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.updater.bind_session(None)
        self._closed = True
        self.flush()
        return False

    # -- queueing (called by the updater inside the maintain phase) ----------------

    @property
    def pending(self) -> bool:
        return bool(self._pending_inserts or self._pending_deletes)

    def defer(
        self,
        inserts: list[tuple[SubtreeResult, list[int]]],
        delete_targets: list[int] | None,
    ) -> None:
        """Queue one update's ``M`` repair (its ``L`` is repaired) for
        :meth:`flush`."""
        self._pending_inserts.extend(
            (subtree, list(targets)) for subtree, targets in inserts
        )
        self._pending_deletes.extend(delete_targets or ())

    # -- the single deferred repair ------------------------------------------------

    def flush(self) -> BatchReport:
        """Run the deferred Δ(M,L) repair; idempotent once drained."""
        if not self.pending:
            # Nothing queued: keep the report of the last real flush.
            self.report = self.report or BatchReport()
            return self.report
        report = BatchReport(
            inserts=len(self._pending_inserts),
            deletes=len(self._pending_deletes),
        )
        self.report = report
        start = time.perf_counter()
        gc = self.updater.repair(
            self._pending_inserts, sorted(set(self._pending_deletes))
        )
        if gc is not None:
            report.removed_nodes = gc.removed_nodes
            report.gc_delta = gc.gc_delta
        self._pending_inserts.clear()
        self._pending_deletes.clear()
        report.maintenance_passes = 1
        report.seconds = time.perf_counter() - start
        # One event for the whole batch (even when the only new
        # information is GC), at the flush generation.
        self.updater.finish_generation("batch_flush", gc=gc, held=self.events)
        self.events.clear()
        return report
