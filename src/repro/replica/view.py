"""The replica: bootstrap from a snapshot, fold ΔV events, serve reads.

A :class:`ReplicaView` owns a mirrored :class:`~repro.views.store.ViewStore`
and keeps it converged with the writer by folding published
:class:`~repro.views.events.ViewEvent` objects in generation order.
The snapshot and the events come from the writer
:class:`~repro.service.facade.ViewService` itself (``snapshot()``, then
``changefeed(since=g)``); a mirror of its WAL directory is what crash
recovery rebuilds (:meth:`ReplicaView.from_wal`).  Both fold each event
with :func:`~repro.views.events.fold_event`.

Folding is strict — an event referencing unknown state raises
:class:`~repro.errors.ReplicaDivergedError` rather than papering over a
gap, and :meth:`ReplicaView.pump` and the background fold loop answer it
by re-bootstrapping from a fresh snapshot.  A coarse event (one whose
edges do not describe its change; the writer publishes none) raises
:class:`~repro.errors.ReplicaStaleError`.  Reads run the same
:class:`~repro.core.dag_eval.DagXPathEvaluator` as the writer, against a
lazily rebuilt topological order (no reachability index — descendant
regions are edge walks of the store, and no step is seeded).
"""

from __future__ import annotations

import threading

from repro.atg.model import ATG
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.topo import TopoOrder
from repro.errors import (
    ChangefeedError,
    ReplayGapError,
    ReplicaDivergedError,
    ReplicaError,
    ReplicaStaleError,
)
from repro.views.events import ViewEvent, fold_event
from repro.views.store import ViewStore
from repro.wal.log import WriteAheadLog
from repro.wal.recover import recover_state
from repro.xpath.ast import XPath
from repro.xpath.parser import parse_xpath

#: How many snapshot+attach rounds :meth:`ReplicaView.bootstrap` tries
#: before giving up (each :class:`~repro.errors.ReplayGapError` retries
#: with a fresh snapshot at or past ``oldest_available``).
MAX_BOOTSTRAP_ATTEMPTS = 5


class ReplicaView:
    """A read-only mirror of one published view, fed by the changefeed.

    Parameters
    ----------
    atg:
        The view definition σ.  Replicas construct their own ATG (view
        definitions are code, not data); it is verified against the
        snapshot's embedded fingerprint at bootstrap.
    writer:
        The :class:`~repro.service.facade.ViewService` being mirrored:
        :meth:`bootstrap` takes its ``snapshot()`` and attaches
        ``changefeed(since=snapshot.generation)``, :meth:`lag` reads
        ``stats()["generation"]``.  ``None`` for a frozen mirror
        (:meth:`from_snapshot`, :meth:`from_wal`).
    """

    def __init__(self, atg: ATG, writer):
        self.atg = atg
        self.writer = writer
        self._cond = threading.Condition()
        self._stop = False
        self._thread: threading.Thread | None = None
        self._feed = None
        self._topo: TopoOrder | None = None
        self._topo_dirty = True
        self.store: ViewStore | None = None
        """The mirrored store (``None`` until :meth:`bootstrap`)."""
        self.generation = -1
        """Generation of the last state folded in (-1 = not bootstrapped);
        reads at :meth:`wait_for` ``(g)`` see every write up to ``g``."""
        self.events_folded = 0
        """Events applied since construction (across re-bootstraps)."""
        self.snapshots_loaded = 0
        """Bootstrap rounds completed (>1 means re-bootstrapped)."""
        self.error: BaseException | None = None
        """Why the background fold loop stopped, if it stopped sadly."""

    # -- bootstrap ----------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, atg: ATG, snapshot) -> "ReplicaView":
        """An offline replica serving reads from a loaded artifact.

        No writer, no feed — the mirror is frozen at
        ``snapshot.generation``.  Useful for point-in-time queries over
        a saved ``snapshots/*.json.gz`` artifact
        (``python -m repro.replica --snapshot PATH``).
        """
        replica = cls(atg, writer=None)
        replica.store = snapshot.restore_store(atg)
        replica.generation = snapshot.generation
        replica.snapshots_loaded = 1
        return replica

    @classmethod
    def from_wal(cls, atg: ATG, wal_dir: str) -> "ReplicaView":
        """An offline replica at a WAL directory's last durable generation.

        Opens the log read-only (safe against a live writer: no
        truncation, no cleanup) and runs crash recovery on the view
        alone (:func:`~repro.wal.recover.recover_state`): the newest
        checkpoint, then every logged event past it.  No writer, no
        feed; the mirror is frozen there.
        """
        wal = WriteAheadLog(str(wal_dir), readonly=True)
        try:
            recovered = recover_state(atg, None, wal)
        finally:
            wal.close()
        if recovered is None:
            raise ReplicaError(
                f"WAL at {wal_dir} holds no checkpoint to bootstrap from"
            )
        replica = cls(atg, writer=None)
        replica.store, replica.generation = recovered
        replica.snapshots_loaded = 1
        return replica

    def bootstrap(self) -> int:
        """Fetch a snapshot, restore the store, attach the feed gaplessly.

        Returns the snapshot generation the replica is now at.  When the
        writer's replay buffer has already evicted that generation the
        attach raises :class:`~repro.errors.ReplayGapError`; the retry
        loop uses its ``oldest_available`` field to insist on a fresh
        enough snapshot instead of string-parsing the message.  Safe to
        call again at any time (re-bootstrap): the mirror is replaced
        wholesale.
        """
        floor_needed = 0
        last_gap: ReplayGapError | None = None
        for _ in range(MAX_BOOTSTRAP_ATTEMPTS):
            snapshot = self.writer.snapshot()
            if snapshot.generation < floor_needed:
                # Still older than the writer's replay floor; an attach
                # would only raise the same gap again.
                continue
            store = snapshot.restore_store(self.atg)
            try:
                feed = self.writer.changefeed(since=snapshot.generation)
            except ReplayGapError as exc:
                floor_needed = exc.oldest_available
                last_gap = exc
                continue
            with self._cond:
                if self._feed is not None:
                    self._feed.close()
                self._feed = feed
                self.store = store
                self.generation = snapshot.generation
                self.snapshots_loaded += 1
                self._topo_dirty = True
                self.error = None
                self._cond.notify_all()
            return snapshot.generation
        raise ReplicaStaleError(
            f"could not bootstrap within {MAX_BOOTSTRAP_ATTEMPTS} "
            f"attempts: snapshots kept trailing the writer's replay floor "
            f"({floor_needed})"
        ) from last_gap

    # -- folding ------------------------------------------------------------------

    def apply_event(self, event: ViewEvent) -> bool:
        """Fold one published event into the mirror.

        Returns ``False`` for events at or before the replica's current
        generation (replay overlap during attach is normal), ``True``
        when state advanced.  Strict: unknown endpoints raise
        :class:`~repro.errors.ReplicaDivergedError`, coarse events raise
        :class:`~repro.errors.ReplicaStaleError`.
        """
        with self._cond:
            if self.store is None:
                raise ReplicaError("bootstrap() the replica before folding")
            if event.generation <= self.generation:
                return False
            if event.coarse:
                raise ReplicaStaleError(
                    f"coarse event at generation {event.generation} "
                    f"(reason={event.reason!r}): the edge list does not "
                    f"describe the change; re-bootstrap from a snapshot"
                )
            fold_event(self.store, event)
            self.generation = event.generation
            self.events_folded += 1
            self._topo_dirty = True
            self._cond.notify_all()
            return True

    def _fold(self, event: ViewEvent) -> bool:
        """:meth:`apply_event`, answering a diverged mirror with a fresh
        :meth:`bootstrap` (which counts as advancing)."""
        try:
            return self.apply_event(event)
        except ReplicaDivergedError:
            self.bootstrap()
            return True

    def pump(self, timeout: float = 0.0) -> int:
        """Fold every event currently available on the feed (foreground).

        ``timeout`` is the per-event wait passed to the feed; ``0.0``
        drains without blocking.  Returns the number of events folded.
        Divergence is handled like the background loop: re-bootstrap
        from a fresh snapshot.
        """
        folded = 0
        while True:
            feed = self._feed
            if feed is None:
                raise ReplicaError("bootstrap() the replica before pumping")
            event = feed.next_event(timeout=timeout)
            if event is None:
                return folded
            if self._fold(event):
                folded += 1

    def start(self) -> threading.Thread:
        """Fold the feed on a daemon thread until :meth:`close`.

        Divergence triggers a re-bootstrap; any other error (a failed
        re-bootstrap included) lands on :attr:`error` and stops the
        loop.  Returns the thread.
        """
        if self.store is None:
            self.bootstrap()
        if self._thread is not None and self._thread.is_alive():
            return self._thread
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="repro-replica-fold", daemon=True
        )
        self._thread.start()
        return self._thread

    def _run(self) -> None:
        while not self._stop:
            feed = self._feed
            if feed is None:
                return
            try:
                event = feed.next_event(timeout=0.25)
            except ChangefeedError:
                # The feed was closed under us mid-pull (replica close,
                # or a re-bootstrap swapping feeds); loop — the stop
                # flag / fresh feed decide what happens next.
                continue
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                self.error = exc
                return
            if event is None:
                continue
            try:
                self._fold(event)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                self.error = exc
                return

    # -- reads --------------------------------------------------------------------

    def xpath(self, path: str | XPath) -> EvalResult:
        """Evaluate an XPath locally on the mirrored store.

        The writer's read path on the replica's store: targets and
        contexts only (``ep`` / ``side_effects`` stay empty), through
        :meth:`DagXPathEvaluator.evaluate_from`.  The topological order
        is rebuilt lazily after folds, and descendant regions walk edges
        (no reachability index on replicas), so nothing is seeded.
        Targets therefore match the writer's at the same generation
        exactly.
        """
        parsed = path if isinstance(path, XPath) else parse_xpath(path)
        with self._cond:
            if self.store is None:
                raise ReplicaError("bootstrap() the replica before reading")
            if self._topo_dirty or self._topo is None:
                self._topo = TopoOrder.from_store(self.store)
                self._topo_dirty = False
            evaluator = DagXPathEvaluator(self.store, self._topo, None)
            return evaluator.evaluate_from(parsed)

    def wait_for(self, generation: int, timeout: float | None = None) -> int:
        """Read-your-generation fencing: block until ``generation`` folded.

        A client that observed the writer accept generation ``g`` calls
        ``wait_for(g)`` before reading, guaranteeing the replica's
        answers include that write.  Returns the replica's current
        generation (>= ``generation``); raises :class:`TimeoutError`
        when ``timeout`` (seconds) elapses first.
        """
        with self._cond:
            reached = self._cond.wait_for(
                lambda: self.generation >= generation, timeout=timeout
            )
            if not reached:
                raise TimeoutError(
                    f"replica is at generation {self.generation}, did not "
                    f"reach {generation} within {timeout}s"
                )
            return self.generation

    def lag(self) -> int:
        """Generations behind the writer (its ``stats()["generation"]``)."""
        return max(0, self.writer.stats()["generation"] - self.generation)

    # -- state --------------------------------------------------------------------

    def export_state(self) -> dict:
        """The mirror's :meth:`~repro.views.store.ViewStore.export_state`."""
        with self._cond:
            if self.store is None:
                raise ReplicaError("bootstrap() the replica first")
            return self.store.export_state()

    def digest(self) -> str:
        """The mirror's store digest (equal to the writer's ⇔ converged)."""
        with self._cond:
            if self.store is None:
                raise ReplicaError("bootstrap() the replica first")
            return self.store.digest()

    def stats(self) -> dict:
        """JSON-safe replica statistics (generation, folds, bootstraps)."""
        with self._cond:
            return {
                "generation": self.generation,
                "events_folded": self.events_folded,
                "snapshots_loaded": self.snapshots_loaded,
                "nodes": self.store.num_nodes if self.store else 0,
                "edges": self.store.num_edges if self.store else 0,
                "running": bool(self._thread and self._thread.is_alive()),
            }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop the fold loop and detach from the feed (idempotent)."""
        self._stop = True
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        with self._cond:
            if self._feed is not None:
                self._feed.close()
                self._feed = None
            self._cond.notify_all()

    def __enter__(self) -> "ReplicaView":
        """Context-manager entry (bootstraps if needed)."""
        if self.store is None:
            self.bootstrap()
        return self

    def __exit__(self, *exc) -> bool:
        """Context-manager exit: :meth:`close`."""
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicaView(gen={self.generation} folded={self.events_folded} "
            f"snapshots={self.snapshots_loaded})"
        )
