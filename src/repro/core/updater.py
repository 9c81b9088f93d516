"""The end-to-end XML view update framework (paper, Fig. 3).

:class:`XMLViewUpdater` owns the published state for one ATG and
database — the DAG store ``V``, the topological order ``L``, the
reachability index ``M``, the edge-view registry — plus the generation
counter and the commit-event sink.  An update runs through the paper's
phases, each timed individually (the evaluation section reports them
separately), and the modules follow them:

1. **validate** (Section 2.4), 2. **xpath** on the DAG (Section 3.2),
   3. **translate_v**, ``ΔX → ΔV`` (Section 3.3) and 4. **translate_r**,
   ``ΔV → ΔR`` (Section 4) — :mod:`repro.core.plan`: an
   :class:`UpdatePlan` is computed *without mutating any state* and
   completed by ``commit()`` / ``abort()``;
5. **apply** — ``ΔR`` on the base database, ``ΔV`` on the store;
6. **maintain** — Δ(M,L)insert / Δ(M,L)delete plus gen-table GC
   (Section 3.4, "background" work): :meth:`XMLViewUpdater.repair`,
   once per update, before the next one is planned.

Every committed mutation (a plan's commit or a base update — the
reverse pipeline) ends in the one tail
:meth:`XMLViewUpdater.finish_generation`: the only place the generation
advances on success and the only place a commit event is built.  What
an update reports is :mod:`repro.core.outcome`; this module re-exports
those names and ``UpdatePlan``.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext

from repro.atg.incremental import propagate_base_update
from repro.atg.model import ATG
from repro.atg.publisher import SubtreeResult, publish_store, unfold_to_tree
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.maintenance import (
    DeleteMaintenance,
    load_structures,
    repair,
    repair_topo_after_insert,
)
from repro.core.outcome import PlanState, SideEffectPolicy, UpdateOutcome
from repro.core.plan import UpdatePlan
from repro.dtd.validate import StaticValidator
from repro.errors import PlanError, ServiceClosedError, UpdateRejectedError
from repro.ops import UpdateOperation
from repro.relational.database import Database, RelationalDelta
from repro.views.events import ViewEvent, edge_records_from_delta
from repro.views.registry import EdgeViewRegistry, build_registry
from repro.views.store import ViewStore
from repro.xmltree.tree import XMLNode
from repro.xpath.ast import XPath
from repro.xpath.parser import parse_xpath

__all__ = [
    "PlanState",
    "SideEffectPolicy",
    "UpdateOutcome",
    "UpdatePlan",
    "XMLViewUpdater",
]


class _NoSink:
    """The sink of a bare updater: nobody consumes, nothing to lock."""

    consuming = False
    delivering = False
    closed = False
    scope = staticmethod(nullcontext)


class XMLViewUpdater:
    """Process XML view updates against a relational database.

    Parameters
    ----------
    atg:
        The view definition ``σ``.
    db:
        The base database ``I`` (updated in place by accepted updates).
    side_effect_policy:
        ``ABORT`` (default) raises/reports on side effects; ``PROPAGATE``
        carries on under the revised semantics.
    strict:
        When True, rejections raise; when False they return an
        unaccepted :class:`UpdateOutcome` (benchmarks use False).
    store:
        Adopt this :class:`~repro.views.store.ViewStore` instead of
        publishing a fresh one from ``db``.  Used by WAL crash recovery
        (:mod:`repro.wal.recover`): the restored store's node ids must
        match the logged event stream, and republishing would allocate
        different ones.
    generation:
        Where the generation counter starts (recovery resumes the
        logged sequence; 0 for a fresh view).
    """

    def __init__(
        self,
        atg: ATG,
        db: Database,
        side_effect_policy: SideEffectPolicy = SideEffectPolicy.ABORT,
        strict: bool = True,
        store: ViewStore | None = None,
        generation: int = 0,
    ):
        self.atg = atg
        self.db = db
        self.policy = side_effect_policy
        self.strict = strict
        self.fresh_sequence = itertools.count(1)
        """Numbers the fresh values insertion translation mints (from 1)."""
        self.validator = StaticValidator(atg.dtd)
        self.store: ViewStore = store if store is not None else publish_store(atg, db)
        self.topo, self.reach = load_structures(self.store)
        self.registry: EdgeViewRegistry = build_registry(atg, db)
        self.maintenance_runs = 0
        """Number of Δ(M,L) repair passes run (one per committed view update)."""
        self._outstanding_plan: UpdatePlan | None = None
        self._version = generation
        """Bumped on every committed mutation; guards stale plans."""
        self._sink = _NoSink
        """Where commit events go (see :meth:`attach_sink`)."""

    # -- public API -----------------------------------------------------------

    def xml_tree(self) -> XMLNode:
        """The current XML view as an (uncompressed) tree."""
        return unfold_to_tree(self.store)

    def evaluate_xpath(self, path: str | XPath) -> EvalResult:
        """Evaluate an XPath on the current view (no update)."""
        parsed = parse_xpath(path) if isinstance(path, str) else path
        return self.evaluator().evaluate(parsed)

    def evaluator(self) -> DagXPathEvaluator:
        """A read-only evaluator bound to the current state: ``M`` is
        repaired by every commit, so it is always at rest here."""
        return DagXPathEvaluator(self.store, self.topo, self.reach)

    def apply_op(self, op: UpdateOperation) -> UpdateOutcome:
        """Translate and apply one typed update operation.

        The single write entry point: runs the foreground phases
        (:meth:`plan`) and commits.  Rejections raise in ``strict`` mode
        and return an unaccepted :class:`UpdateOutcome` otherwise.
        """
        plan = self.plan(op)
        if plan.state is PlanState.REJECTED:
            return plan.outcome  # strict mode raised inside plan()
        return plan.commit()

    def plan(self, op: UpdateOperation) -> UpdatePlan:
        """Run the foreground phases (validate → ΔR) without mutating.

        Returns an :class:`UpdatePlan` previewing targets, side effects,
        ΔV, ΔR and phase timings; call ``commit()`` to apply (identical
        ΔV/ΔR to :meth:`apply_op`) or ``abort()`` to discard.  Only one
        plan may be outstanding at a time.
        """
        if not isinstance(op, UpdateOperation):
            raise TypeError(
                f"expected an update operation from repro.ops, got {op!r}"
            )
        self.check_writable()
        if self._outstanding_plan is not None:
            raise PlanError(
                "another plan is outstanding; commit or abort it first"
            )
        plan = UpdatePlan(op, self)
        plan.prepare()
        if plan.state is PlanState.PLANNED:
            self._outstanding_plan = plan
        return plan

    def undo(self, outcome: UpdateOutcome):
        """Undo an accepted update by propagating the inverted ``ΔR``.

        Because the view is a function of the base data, inverting the
        base update and re-synchronizing (the incremental propagation of
        :meth:`apply_base_update`) restores the view exactly — including
        resurrecting garbage-collected shared subtrees.
        """
        if not outcome.accepted:
            raise UpdateRejectedError("cannot undo a rejected update")
        if outcome.delta_r is None:
            raise UpdateRejectedError("outcome carries no ΔR to invert")
        return self.apply_base_update(outcome.delta_r.inverted())

    def apply_base_update(self, delta_r: RelationalDelta):
        """Apply a *base-table* update and synchronize the view.

        The reverse direction of the paper's pipeline (its reference [8]):
        the caller updates relations directly; the DAG store, ``M`` and
        ``L`` are maintained incrementally.  Returns a
        :class:`~repro.atg.incremental.PropagationReport`.  (The typed
        equivalent, ``apply_op(BaseUpdateOp.from_delta(delta_r))``, runs
        the same :meth:`propagate` body and the same one generation.)
        """
        self.check_writable()
        if self._outstanding_plan is not None:
            # Propagation would trip over the plan's pre-interned
            # (edge-less) nodes and corrupt the store irrecoverably.
            raise PlanError(
                "cannot propagate a base update while a plan is "
                "outstanding; commit or abort it first"
            )
        report = self.propagate(delta_r)
        self.finish_generation(
            "base_update", report.edge_records, report.node_records, delta_r
        )
        return report

    # -- the commit-event seam (the layers above) -----------------------------------

    @property
    def generation(self) -> int:
        """The version counter: bumped on every committed mutation,
        strictly increasing, stamped on every emitted event."""
        return self._version

    def attach_sink(self, sink) -> None:
        """Install the one consumer of this updater's commit events.

        The updater's whole interface to the layers above it
        (:class:`~repro.service.pipeline.CommitPipeline` in a service;
        a bare updater has none and builds no events):

        - ``sink.consuming`` — whether anyone reads events right now;
          when false no :class:`ViewEvent` (and none of the typed
          records that feed one) is constructed;
        - ``sink.emit(event)`` — receives each at-rest event, one per
          committed generation (a service batch is one scope, whose
          events the sink coalesces);
        - ``sink.scope()`` — the context a plan's ``commit()`` /
          ``abort()`` runs in (the service's write section);
        - ``sink.delivering`` — true on a thread that is handing events
          to consumers; mutating from there is rejected;
        - ``sink.closed`` — true once the service is closed; every
          mutation is rejected.
        """
        self._sink = sink

    def check_writable(self) -> None:
        """Raise if the sink is closed or this thread is delivering."""
        if self._sink.closed:
            raise ServiceClosedError(
                "the service is closed: reads and snapshot() still work, "
                "writes do not"
            )
        if self._sink.delivering:
            raise PlanError(
                "cannot mutate the view from inside a changefeed "
                "callback: delivery runs after the write lock is "
                "released, so the nested commit would publish its event "
                "out of order mid-delivery; hand the work to another "
                "thread or use a pull-mode changefeed consumer"
            )

    # -- the plan seam (repro.core.plan) ----------------------------------------------

    @property
    def consuming(self) -> bool:
        """Whether anyone reads commit events right now (``sink.consuming``)."""
        return self._sink.consuming

    def write_scope(self):
        """The context a plan's ``commit()`` / ``abort()`` runs in."""
        return self._sink.scope()

    def release_plan(self, plan: UpdatePlan) -> None:
        """``plan`` is over (committed, failed or rolled back): free the slot."""
        if self._outstanding_plan is plan:
            self._outstanding_plan = None

    def propagate(self, delta_r: RelationalDelta):
        """The base-update body: apply ``ΔR`` to ``I``, re-synchronize
        ``V``, ``L`` and ``M`` incrementally.  The caller
        (:meth:`apply_base_update`, a committed ``BaseUpdateOp``)
        finishes the generation."""
        # The report types every edge change (losses, gains, GC), so base
        # updates are fine-grained events too; the per-edge records cost
        # lookups per change, paid only when someone consumes the event.
        return propagate_base_update(
            self.atg, self.registry, self.db, self.store, self.topo,
            self.reach, delta_r, want_records=self._sink.consuming,
        )

    def maintain(
        self,
        inserts: list[tuple[SubtreeResult, list[int]]],
        delete_targets: list[int] | None,
    ) -> DeleteMaintenance | None:
        """One update's Δ(M,L) phase: ``L``, then ``M``, at once."""
        for subtree, targets in inserts:
            repair_topo_after_insert(self.store, self.topo, subtree, targets)
        return self.repair(inserts, delete_targets)

    def repair(
        self,
        inserts: list[tuple[SubtreeResult, list[int]]],
        delete_targets: list[int] | None,
    ) -> DeleteMaintenance | None:
        """The one ``M`` repair pass (:func:`repro.core.maintenance.repair`,
        delete pass first) for one update; returns the delete pass's
        report (commit events need its GC ΔV)."""
        gc = repair(self.store, self.topo, self.reach, inserts, delete_targets)
        self.maintenance_runs += 1
        return gc

    def abandon_generation(self) -> None:
        """A commit raised mid-apply: ``I``/``V`` may have partially
        changed, so older plans are stale; nothing is published."""
        self._version += 1

    def finish_generation(
        self, reason: str, edges=(), nodes=(),
        delta_r: RelationalDelta | None = None, *,
        gc: DeleteMaintenance | None = None,
    ) -> None:
        """A generation finished: the one tail of every committed mutation.

        Advances the generation and — only when someone consumes events —
        builds the :class:`ViewEvent` (``edges`` plus the GC edges of
        ``gc``) and emits it, at rest: ``M`` and ``L`` are repaired.
        """
        self._version += 1
        if not self._sink.consuming:
            return
        edges = list(edges)
        if gc is not None:
            edges += edge_records_from_delta(self.store, gc.gc_delta, gc.removed_info)
        self._sink.emit(ViewEvent(
            generation=self._version, edges=edges, nodes=list(nodes),
            reason=reason, delta_r=delta_r,
        ))

    def check_consistency(self) -> list[str]:
        """Verify the incremental state against a fresh republish.

        Returns a list of discrepancy descriptions (empty = consistent).
        Intended for tests; O(|V|)-ish, do not call per update in
        benchmarks.
        """

        def shape(store: ViewStore) -> tuple[set, set]:
            """The reachable view up to node ids: (type, sem) nodes and
            the edges between them."""
            live = store.reachable_from_root()
            key = {n: (store.type_of(n), store.sem_of(n)) for n in live}
            edges = {
                (*key[u], *key[v])
                for pairs in store.edges.values()
                for (u, v) in pairs
                if u in live
            }
            return set(key.values()), edges

        problems: list[str] = []
        nodes, edges = shape(self.store)
        fresh_nodes, fresh_edges = shape(publish_store(self.atg, self.db))
        if nodes != fresh_nodes:
            problems.append(
                f"node sets differ: missing={sorted(fresh_nodes - nodes)[:5]} "
                f"extra={sorted(nodes - fresh_nodes)[:5]}"
            )
        if edges != fresh_edges:
            problems.append(
                f"edge sets differ: missing={sorted(fresh_edges - edges)[:5]} "
                f"extra={sorted(edges - fresh_edges)[:5]}"
            )
        if not self.reach.equals(load_structures(self.store)[1]):
            problems.append("reachability matrix differs from recomputation")
        if not self.topo.is_valid_for(self.store):
            problems.append("topological order invalid")
        if not self.store.value_index_is_exact():
            problems.append("value index differs from a rebuild from node_sem")
        return problems
