"""The end-to-end XML view update framework (paper, Fig. 3).

:class:`XMLViewUpdater` owns the published state for one ATG and
database: the DAG store ``V``, the topological order ``L``, the
reachability matrix ``M`` and the edge-view registry.  An update runs
through the paper's phases, each timed individually (the evaluation
section reports them separately):

1. **validate** — static DTD validation (Section 2.4);
2. **xpath** — demand-driven evaluation on the DAG: ``r[[p]]``, ``Ep(r)``,
   side effects (Section 3.2);
3. **translate_v** — ``ΔX → ΔV`` via Xinsert/Xdelete (Section 3.3);
4. **translate_r** — ``ΔV → ΔR`` via Algorithm delete / Algorithm insert
   (Section 4);
5. **apply** — ``ΔR`` on the base database, ``ΔV`` on the store;
6. **maintain** — Δ(M,L)insert / Δ(M,L)delete plus gen-table GC
   (Section 3.4; "background" work, reported separately).

The paper's two-phase structure is now explicit in the API: updates are
values (:mod:`repro.ops`), :meth:`XMLViewUpdater.plan` runs the
foreground phases 1–4 *without mutating any state* and returns an
:class:`UpdatePlan` (targets, side effects, ΔV, ΔR, phase timings), and
``plan.commit()`` / ``plan.abort()`` complete or discard it.
:meth:`XMLViewUpdater.apply_op` is literally ``plan(op).commit()``, so a
committed plan produces byte-identical ΔV/ΔR to a direct apply.

Side effects are governed by :class:`SideEffectPolicy`: ``ABORT``
rejects the update (the user said no), ``PROPAGATE`` carries on under
the paper's revised semantics (the update applies at every occurrence).
"""

from __future__ import annotations

import enum
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.atg.model import ATG
from repro.atg.publisher import (
    SubtreeResult,
    publish_store,
    publish_subtree,
    unfold_to_tree,
)
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.maintenance import (
    DeleteMaintenance,
    InsertMaintenance,
    insert_pairs,
    maintain_delete,
    maintain_insert,
    place_new_nodes,
    repair_topo_after_insert,
)
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete, xinsert
from repro.dtd.validate import StaticValidator
from repro.errors import (
    PlanError,
    ReproError,
    SideEffectError,
    StalePlanError,
    UpdateRejectedError,
    ValidationError,
)
from repro.index import ReachabilityIndex, build_index, resolve_backend
from repro.ops import (
    BaseUpdateOp,
    DeleteOp,
    InsertOp,
    ReplaceOp,
    UpdateOperation,
)
from repro.relational.database import Database, RelationalDelta
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.relview.insert import translate_insertions
from repro.subscribe.delta import (
    ViewEvent,
    coalesce,
    edge_records_from_delta,
    node_records_for,
)
from repro.views.registry import EdgeViewRegistry, build_registry
from repro.views.store import ViewDelta, ViewStore
from repro.xmltree.tree import XMLNode
from repro.xpath.ast import XPath
from repro.xpath.parser import parse_xpath


class SideEffectPolicy(enum.Enum):
    """What to do when an update has XML side effects (Section 2.1)."""

    ABORT = "abort"
    PROPAGATE = "propagate"


@dataclass
class UpdateOutcome:
    """Everything a caller (or benchmark) wants to know about one update."""

    kind: str
    accepted: bool
    reason: str | None = None
    side_effects: set[int] = field(default_factory=set)
    targets: list[int] = field(default_factory=list)
    delta_v: ViewDelta | None = None
    delta_r: RelationalDelta | None = None
    timings: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def foreground_time(self) -> float:
        """Everything except the background maintenance phase."""
        return sum(t for k, t in self.timings.items() if k != "maintain")

    def to_dict(self, include_deltas: bool = False) -> dict:
        """A JSON-safe summary (wire format, bench records, CLI output).

        ``include_deltas=True`` additionally embeds the full ΔV/ΔR op
        lists; by default only their insert/delete counts are included.
        """

        def delta_summary(delta, encode) -> dict | None:
            if delta is None:
                return None
            ops = list(delta)
            summary: dict = {
                "insertions": sum(1 for op in ops if op.kind == "insert"),
                "deletions": sum(1 for op in ops if op.kind == "delete"),
            }
            if include_deltas:
                summary["ops"] = [encode(op) for op in ops]
            return summary

        return {
            "kind": self.kind,
            "accepted": self.accepted,
            "reason": self.reason,
            "targets": [int(t) for t in self.targets],
            "side_effects": sorted(int(n) for n in self.side_effects),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "total_time": float(self.total_time),
            "foreground_time": float(self.foreground_time),
            "stats": {k: v for k, v in self.stats.items()},
            "delta_v": delta_summary(
                self.delta_v,
                lambda op: [
                    op.kind, op.parent_type, op.child_type, op.parent, op.child
                ],
            ),
            "delta_r": delta_summary(
                self.delta_r,
                lambda op: [op.kind, op.relation, list(op.row)],
            ),
        }


class _Timer:
    def __init__(self, outcome: UpdateOutcome, phase: str):
        self.outcome = outcome
        self.phase = phase

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        self.outcome.timings[self.phase] = (
            self.outcome.timings.get(self.phase, 0.0) + elapsed
        )
        return False


class PlanState(enum.Enum):
    """Lifecycle of an :class:`UpdatePlan`."""

    PLANNED = "planned"
    REJECTED = "rejected"
    COMMITTED = "committed"
    ABORTED = "aborted"
    FAILED = "failed"
    """Commit raised mid-apply; the plan is dead and cannot be aborted
    (ΔR/ΔV may be partially applied — the exception carries the cause)."""


class UpdatePlan:
    """The foreground half of one update, held before any mutation.

    Produced by :meth:`XMLViewUpdater.plan` (or
    :meth:`repro.service.ViewService.plan`).  Exposes everything the
    paper computes in phases 1–4 — ``targets`` (``r[[p]]``),
    ``side_effects``, ``delta_v``, ``delta_r``, per-phase ``timings``
    and ``stats`` — *before* the base database, the store's edges, ``M``
    or ``L`` are touched.  :meth:`commit` runs the apply + maintain
    phases (identical ΔV/ΔR to a direct ``apply_op``); :meth:`abort`
    discards the plan and leaves all state byte-identical.

    At most one plan may be outstanding per updater (a planned insert
    holds freshly interned gen-table ids); any other mutation between
    ``plan()`` and ``commit()`` raises :class:`StalePlanError`.
    """

    def __init__(self, op: UpdateOperation, updater: "XMLViewUpdater"):
        self.op = op
        self.updater = updater
        self.outcome = UpdateOutcome(kind=op.kind, accepted=False)
        self.state = PlanState.REJECTED  # plan() flips to PLANNED on success
        #: (subtree, attach targets) pairs, replayed in order at commit.
        self._inserts: list[tuple[SubtreeResult, list[int]]] = []
        #: Feed for Δ(M,L)delete: the eval result or the bare targets.
        self._delete_feed: EvalResult | list[int] | None = None
        self._base_delta: RelationalDelta | None = None
        self._version = updater._version

    # -- previews -----------------------------------------------------------------

    @property
    def accepted(self) -> bool:
        """Whether planning succeeded (the update was not rejected)."""
        return self.state is not PlanState.REJECTED

    @property
    def targets(self) -> list[int]:
        return self.outcome.targets

    @property
    def side_effects(self) -> set[int]:
        return self.outcome.side_effects

    @property
    def delta_v(self) -> ViewDelta | None:
        return self.outcome.delta_v

    @property
    def delta_r(self) -> RelationalDelta | None:
        return self.outcome.delta_r

    @property
    def timings(self) -> dict[str, float]:
        return self.outcome.timings

    @property
    def stats(self) -> dict[str, float]:
        return self.outcome.stats

    def to_dict(self, include_deltas: bool = True) -> dict:
        """JSON-safe preview of the planned update (dry-run output)."""
        payload = self.outcome.to_dict(include_deltas=include_deltas)
        payload["accepted"] = self.accepted  # planned, not yet committed
        payload["state"] = self.state.value
        payload["op"] = self.op.to_dict()
        return payload

    # -- completion ---------------------------------------------------------------

    def commit(self) -> UpdateOutcome:
        """Apply ΔR/ΔV and run the background Δ(M,L) maintenance."""
        with self.updater._sink.scope():
            return self._commit_inner()

    def _commit_inner(self) -> UpdateOutcome:
        if self.state is PlanState.REJECTED:
            raise PlanError(
                f"cannot commit a rejected plan ({self.outcome.reason})"
            )
        if self.state is not PlanState.PLANNED:
            raise PlanError(f"cannot commit a plan in state {self.state.value}")
        updater = self.updater
        if self._version != updater._version:
            raise StalePlanError(
                "the view changed since this plan was prepared; re-plan"
            )
        outcome = self.outcome
        # The plan completes now, one way or the other: release the slot
        # up front so a commit failure never wedges the updater (and so
        # a base-update commit can pass apply_base_update's plan guard).
        updater._outstanding_plan = None
        notify = updater._sink.consuming
        edge_records = []
        node_records = []
        try:
            if self._base_delta is not None:
                updater._in_plan_commit = True
                try:
                    with _Timer(outcome, "apply"):
                        report = updater.apply_base_update(self._base_delta)
                finally:
                    updater._in_plan_commit = False
                outcome.stats.update(
                    edges_added=len(report.edges_added),
                    edges_removed=len(report.edges_removed),
                    nodes_created=report.nodes_created,
                    nodes_collected=report.nodes_collected,
                )
            else:
                with _Timer(outcome, "apply"):
                    if outcome.delta_r is not None:
                        updater.db.apply(outcome.delta_r)
                    if outcome.delta_v is not None:
                        updater.store.apply(outcome.delta_v)
                if notify and outcome.delta_v is not None:
                    # Capture child values and interning records before
                    # GC can drop the nodes.
                    edge_records = edge_records_from_delta(
                        updater.store, outcome.delta_v
                    )
                    node_records = node_records_for(
                        updater.store, edge_records
                    )
                with _Timer(outcome, "maintain"):
                    delete_reports = updater._maintain(
                        self._inserts, self._delete_feed
                    )
                if notify:
                    for dm in delete_reports:
                        edge_records.extend(
                            edge_records_from_delta(
                                updater.store, dm.gc_delta, dm.removed_info
                            )
                        )
        except BaseException:
            self.state = PlanState.FAILED
            updater._version += 1  # state may have partially changed
            raise
        outcome.accepted = True
        self.state = PlanState.COMMITTED
        updater._version += 1
        updater._post_verify()
        if notify:
            if self._base_delta is not None:
                # Propagation reports every edge change typed+valued, so
                # base updates are fine-grained events too (subscription
                # pruning extends to the reverse pipeline).
                updater._sink.emit(ViewEvent(
                    generation=updater._version,
                    edges=report.edge_records,
                    nodes=report.node_records,
                    reason="base_update",
                    delta_r=self._base_delta,
                ))
            else:
                event = ViewEvent(
                    generation=updater._version,
                    edges=edge_records,
                    nodes=node_records,
                    reason=self.op.kind,
                    delta_r=outcome.delta_r,
                )
                if updater._session is not None:
                    # Mid-batch the store's edges are current but ``M``
                    # is not: the session releases its ops' events as
                    # one, at rest, when it flushes.
                    updater._session.events.append(event)
                else:
                    updater._sink.emit(event)
        return outcome

    def abort(self) -> None:
        """Discard the plan; store, ``M`` and ``L`` stay byte-identical.

        Aborting is idempotent, and a no-op on a rejected plan (which
        keeps its REJECTED state — the rejection stays on record)."""
        with self.updater._sink.scope():
            if self.state in (PlanState.ABORTED, PlanState.REJECTED):
                return
            if self.state is not PlanState.PLANNED:
                raise PlanError(
                    f"cannot abort a {self.state.value} plan"
                )
            for subtree, _ in reversed(self._inserts):
                subtree.rollback(self.updater.store)
            self.state = PlanState.ABORTED
            if self.updater._outstanding_plan is self:
                self.updater._outstanding_plan = None


class _NoSink:
    """The sink of a bare updater: nobody consumes, nothing to lock."""

    consuming = False
    delivering = False
    scope = staticmethod(nullcontext)


_NO_SINK = _NoSink()


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
    sat_solver:
        ``'walksat'`` | ``'dpll'`` | ``'auto'`` for insertion translation.
    strict:
        When True, rejections raise; when False they return an
        unaccepted :class:`UpdateOutcome` (benchmarks use False).
    index_backend:
        Reachability-index engine for ``M``: ``'bitset'`` (default;
        int bitmask rows) or ``'sets'`` (the reference dict-of-set
        matrix the lockstep tests substitute), see :mod:`repro.index`.
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
        sat_solver: str = "auto",
        strict: bool = True,
        verify_each_update: bool = False,
        rng: random.Random | None = None,
        index_backend: str = "bitset",
        store: ViewStore | None = None,
        generation: int = 0,
    ):
        self.atg = atg
        self.db = db
        self.policy = side_effect_policy
        self.sat_solver = sat_solver
        self.strict = strict
        self.verify_each_update = verify_each_update
        self.rng = rng or random.Random(20070415)
        self.index_backend = resolve_backend(index_backend)
        self.validator = StaticValidator(atg.dtd)
        # ``store=`` adopts an externally restored store (WAL crash
        # recovery: checkpoint + replay reproduces the writer's exact
        # node ids, which a fresh publish_store would not).
        self.store: ViewStore = (
            store if store is not None else publish_store(atg, db)
        )
        self.topo: TopoOrder = TopoOrder.from_store(self.store)
        self.reach: ReachabilityIndex = build_index(
            self.store, self.topo, self.index_backend
        )
        self.registry: EdgeViewRegistry = build_registry(atg, db)
        self.last_maintenance: InsertMaintenance | DeleteMaintenance | None = None
        self.maintenance_runs = 0
        """Number of Δ(M,L) repair passes run (batching amortizes them)."""
        self.m_repair_seconds = 0.0
        """Cumulative wall time of the ``ΔM`` (reachability-index) share
        of maintenance — the backend-ablation benchmarks read this to
        compare index engines without the backend-invariant ``L``/store
        surgery diluting the signal."""
        self._session: UpdateSession | None = None
        self._outstanding_plan: UpdatePlan | None = None
        self._version = generation
        """Bumped on every committed mutation; guards stale plans."""
        self._in_plan_commit = False
        """True while a plan commit drives ``apply_base_update`` (the
        commit emits the final event itself)."""
        self._sink = _NO_SINK
        """Where commit events go (see :meth:`attach_sink`)."""

    # -- public API -----------------------------------------------------------

    def xml_tree(self) -> XMLNode:
        """The current XML view as an (uncompressed) tree."""
        return unfold_to_tree(self.store)

    def evaluate_xpath(self, path: str | XPath) -> EvalResult:
        """Evaluate an XPath on the current view (no update)."""
        parsed = parse_xpath(path) if isinstance(path, str) else path
        return self._evaluator().evaluate(parsed)

    def evaluator(self) -> DagXPathEvaluator:
        """A read-only evaluator bound to the current state.

        Falls back to store-walk descendant regions while a batch
        session's ``M`` repair is pending (see :meth:`_evaluator`).
        """
        return self._evaluator()

    # -- the commit-event seam -----------------------------------------------------

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
          committed generation observable at rest (a batch session
          emits one, at flush);
        - ``sink.scope()`` — the context a plan's ``commit()`` /
          ``abort()`` runs in (the service's write section);
        - ``sink.delivering`` — true on a thread that is handing events
          to consumers; mutating from there is rejected.
        """
        self._sink = sink

    def _check_not_delivering(self) -> None:
        if self._sink.delivering:
            raise PlanError(
                "cannot mutate the view from inside a changefeed "
                "callback: delivery runs after the write lock is "
                "released, so the nested commit would publish its event "
                "out of order mid-delivery; hand the work to another "
                "thread or use a pull-mode changefeed consumer"
            )

    def apply_op(self, op: UpdateOperation) -> UpdateOutcome:
        """Translate and apply one typed update operation.

        The single write entry point: dispatches on the op kind, runs the
        foreground phases (:meth:`plan`) and commits.  Rejections raise
        in ``strict`` mode and return an unaccepted
        :class:`UpdateOutcome` otherwise.
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
        self._check_not_delivering()
        if self._outstanding_plan is not None:
            raise PlanError(
                "another plan is outstanding; commit or abort it first"
            )
        plan = UpdatePlan(op, self)
        try:
            if isinstance(op, InsertOp):
                self._plan_insert(op, plan)
            elif isinstance(op, DeleteOp):
                self._plan_delete(op, plan)
            elif isinstance(op, ReplaceOp):
                self._plan_replace(op, plan)
            elif isinstance(op, BaseUpdateOp):
                plan._base_delta = op.to_delta()
                plan.outcome.delta_r = plan._base_delta
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported operation {op!r}")
        except (ValidationError, UpdateRejectedError, SideEffectError) as exc:
            plan.outcome.reason = str(exc)
            plan.state = PlanState.REJECTED
            if self.strict:
                raise
            return plan
        plan.state = PlanState.PLANNED
        self._outstanding_plan = plan
        return plan

    def batch(self) -> "UpdateSession":
        """Open a batched update session (the paper's "background" mode).

        Inside ``with updater.batch():`` every accepted update runs its
        foreground phases (validate, xpath, translate, apply)
        immediately, but the expensive ``M`` repair is queued; leaving
        the block runs **one** deferred Δ(M,L) maintenance pass for the
        whole batch instead of one per update.  ``L`` stays maintained
        eagerly (placement + swap are cheap and evaluation needs them),
        and while repairs are pending the XPath evaluator derives
        descendant regions from the store's edges, so mid-batch queries
        and updates see correct results.

        Deferred garbage collection means a subtree deleted and
        re-inserted within one batch is shared instead of republished —
        semantically the same view (``check_consistency`` holds), via
        the paper's gen_id interning.
        """
        if self._session is not None:
            raise ReproError("an update session is already active")
        return UpdateSession(self)

    # -- the foreground phases, per op kind ------------------------------------

    def _plan_insert(self, op: InsertOp, plan: UpdatePlan) -> None:
        outcome = plan.outcome
        parsed = parse_xpath(op.path)
        with _Timer(outcome, "validate"):
            self.validator.validate_insert(parsed, op.element)
        with _Timer(outcome, "xpath"):
            result = self._evaluator().evaluate(parsed, mode="insert")
        outcome.targets = list(result.targets)
        outcome.side_effects = set(result.side_effects)
        if not result.targets:
            raise UpdateRejectedError(f"path {parsed} selects no node")
        self._check_side_effects(result)
        with _Timer(outcome, "translate_v"):
            subtree = publish_subtree(
                self.atg, self.db, self.store, op.element, op.sem
            )
            cyclic = [t for t in result.targets if t in subtree.all_nodes]
            if cyclic:
                subtree.rollback(self.store)
                raise UpdateRejectedError(
                    f"inserting {op.element} {op.sem!r} under node(s) "
                    f"{cyclic} creates a cycle: the target lies inside "
                    "the inserted subtree, so the XML view would be "
                    "infinite"
                )
            delta_v = xinsert(self.store, result.targets, subtree)
        outcome.delta_v = delta_v
        rplan = self._translate_insertions_guarded(subtree, delta_v, outcome)
        outcome.delta_r = rplan.delta_r
        outcome.stats.update(
            sat_vars=rplan.num_vars,
            sat_clauses=rplan.num_clauses,
            subtree_nodes=subtree.node_count,
            subtree_edges=subtree.edge_count,
            targets=len(result.targets),
        )
        plan._inserts.append((subtree, list(result.targets)))

    def _plan_delete(self, op: DeleteOp, plan: UpdatePlan) -> None:
        outcome = plan.outcome
        parsed = parse_xpath(op.path)
        with _Timer(outcome, "validate"):
            self.validator.validate_delete(parsed)
        with _Timer(outcome, "xpath"):
            result = self._evaluator().evaluate(parsed, mode="delete")
        outcome.targets = list(result.targets)
        outcome.side_effects = set(result.side_effects)
        if not result.targets:
            raise UpdateRejectedError(f"path {parsed} selects no node")
        self._check_side_effects(result)
        with _Timer(outcome, "translate_v"):
            delta_v = xdelete(self.store, result)
        outcome.delta_v = delta_v
        with _Timer(outcome, "translate_r"):
            rows = expand_view_deletions(
                self.registry, self.store, self.db, delta_v
            )
            rplan = translate_deletions(self.registry, self.db, rows)
        outcome.delta_r = rplan.delta_r
        outcome.stats.update(
            ep_edges=len(result.ep),
            view_rows=len(rplan.view_rows),
            targets=len(result.targets),
        )
        plan._delete_feed = result

    def _plan_replace(self, op: ReplaceOp, plan: UpdatePlan) -> None:
        """``replace path with (element, sem)``: one composite plan.

        The selected nodes are detached (Xdelete) and ``ST(element,
        sem)`` is attached at the parents they hung off — the vacated
        ``Ep(r)`` parent ends.  An edge the deletion would remove and
        the replacement would immediately re-add (replacing a node with
        itself) is pruned from *both* sides, so its base rows survive —
        otherwise the deletion ΔR would drop rows the insertion
        translation (which runs against the pre-update snapshot)
        believes are still there.  ΔR is the deletion translation
        followed by the insertion translation, in that order.
        """
        outcome = plan.outcome
        parsed = parse_xpath(op.path)
        with _Timer(outcome, "validate"):
            self.validator.validate_replace(parsed, op.element)
        with _Timer(outcome, "xpath"):
            result = self._evaluator().evaluate(parsed, mode="delete")
        outcome.targets = list(result.targets)
        outcome.side_effects = set(result.side_effects)
        if not result.targets:
            raise UpdateRejectedError(f"path {parsed} selects no node")
        self._check_side_effects(result)
        # The attach points: every parent that loses a child, in Ep order.
        parents: list[int] = []
        for parent, _, _ in result.ep:
            if parent not in parents:
                parents.append(parent)
        with _Timer(outcome, "translate_v"):
            raw_del = xdelete(self.store, result)
            subtree = publish_subtree(
                self.atg, self.db, self.store, op.element, op.sem
            )
        try:
            with _Timer(outcome, "translate_v"):
                cyclic = [p for p in parents if p in subtree.all_nodes]
                if cyclic:
                    raise UpdateRejectedError(
                        f"replacing with {op.element} {op.sem!r} under "
                        f"node(s) {cyclic} creates a cycle: an attach "
                        "parent lies inside the replacement subtree"
                    )
                # Self-replacement pairs survive untouched on both sides.
                noop_pairs = {
                    (e.parent, e.child)
                    for e in raw_del.deletions()
                    if e.child == subtree.root
                }
                del_delta = ViewDelta(
                    e for e in raw_del.ops
                    if (e.parent, e.child) not in noop_pairs
                )
                deleted_pairs = {
                    (e.parent, e.child) for e in del_delta.deletions()
                }
                ins_delta = ViewDelta()
                for p_type, p, c_type, c in subtree.edges:
                    ins_delta.insert(p_type, c_type, p, c)
                root_type = self.store.type_of(subtree.root)
                for parent in parents:
                    if (
                        self.store.has_edge(parent, subtree.root)
                        and (parent, subtree.root) not in deleted_pairs
                    ):
                        continue  # set semantics: the edge survives as-is
                    ins_delta.insert(
                        self.store.type_of(parent), root_type, parent,
                        subtree.root,
                    )
            with _Timer(outcome, "translate_r"):
                rows = expand_view_deletions(
                    self.registry, self.store, self.db, del_delta
                )
                del_plan = translate_deletions(self.registry, self.db, rows)
        except Exception:
            subtree.rollback(self.store)
            raise
        ins_plan = self._translate_insertions_guarded(
            subtree, ins_delta, outcome
        )
        outcome.delta_v = ViewDelta([*del_delta.ops, *ins_delta.ops])
        outcome.delta_r = RelationalDelta(
            [*del_plan.delta_r.ops, *ins_plan.delta_r.ops]
        )
        outcome.stats.update(
            ep_edges=len(result.ep),
            view_rows=len(del_plan.view_rows),
            targets=len(result.targets),
            attach_parents=len(parents),
            sat_vars=ins_plan.num_vars,
            sat_clauses=ins_plan.num_clauses,
            subtree_nodes=subtree.node_count,
            subtree_edges=subtree.edge_count,
        )
        plan._inserts.append((subtree, parents))
        plan._delete_feed = sorted(set(result.targets))

    # -- helpers ---------------------------------------------------------------

    def _translate_insertions_guarded(
        self, subtree: SubtreeResult, ins_delta: ViewDelta,
        outcome: UpdateOutcome,
    ):
        """Algorithm insert under the translate_r timer; on *any* failure
        the freshly interned subtree nodes are rolled back so a rejected
        plan leaves the store untouched."""
        try:
            with _Timer(outcome, "translate_r"):
                return translate_insertions(
                    self.registry,
                    self.store,
                    self.db,
                    ins_delta,
                    solver=self.sat_solver,
                    rng=self.rng,
                )
        except Exception:
            subtree.rollback(self.store)
            raise

    def _maintain(
        self,
        inserts: list[tuple[SubtreeResult, list[int]]],
        delete_feed: EvalResult | list[int] | None,
    ) -> list[DeleteMaintenance]:
        """One update's Δ(M,L) phase: insert repairs, then the delete pass.

        The ordering matches :meth:`UpdateSession.flush` — insert
        repairs are pure pair additions; the closing delete pass removes
        stale pairs and garbage-collects, so composites (replace)
        converge to the closure of the final store.  Returns the delete
        reports (commit events need their GC ΔV); empty when deferred
        to a session.
        """
        if self._session is not None:
            for subtree, targets in inserts:
                self._session.defer_insert(subtree, targets)
            if delete_feed is not None:
                targets = (
                    delete_feed.targets
                    if isinstance(delete_feed, EvalResult)
                    else delete_feed
                )
                self._session.defer_delete(list(targets))
            return []
        delete_reports: list[DeleteMaintenance] = []
        for subtree, targets in inserts:
            self.last_maintenance = maintain_insert(
                self.store, self.topo, self.reach, subtree, targets
            )
            self.m_repair_seconds += self.last_maintenance.m_seconds
        if delete_feed is not None:
            self.last_maintenance = maintain_delete(
                self.store, self.topo, self.reach, delete_feed
            )
            self.m_repair_seconds += self.last_maintenance.m_seconds
            delete_reports.append(self.last_maintenance)
        self.maintenance_runs += 1
        return delete_reports

    def _evaluator(self) -> DagXPathEvaluator:
        """An evaluator for the current state.

        While a batch session has repairs pending, ``M`` is stale; pass
        ``reach=None`` so descendant regions come from the store walk.
        """
        dirty = self._session is not None and self._session.pending
        return DagXPathEvaluator(
            self.store, self.topo, None if dirty else self.reach
        )

    def _check_side_effects(self, result: EvalResult) -> None:
        if result.has_side_effects and self.policy is SideEffectPolicy.ABORT:
            raise SideEffectError(
                f"update on {result.path} has XML side effects at nodes "
                f"{sorted(result.side_effects)[:10]}"
                f"{'...' if len(result.side_effects) > 10 else ''}; "
                "policy is ABORT",
                affected=frozenset(result.side_effects),
            )

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
        equivalent is ``apply_op(BaseUpdateOp.from_delta(delta_r))``.)
        """
        from repro.atg.incremental import propagate_base_update

        self._check_not_delivering()
        if self._outstanding_plan is not None:
            # Propagation would trip over the plan's pre-interned
            # (edge-less) nodes and corrupt the store irrecoverably.
            raise PlanError(
                "cannot propagate a base update while a plan is "
                "outstanding; commit or abort it first"
            )
        if self._session is not None and self._session.pending:
            raise ReproError(
                "cannot propagate a base update while a batch session has "
                "pending maintenance; flush the session first"
            )
        # Typed per-edge records cost lookups per change; only pay when
        # someone consumes the resulting event.
        notify = self._sink.consuming
        report = propagate_base_update(
            self.atg,
            self.registry,
            self.db,
            self.store,
            self.topo,
            self.reach,
            delta_r,
            want_records=notify,
        )
        self._version += 1
        self._post_verify()
        if notify and not self._in_plan_commit:
            # The report types every edge change (losses, gains, GC), so
            # the event is fine-grained: subscriptions skip or
            # suffix-restart on base updates exactly as on foreground
            # ops.  A plan-driven base commit emits its own event with
            # the final generation instead.
            self._sink.emit(ViewEvent(
                generation=self._version,
                edges=report.edge_records,
                nodes=report.node_records,
                reason="base_update",
                delta_r=delta_r,
            ))
        return report

    def _post_verify(self) -> None:
        """Optional paranoia: verify state against a republish (tests).

        Enabled by ``verify_each_update``; O(|V|) per update, so off by
        default and never used in benchmarks.
        """
        if not self.verify_each_update:
            return
        if self._session is not None and self._session.pending:
            return  # M/L deliberately stale; the session verifies at flush
        problems = self.check_consistency()
        if problems:
            raise ReproError(
                "post-update verification failed: " + "; ".join(problems)
            )

    def rebuild(self) -> None:
        """Recompute the store, ``L`` and ``M`` from scratch (baseline)."""
        self._check_not_delivering()
        self.store = publish_store(self.atg, self.db)
        self.rebuild_structures_only()

    def rebuild_structures_only(self) -> None:
        """Recompute ``L`` and ``M`` for the *current* store.

        Used after swapping in a store loaded from persistence
        (:func:`repro.views.loader.store_from_database`).
        """
        from repro.views.loader import load_structures

        self._check_not_delivering()
        self.topo, self.reach = load_structures(
            self.store, self.index_backend
        )
        self._version += 1
        if self._sink.consuming:
            self._sink.emit(ViewEvent(
                generation=self._version, coarse=True, reason="rebuild"
            ))

    def check_consistency(self) -> list[str]:
        """Verify the incremental state against a fresh republish.

        Returns a list of discrepancy descriptions (empty = consistent).
        Intended for tests; O(|V|)-ish, do not call per update in
        benchmarks.
        """
        problems: list[str] = []
        fresh = publish_store(self.atg, self.db)
        mine = {
            (self.store.type_of(n), self.store.sem_of(n))
            for n in self.store.reachable_from_root()
        }
        theirs = {
            (fresh.type_of(n), fresh.sem_of(n))
            for n in fresh.reachable_from_root()
        }
        if mine != theirs:
            missing = sorted(theirs - mine)[:5]
            extra = sorted(mine - theirs)[:5]
            problems.append(
                f"node sets differ: missing={missing} extra={extra}"
            )
        mine_reachable = self.store.reachable_from_root()
        mine_edges = {
            (
                self.store.type_of(u),
                self.store.sem_of(u),
                self.store.type_of(v),
                self.store.sem_of(v),
            )
            for key, pairs in self.store.edges.items()
            for (u, v) in pairs
            if u in mine_reachable
        }
        fresh_reachable = fresh.reachable_from_root()
        fresh_edges = {
            (
                fresh.type_of(u),
                fresh.sem_of(u),
                fresh.type_of(v),
                fresh.sem_of(v),
            )
            for key, pairs in fresh.edges.items()
            for (u, v) in pairs
            if u in fresh_reachable
        }
        if mine_edges != fresh_edges:
            problems.append(
                f"edge sets differ: missing={sorted(fresh_edges - mine_edges)[:5]} "
                f"extra={sorted(mine_edges - fresh_edges)[:5]}"
            )
        fresh_topo = TopoOrder.from_store(self.store)
        fresh_reach = build_index(self.store, fresh_topo, self.index_backend)
        if not self.reach.equals(fresh_reach):
            problems.append("reachability matrix differs from recomputation")
        if not self.topo.is_valid_for(self.reach.is_ancestor):
            problems.append("topological order invalid")
        return problems


@dataclass
class BatchReport:
    """What one deferred maintenance pass (session flush) did."""

    inserts: int = 0
    deletes: int = 0
    added_pairs: int = 0
    removed_pairs: int = 0
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

    Per accepted update the session does the *cheap* ``L`` work eagerly
    (new-node placement and the paper's ``swap`` repair, with the
    subtree's descendants taken from a store walk since ``M`` is
    deferred) and queues the ``M`` repair.  :meth:`flush` — called
    automatically on exit, even when the block raises — runs exactly
    one maintenance pass: pending insert repairs are replayed in order
    (pure pair additions), then a single combined Δ(M,L)delete over the
    union of deleted targets removes stale pairs and garbage-collects
    unreachable nodes.  Convergence to the closure of the final store
    does not depend on replay interleaving: every false pair a stale
    row can contribute has its descendant below some deleted target, so
    the closing delete pass recomputes it.
    """

    def __init__(self, updater: XMLViewUpdater):
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
        self.updater._session = self
        return self

    def __exit__(self, *exc) -> bool:
        self.updater._session = None
        self._closed = True
        self.flush()
        return False

    # -- queueing (called by the updater inside the maintain phase) ----------------

    @property
    def pending(self) -> bool:
        return bool(self._pending_inserts or self._pending_deletes)

    def defer_insert(
        self, subtree: SubtreeResult, targets: list[int]
    ) -> None:
        updater = self.updater
        place_new_nodes(updater.store, updater.topo, subtree)
        desc_root = updater.store.descendants_of([subtree.root])
        repair_topo_after_insert(updater.topo, subtree, targets, desc_root)
        self._pending_inserts.append((subtree, list(targets)))

    def defer_delete(self, targets: list[int]) -> None:
        self._pending_deletes.extend(targets)

    # -- the single deferred repair ------------------------------------------------

    def flush(self) -> BatchReport:
        """Run the deferred Δ(M,L) repair; idempotent once drained."""
        if not self.pending:
            # Nothing queued: keep the report of the last real flush.
            if self.report is None:
                self.report = BatchReport()
            return self.report
        report = BatchReport(
            inserts=len(self._pending_inserts),
            deletes=len(self._pending_deletes),
        )
        self.report = report
        updater = self.updater
        start = time.perf_counter()
        dm: DeleteMaintenance | None = None
        for subtree, targets in self._pending_inserts:
            report.added_pairs += insert_pairs(
                updater.store, updater.topo, updater.reach, subtree, targets
            )
        updater.m_repair_seconds += time.perf_counter() - start
        if self._pending_deletes:
            dm = maintain_delete(
                updater.store,
                updater.topo,
                updater.reach,
                sorted(set(self._pending_deletes)),
            )
            updater.m_repair_seconds += dm.m_seconds
            report.removed_pairs = dm.removed_pairs
            report.removed_nodes = dm.removed_nodes
            report.gc_delta = dm.gc_delta
        self._pending_inserts.clear()
        self._pending_deletes.clear()
        report.maintenance_passes = 1
        updater.maintenance_runs += 1
        updater._version += 1
        report.seconds = time.perf_counter() - start
        updater._post_verify()
        if updater._sink.consuming:
            # One event for the whole batch (even when the only new
            # information is GC), at the flush generation.
            records = (
                edge_records_from_delta(
                    updater.store, dm.gc_delta, dm.removed_info
                )
                if dm is not None
                else []
            )
            updater._sink.emit(coalesce([*self.events, ViewEvent(
                generation=updater._version,
                edges=records,
                reason="batch_flush",
            )]))
        self.events.clear()
        return report
