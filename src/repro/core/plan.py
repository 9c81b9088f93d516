"""The foreground half of an update, held as a value: :class:`UpdatePlan`.

Phases 1–4 of the paper's pipeline for one typed op, *without mutating
any state*: **validate** (Section 2.4) and **xpath** on the DAG
(Section 3.2) in the selection prologue every view-side op shares, then
**translate_v** (``ΔX → ΔV``, Section 3.3) and **translate_r**
(``ΔV → ΔR``, Section 4) per op kind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.atg.publisher import SubtreeResult, publish_subtree
from repro.core.dag_eval import DagXPathEvaluator, EvalResult
from repro.core.outcome import PlanState, SideEffectPolicy, UpdateOutcome
from repro.core.translate import xdelete, xinsert
from repro.errors import (
    PlanError,
    SideEffectError,
    StalePlanError,
    UpdateRejectedError,
    ValidationError,
)
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp, UpdateOperation
from repro.relational.database import RelationalDelta
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.relview.insert import translate_insertions
from repro.views.events import edge_records_from_delta, node_records_for
from repro.views.store import ViewDelta
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:
    from repro.core.updater import XMLViewUpdater


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
    ``plan()`` and ``commit()`` makes the commit roll the plan back and
    raise :class:`StalePlanError`.
    """

    def __init__(self, op: UpdateOperation, updater: "XMLViewUpdater"):
        self.op = op
        self.updater = updater
        self.outcome = UpdateOutcome(kind=op.kind, accepted=False)
        self.state = PlanState.REJECTED  # prepare() flips to PLANNED on success
        #: (subtree, attach targets) pairs, replayed in order at commit.
        self._inserts: list[tuple[SubtreeResult, list[int]]] = []
        #: Feed for Δ(M,L)delete: the deleted child nodes ``r[[p]]``.
        self._delete_targets: list[int] | None = None
        #: The evaluator the selection ran on; the cycle check reuses it.
        self._evaluator: DagXPathEvaluator | None = None
        self._generation = updater.generation

    # -- previews -----------------------------------------------------------------

    @property
    def accepted(self) -> bool:
        """Whether planning succeeded (the update was not rejected)."""
        return self.state is not PlanState.REJECTED

    # Read-through views of the outcome's fields (typed there).
    targets = property(lambda self: self.outcome.targets)
    side_effects = property(lambda self: self.outcome.side_effects)
    delta_v = property(lambda self: self.outcome.delta_v)
    delta_r = property(lambda self: self.outcome.delta_r)
    timings = property(lambda self: self.outcome.timings)
    stats = property(lambda self: self.outcome.stats)

    def to_dict(self, include_deltas: bool = True) -> dict:
        """JSON-safe preview of the planned update (dry-run output)."""
        payload = self.outcome.to_dict(include_deltas=include_deltas)
        payload["accepted"] = self.accepted  # planned, not yet committed
        payload["state"] = self.state.value
        payload["op"] = self.op.to_dict()
        return payload

    # -- the foreground phases ------------------------------------------------------

    def prepare(self) -> None:
        """Run phases 1–4 for this plan's op (called once, by
        :meth:`XMLViewUpdater.plan`).

        Any failure rolls back what planning interned, so the store is
        untouched.  A rejection stays on record (``state`` REJECTED, the
        reason on the outcome) and is re-raised when the updater is
        ``strict``.
        """
        op = self.op
        try:
            if isinstance(op, InsertOp):
                self._plan_insert(op)
            elif isinstance(op, DeleteOp):
                self._plan_delete(op)
            elif isinstance(op, ReplaceOp):
                self._plan_replace(op)
            elif isinstance(op, BaseUpdateOp):
                # The reverse pipeline has no foreground: ΔR is given.
                self.outcome.delta_r = op.to_delta()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported operation {op!r}")
        except (ValidationError, UpdateRejectedError, SideEffectError) as exc:
            self._rollback()
            self.outcome.reason = str(exc)
            if self.updater.strict:
                raise
        except Exception:
            self._rollback()
            raise
        else:
            self.state = PlanState.PLANNED

    def _select(self, path: str, mode: str, validate, *args) -> EvalResult:
        """The selection prologue of every view-side op (phases 1–2).

        Parse, statically validate (``validate(parsed, *args)``),
        evaluate on the DAG in ``mode``, record ``r[[p]]`` and the side
        effects on the outcome, and reject an empty selection or — under
        the ``ABORT`` policy — one with XML side effects.
        """
        updater, outcome = self.updater, self.outcome
        parsed = parse_xpath(path)
        with outcome.timed("validate"):
            validate(parsed, *args)
        with outcome.timed("xpath"):
            self._evaluator = updater.evaluator()
            result = self._evaluator.evaluate(parsed, mode=mode)
        outcome.targets = list(result.targets)
        outcome.side_effects = set(result.side_effects)
        if not result.targets:
            raise UpdateRejectedError(f"path {parsed} selects no node")
        if result.has_side_effects and updater.policy is SideEffectPolicy.ABORT:
            raise SideEffectError(
                f"update on {result.path} has XML side effects at nodes "
                f"{sorted(result.side_effects)[:10]}"
                f"{'...' if len(result.side_effects) > 10 else ''}; "
                "policy is ABORT",
                affected=frozenset(result.side_effects),
            )
        return result

    def _publish(self, op: InsertOp | ReplaceOp, attach: list[int]):
        """Intern ``ST(element, sem)`` (Section 3.3), to hang off the
        ``attach`` nodes; rejected when one of them lies inside it.

        ``attach`` nodes exist already, so one lies inside ``ST`` iff it
        is in the closure of ``ST``'s frontier (its root, or the existing
        nodes its new edges reach): one ancestor-row test per attach
        point.  ``ST`` is never walked.
        """
        updater = self.updater
        subtree = publish_subtree(
            updater.atg, updater.db, updater.store, op.element, op.sem
        )
        self._inserts.append((subtree, attach))
        inside = self._evaluator.closure(subtree.frontier)
        cyclic = [node for node in attach if node in inside]
        if cyclic:
            raise UpdateRejectedError(
                f"{op.kind} of {op.element} {op.sem!r} under node(s) "
                f"{cyclic} creates a cycle: the attach point lies inside "
                "the new subtree, so the XML view would be infinite"
            )
        return subtree

    def _translate_deletions(self, del_delta: ViewDelta):
        """Algorithm delete (Section 4) under the translate_r timer."""
        updater = self.updater
        with self.outcome.timed("translate_r"):
            rows = expand_view_deletions(
                updater.registry, updater.store, updater.db, del_delta
            )
            return translate_deletions(updater.registry, updater.db, rows)

    def _translate_insertions(self, ins_delta: ViewDelta):
        """Algorithm insert (Section 4) under the translate_r timer."""
        updater = self.updater
        with self.outcome.timed("translate_r"):
            return translate_insertions(
                updater.registry, updater.store, updater.db, ins_delta,
                fresh=updater.fresh_sequence,
            )

    def _plan_insert(self, op: InsertOp) -> None:
        updater, outcome = self.updater, self.outcome
        result = self._select(
            op.path, "insert", updater.validator.validate_insert, op.element
        )
        with outcome.timed("translate_v"):
            subtree = self._publish(op, list(result.targets))
            outcome.delta_v = xinsert(updater.store, result.targets, subtree)
        rplan = self._translate_insertions(outcome.delta_v)
        outcome.delta_r = rplan.delta_r
        outcome.stats.update(
            sat_vars=rplan.num_vars,
            sat_clauses=rplan.num_clauses,
            subtree_nodes=len(subtree.new_nodes),
            subtree_edges=len(subtree.edges),
            targets=len(result.targets),
        )

    def _plan_delete(self, op: DeleteOp) -> None:
        updater, outcome = self.updater, self.outcome
        result = self._select(
            op.path, "delete", updater.validator.validate_delete
        )
        with outcome.timed("translate_v"):
            outcome.delta_v = xdelete(updater.store, result)
        rplan = self._translate_deletions(outcome.delta_v)
        outcome.delta_r = rplan.delta_r
        outcome.stats.update(
            ep_edges=len(result.ep),
            view_rows=len(rplan.view_rows),
            targets=len(result.targets),
        )
        self._delete_targets = list(result.targets)

    def _plan_replace(self, op: ReplaceOp) -> None:
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
        updater, outcome = self.updater, self.outcome
        store = updater.store
        result = self._select(
            op.path, "delete", updater.validator.validate_replace, op.element
        )
        # The attach points: every parent that loses a child, in Ep order.
        parents = list(dict.fromkeys(parent for parent, _, _ in result.ep))
        with outcome.timed("translate_v"):
            raw_del = xdelete(store, result)
            subtree = self._publish(op, parents)
            # A selected node replaced with itself keeps its edge on both
            # sides: not deleted here, and Xinsert skips an edge the
            # store still has.
            del_delta = ViewDelta(
                e for e in raw_del.ops if e.child != subtree.root
            )
            ins_delta = xinsert(store, parents, subtree)
        del_plan = self._translate_deletions(del_delta)
        ins_plan = self._translate_insertions(ins_delta)
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
            subtree_nodes=len(subtree.new_nodes),
            subtree_edges=len(subtree.edges),
        )
        self._delete_targets = sorted(set(result.targets))

    # -- completion ---------------------------------------------------------------

    def commit(self) -> UpdateOutcome:
        """Apply ΔR/ΔV and run the background Δ(M,L) maintenance."""
        self.updater.check_writable()
        with self.updater.write_scope():
            if self.state is PlanState.REJECTED:
                raise PlanError(
                    f"cannot commit a rejected plan ({self.outcome.reason})"
                )
            if self.state is not PlanState.PLANNED:
                raise PlanError(
                    f"cannot commit a plan in state {self.state.value}"
                )
            if self._generation != self.updater.generation:
                # It can never commit: roll it back like abort() would,
                # so it does not keep the writer's one plan slot.
                self._discard()
                raise StalePlanError(
                    "the view changed since this plan was prepared; re-plan"
                )
            return self._apply()

    def _apply(self) -> UpdateOutcome:
        """Phases 5–6, on the updater's state."""
        updater, outcome = self.updater, self.outcome
        # The plan completes now, one way or the other: release the slot
        # up front so a commit failure never wedges the updater.
        updater.release_plan(self)
        edges, nodes, gc = [], [], None
        try:
            if isinstance(self.op, BaseUpdateOp):
                with outcome.timed("apply"):
                    report = updater.propagate(outcome.delta_r)
                outcome.stats.update(
                    edges_added=len(report.edges_added),
                    edges_removed=len(report.edges_removed),
                    nodes_created=report.nodes_created,
                    nodes_collected=report.nodes_collected,
                )
                edges, nodes = report.edge_records, report.node_records
            else:
                with outcome.timed("apply"):
                    updater.db.apply(outcome.delta_r)
                    updater.store.apply(outcome.delta_v)
                if updater.consuming:
                    # Capture child values and interning records before
                    # GC can drop the nodes.
                    edges = edge_records_from_delta(updater.store, outcome.delta_v)
                    nodes = node_records_for(updater.store, edges)
                with outcome.timed("maintain"):
                    gc = updater.maintain(self._inserts, self._delete_targets)
        except BaseException:
            self.state = PlanState.FAILED
            updater.abandon_generation()
            raise
        outcome.accepted = True
        self.state = PlanState.COMMITTED
        updater.finish_generation(self.op.kind, edges, nodes, outcome.delta_r, gc=gc)
        return outcome

    def abort(self) -> None:
        """Discard the plan; store, ``M`` and ``L`` stay byte-identical.

        Aborting is idempotent, and a no-op on a rejected plan (which
        keeps its REJECTED state — the rejection stays on record)."""
        with self.updater.write_scope():
            if self.state in (PlanState.ABORTED, PlanState.REJECTED):
                return
            if self.state is not PlanState.PLANNED:
                raise PlanError(f"cannot abort a {self.state.value} plan")
            self._discard()

    def _discard(self) -> None:
        """Roll a PLANNED plan back: pre-interned nodes removed, the
        updater's plan slot released, state ``ABORTED``."""
        self._rollback()
        self.state = PlanState.ABORTED
        self.updater.release_plan(self)

    def _rollback(self) -> None:
        for subtree, _ in reversed(self._inserts):
            subtree.rollback(self.updater.store)
