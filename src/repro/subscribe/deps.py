"""Per-step dependency extraction for incremental XPath maintenance.

For every AST step of a subscribed path we derive which edge changes can
alter that step's context membership, as a tuple of
:class:`EdgePattern` — typed ``(parent label, child label, child
values)`` templates, each component optionally unconstrained.  The
derivation rests on three invariants of the store model:

- node types and PCDATA values are immutable once interned (gen_id), so
  ``label()`` tests and a context node's own value never change;
- a child-step context's members are reached through edges whose parent
  and child labels are statically known (the previous/current step
  labels; the DTD root label at step 0) — unless the query uses ``*``
  or ``//``, whose steps depend on every edge;
- a ``p = "s"`` comparison only feels edges into the terminal label of
  ``p`` whose child carries the compared value ``s``.

Given a :class:`~repro.subscribe.delta.ViewEvent`,
:func:`first_affected_step` returns the earliest step whose patterns
match an event edge, or ``None`` when the whole result is provably
untouched: the subscription engine then skips the event, or re-evaluates
the query from the root.

The cached contexts the patterns are sharpened against come from the
seeded evaluator (:func:`repro.core.dag_eval.seed_plan`): at a seeded
level they hold only the candidates the seed leg ``leg = value`` holds
at.  So that leg's patterns are matched without the context (an edge
that adds or removes a node holding ``value`` can make a candidate of a
node under any parent), and an empty seeded level is not proof of an
unchanged result while such an edge is in the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dag_eval import seed_plan
from repro.subscribe.delta import EdgeRecord, ViewEvent
from repro.xpath.ast import (
    DescendantStep,
    ExistsPath,
    FAnd,
    FNot,
    FOr,
    Filter,
    FilterStep,
    LabelStep,
    LabelTest,
    ValueEq,
    WildcardStep,
    XPath,
)

#: Context-type knowledge while walking a path: the set of labels the
#: current context's nodes can have, or ``None`` for "anything".
CtxTypes = frozenset | None


@dataclass(frozen=True)
class EdgePattern:
    """A template over edge changes; ``None`` components match anything."""

    parent: str | None
    child: str | None
    values: frozenset | None = None
    """Child PCDATA values that matter (a value comparison's constant);
    ``None`` = any value.  An event edge with an *unknown* child value
    always matches — pruning stays conservative."""

    in_context: bool = False
    """The relevant edges hang directly off the step's previous context
    ``C_{k-1}`` (the step's own child edges; the *first* edge of a
    filter chain): when the cached context is available, an edge whose
    parent node is not a member cannot affect this step."""

    in_region: bool = False
    """Descendant steps: the relevant edges hang off the step's own
    cached *region* (its output context) — a descendant closure only
    changes through an edge whose parent it already contains."""

    def matches(self, rec: EdgeRecord) -> bool:
        """Whether ``rec`` could invalidate a step depending on this
        pattern (type/value test only; node-membership sharpening is the
        caller's job — see :func:`first_affected_step`)."""
        if self.parent is not None and rec.parent_type != self.parent:
            return False
        if self.child is not None and rec.child_type != self.child:
            return False
        if (
            self.values is not None
            and rec.child_value is not None
            and rec.child_value not in self.values
        ):
            return False
        return True


ANY_EDGE = EdgePattern(None, None)
REGION_EDGE = EdgePattern(None, None, in_region=True)


def _label_patterns(
    label: str, ctx: CtxTypes, values: frozenset | None, at_context: bool
) -> list[EdgePattern]:
    if ctx is None:
        return [EdgePattern(None, label, values, in_context=at_context)]
    return [
        EdgePattern(parent, label, values, in_context=at_context)
        for parent in sorted(ctx)
    ]


def _path_patterns(
    path: XPath,
    ctx: CtxTypes,
    terminal_values: frozenset | None,
    at_context: bool,
) -> list[EdgePattern]:
    """Patterns of a filter-internal relative path.

    ``terminal_values`` restricts the final label's relevant child
    values (a ``p = "s"`` comparison); intermediate chain labels matter
    for any value.  Only the chain's first edge hangs off the step
    context (``at_context``); deeper edges can sit anywhere.
    """
    patterns: list[EdgePattern] = []
    last_label_index = path.last_child_step_index
    for index, step in enumerate(path.steps):
        if isinstance(step, (WildcardStep, DescendantStep)):
            return [ANY_EDGE]
        if isinstance(step, LabelStep):
            values = (
                terminal_values if index == last_label_index else None
            )
            patterns.extend(
                _label_patterns(step.label, ctx, values, at_context)
            )
            ctx = frozenset((step.label,))
            at_context = False
        elif isinstance(step, FilterStep):
            patterns.extend(_filter_patterns(step.filter, ctx, at_context))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
        if any(p == ANY_EDGE for p in patterns):
            return [ANY_EDGE]
    return patterns


def _filter_patterns(
    filt: Filter, ctx: CtxTypes, at_context: bool
) -> list[EdgePattern]:
    if isinstance(filt, LabelTest):
        return []  # node types are immutable: never invalidated
    if isinstance(filt, ExistsPath):
        return _path_patterns(filt.path, ctx, None, at_context)
    if isinstance(filt, ValueEq):
        if not filt.path.steps:
            return []  # the context node's own value is immutable
        return _path_patterns(
            filt.path, ctx, frozenset((filt.value,)), at_context
        )
    if isinstance(filt, (FAnd, FOr)):
        patterns: list[EdgePattern] = []
        for part in filt.parts:
            patterns.extend(_filter_patterns(part, ctx, at_context))
        return patterns
    if isinstance(filt, FNot):
        return _filter_patterns(filt.part, ctx, at_context)
    raise TypeError(f"unknown filter {filt!r}")  # pragma: no cover


class _EveryNode:
    """The membership of a level that holds every node."""

    __slots__ = ()

    def __contains__(self, node: int) -> bool:
        return True


#: What the cache holds for a leading ``//`` level.  The evaluator's
#: region there is ``L`` itself, a live container that a commit changes
#: before the next decision reads it; every node the event touched was
#: reachable from the root on one side of it or the other.
EVERY_NODE = _EveryNode()


@dataclass(frozen=True)
class QueryProfile:
    """The per-step edge-dependency patterns of one subscribed path."""

    path: XPath
    per_step: tuple[tuple[EdgePattern, ...], ...]
    seed_legs: dict[int, tuple[EdgePattern, ...]] = field(
        default_factory=dict, compare=False
    )
    """Filter step index → the patterns of its seed leg, for the filter
    of every seeded label step (matched without the context)."""

    @property
    def prunable(self) -> bool:
        """Whether any event can ever be skipped for this query."""
        return not any(ANY_EDGE in deps for deps in self.per_step)


def profile_query(path: XPath, root_label: str | None = None) -> QueryProfile:
    """Extract per-step dependencies; ``root_label`` (the DTD root's
    element type) tightens the parent constraint of the first step."""
    per_step: list[tuple[EdgePattern, ...]] = []
    # A seeded level ``i`` is the ``i``-th step: its filter is step ``i``.
    seeds = seed_plan(path.steps)
    seed_legs: dict[int, tuple[EdgePattern, ...]] = {}
    ctx: CtxTypes = frozenset((root_label,)) if root_label else None
    for index, step in enumerate(path.steps):
        if isinstance(step, LabelStep):
            per_step.append(
                tuple(_label_patterns(step.label, ctx, None, True))
            )
            ctx = frozenset((step.label,))
        elif isinstance(step, WildcardStep):
            per_step.append((EdgePattern(None, None, in_context=True),))
            ctx = None
        elif isinstance(step, DescendantStep):
            per_step.append((REGION_EDGE,))
            ctx = None
        elif isinstance(step, FilterStep):
            seed = seeds.get(index)
            filt = step.filter
            patterns: list[EdgePattern] = []
            for part in filt.parts if isinstance(filt, FAnd) else (filt,):
                is_leg = seed is not None and part is seed.part
                found = _filter_patterns(part, ctx, not is_leg)
                if is_leg:
                    seed_legs[index] = tuple(found)
                patterns.extend(found)
            per_step.append(tuple(patterns))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
    return QueryProfile(
        path=path, per_step=tuple(per_step), seed_legs=seed_legs
    )


def first_affected_step(
    profile: QueryProfile,
    event: ViewEvent,
    context_sets: list | None = None,
) -> int | None:
    """Earliest step index whose context the event may change.

    ``None`` means the subscription's result is provably unchanged and
    the event is skipped; any index means re-evaluate from the root
    (``C_0 .. C_k`` are intact, but nothing restarts from them).
    Coarse events always invalidate everything (``0``).

    ``context_sets`` — the cached per-level membership of the
    subscription's last evaluation (``context_sets[i]`` = members of
    ``C_i``, :attr:`~repro.core.dag_eval.EvalResult.contexts`) —
    sharpens type matches with node membership: an edge can only affect
    step ``k`` through a parent the relevant cached set already
    contains.  The test is inductive and sound because steps are scanned
    in order: by the time step ``k`` is consulted, no earlier step
    matched, so its cached contexts are known-current.  A seeded level
    holds only the seed leg's candidates, so the leg's patterns are not
    sharpened (see :attr:`QueryProfile.seed_legs`).
    """
    if event.coarse:
        return 0
    if not event.edges:
        return None
    for index, deps in enumerate(profile.per_step):
        if context_sets is not None and index < len(context_sets):
            if not context_sets[index]:
                # The (intact) context before this step is empty: this
                # and every later step keep producing empty contexts,
                # so the (empty) result cannot change — unless the
                # level is seeded and a leg edge can make a candidate.
                legs = profile.seed_legs.get(index, ())
                if any(p.matches(rec) for p in legs for rec in event.edges):
                    return index
                return None
        for pattern in deps:
            for rec in event.edges:
                if not pattern.matches(rec):
                    continue
                if context_sets is not None:
                    members = None
                    if pattern.in_region:
                        if index + 1 < len(context_sets):
                            members = context_sets[index + 1]
                    elif pattern.in_context:
                        if index < len(context_sets):
                            members = context_sets[index]
                    if members is not None and rec.parent not in members:
                        continue
                return index
    return None
