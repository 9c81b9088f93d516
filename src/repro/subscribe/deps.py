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

Given a :class:`~repro.views.events.ViewEvent`, :func:`affects` answers
whether the event may change the subscription's result; when it cannot,
the subscription engine skips the event, and otherwise re-evaluates the
query from the root.

**Membership at every level.**  The decision sharpens a type match with
the cached levels of the subscription's last evaluation, read after the
commit (:meth:`QueryProfile.snapshot` is the one rule of what is
cached).  Both ends are at rest: every commit repairs ``M`` before the
next op is planned, and the pipeline emits events only after that.

- a listed level is a set: an edge can only change a child step's
  output, or a filter at its members, through a parent the step's input
  level holds — or, for the ``k``-th edge of a filter chain, a parent
  with an ancestor exactly ``k − 1`` levels up in it
  (:attr:`EdgePattern.depth`);
- a ``//`` level is cached as its generating nodes (:class:`Closure`)
  and re-derived on the post-commit ``M`` through
  :meth:`~repro.core.dag_eval.DagXPathEvaluator.closure` — ``L`` itself
  after a leading ``//`` is the closure of the root;
- a seeded level (:func:`repro.core.dag_eval.seed_plan`) holds only the
  candidates the seed leg ``leg = value`` holds at.  When an edge
  matches the steps that feed it (its label step, and the ``//`` before
  that) or the leg, the level is re-derived once from the value index
  (:meth:`~repro.core.dag_eval.DagXPathEvaluator.seed_members`, as the
  evaluator seeds it) and compared with the cache: different means
  re-evaluate; equal settles those steps and the leg's patterns, and
  the decision goes on from the seeded filter's other conjuncts.

**One walk.**  These tests are worked out once per query, as
:attr:`QueryProfile.stages`: one :class:`Stage` per level the walk may
stop at (every step's input level, a seeded level and the first step
feeding it), holding the tests made before the next such level and the
seeded level a hit re-derives.  :func:`affects` walks them and stops
at the first empty cached level, since every later level stays empty.
The walk is inductive: when a stage is read no earlier stage hit (or
its seeded level re-derived unchanged), so the cached levels it reads
are the post-commit ones.  Testing a parent's membership
*after* the commit is sound for both edge kinds:

- *Inserts.*  A node that enters a region (or a level ``k − 1`` below
  a context member) does so along a post-commit path that holds an
  inserted edge; every node on that path is in the post-commit region,
  so that edge's parent is, and it triggers.
- *Deletes under a live region.*  Let a node leave the region of ``G``
  (``G`` unchanged).  On a pre-commit path from ``G`` to it, take the
  deleted edge nearest ``G``: the path above it still exists, so its
  parent is still in the region and it triggers.  So when a deleted
  edge's parent has left the region, some deleted edge higher on the
  same cut path still has its parent in the region.  After a leading
  ``//`` followed by a seeded step the same holds for the seeded level
  ``S1``: it is re-derived from the post-commit value index and region,
  so an unchanged ``S1`` is proof enough however the region moved.
- *Filter chains* (``k = 2``: ``n → p → c``, ``n ∈ C_i``).  If the
  chain's second edge changed, ``p``'s post-commit parents include
  ``n`` unless the first edge ``n → p`` was deleted in the same event;
  then the first-edge pattern (``p``'s parent ``n ∈ C_i``) catches it.
  For deeper edges the same holds for the deleted chain edge nearest
  ``n``.

A coalesced batch event lists every edge the batch touched (inserts
are not cancelled against deletes), and no test reads the record's
kind, so these arguments hold for it as they do for one op.  A cache
taken inside the batch (a read or a subscription between two of its
ops) is decided against the whole batch's event all the same.  The
edges committed before the cache was taken are already in it, and
the arguments need only that the event holds every edge changed since
the cache: the decision is a disjunction over the event's edges, and a
seeded level is compared with its re-derivation whichever edge asked
for it.  So those earlier edges can only add hits, and a hit costs a
re-evaluation, never a stale result.

**A seeded level after a leading ``//``.**  When the steps feeding a
seeded level are a step-0 ``//`` and its label step, the cached level
before it is the closure of the root.  At rest (``M`` fresh, so the
commit's garbage collection has run) that closure is every live node,
so the seeded level ``S1`` is the set of the seed leg's holders other
than the root.  The holders change only when an edge on a leg changes:
a new holder is linked to its value through inserted leg edges, and a
collected one loses its leg edges, which the event lists with the rest
of the collection.  So the feeding steps of such a level trigger
nothing (:attr:`SeededLevel.leading`); only its legs re-derive it.
After any other ``//`` the region is a real subset of ``L`` and an edge
anywhere in it can move the level, so the rule is for step 0 alone.

**The trigger summary.**  :meth:`QueryProfile.snapshot` also folds the
same stages into a :class:`Triggers` over the cached levels, up to the
first empty level as the walk stops there: ``exact``
(the nodes of the listed levels the depth-0 patterns test a parent against),
``closure`` (the generating nodes of every ``//`` level and the levels
a chain's deeper edges hang below: an edge reaches such a level only
if an ancestor-or-self of its parent is in the mask), and the patterns
decided by type and value alone (seed legs — an empty seeded level's
too, since the walk reads them before it stops — and the patterns of
levels past the cache).  Those are folded into ``keys``: a pattern that
names both types as its ``(parent, child)`` pair, or, when it compares
values, as one ``(parent, child, value)`` key per value plus
``(parent, child, None)``.  The engine builds one :class:`EventDigest`
per event, which carries each edge's type pair and its ``(parent_type,
child_type, child_value)`` key, ``None`` for an unknown value; so a
typed pattern matches an edge exactly when the two share a key, an
unknown value still matching every value.  A pattern that leaves a type
open (after ``*`` or ``//``) stays in ``loose`` and is matched edge by
edge.  :meth:`Triggers.meets` is then two mask ANDs and one set test,
and a subscription whose summary the digest does not meet is one whose
walk would find no hit, since every test of a stage is one of these,
made coarser (any pattern's type, any depth).  So it is skipped without
the walk.  On the ``subscribed_durable`` pool's 32,000 decisions
(29,246 of them answered by a summary) the keys took the calls of
:meth:`EdgePattern.matches` from 88,496 to 9,241, all of them now in
the walks; the decisions did not move.  The walk itself reads, for a
pattern that names both types, only the digest's edges of that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.dag_eval import Seed, seed_plan
from repro.index._bits import mask_of
from repro.views.events import EdgeRecord, ViewEvent
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

    depth: int | None = None
    """How many levels below a member of the step's context ``C_i`` the
    relevant edges' parent hangs: 0 for the step's own child edges and
    a filter chain's first edge, ``k − 1`` for its ``k``-th.  ``None``:
    anywhere (a seed leg's edges)."""

    in_region: bool = False
    """Descendant steps: the relevant edges hang off the step's own
    *region* (its output level) — a descendant closure only changes
    through an edge whose parent it contains."""

    def matches(self, rec: EdgeRecord) -> bool:
        """Whether ``rec`` could invalidate a step depending on this
        pattern (type/value test only; node-membership sharpening is the
        caller's job — see :func:`affects`)."""
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
    label: str, ctx: CtxTypes, values: frozenset | None, depth: int | None
) -> list[EdgePattern]:
    if ctx is None:
        return [EdgePattern(None, label, values, depth)]
    return [EdgePattern(parent, label, values, depth) for parent in sorted(ctx)]


def _path_patterns(
    path: XPath,
    ctx: CtxTypes,
    terminal_values: frozenset | None,
    depth: int | None,
) -> list[EdgePattern]:
    """Patterns of a filter-internal relative path.

    ``terminal_values`` restricts the final label's relevant child
    values (a ``p = "s"`` comparison); intermediate chain labels matter
    for any value.  The chain's ``k``-th edge hangs ``k − 1`` levels
    below the path's start, which itself hangs ``depth`` levels below
    the step context.
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
            patterns.extend(_label_patterns(step.label, ctx, values, depth))
            ctx = frozenset((step.label,))
            if depth is not None:
                depth += 1
        elif isinstance(step, FilterStep):
            patterns.extend(_filter_patterns(step.filter, ctx, depth))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
        if any(p == ANY_EDGE for p in patterns):
            return [ANY_EDGE]
    return patterns


def _filter_patterns(
    filt: Filter, ctx: CtxTypes, depth: int | None
) -> list[EdgePattern]:
    if isinstance(filt, LabelTest):
        return []  # node types are immutable: never invalidated
    if isinstance(filt, ExistsPath):
        return _path_patterns(filt.path, ctx, None, depth)
    if isinstance(filt, ValueEq):
        if not filt.path.steps:
            return []  # the context node's own value is immutable
        return _path_patterns(filt.path, ctx, frozenset((filt.value,)), depth)
    if isinstance(filt, (FAnd, FOr)):
        patterns: list[EdgePattern] = []
        for part in filt.parts:
            patterns.extend(_filter_patterns(part, ctx, depth))
        return patterns
    if isinstance(filt, FNot):
        return _filter_patterns(filt.part, ctx, depth)
    raise TypeError(f"unknown filter {filt!r}")  # pragma: no cover


@dataclass(frozen=True)
class Closure:
    """How the cache holds a ``//`` level: the nodes it is the
    descendant-or-self closure of (the level before it).  The decision
    re-derives its membership after the commit; nothing is listed."""

    nodes: set

    def __bool__(self) -> bool:
        return bool(self.nodes)


class Triggers(NamedTuple):
    """A snapshot's trigger summary: what an event must touch for
    :func:`affects` to find anything.  Every membership test of the
    stages up to the first empty level is folded into ``exact`` or
    ``closure``; a pattern decided by type and value alone is folded
    into ``keys``, or kept in ``loose`` when it leaves a type open."""

    exact: int
    """Bitmask of the listed-level nodes the depth-0 patterns test an
    edge's parent against."""
    closure: int
    """Bitmask of the nodes whose closure can matter: the generating
    nodes of every ``//`` level, and the levels a filter chain's deeper
    edges hang below (at any depth: the test is conservative)."""
    keys: frozenset
    """Seed legs (an empty seeded level's too) and the patterns of
    levels past the cache that name both types, as the
    :attr:`EventDigest.keys` of the edges they match: a value-free
    pattern as its ``(parent, child)`` pair, a valued one as a
    ``(parent, child, value)`` key per value and ``(parent, child,
    None)``, the key of an edge whose value is unknown."""
    loose: tuple[EdgePattern, ...]
    """Those patterns with an open parent or child type (after ``*`` or
    ``//``), matched edge by edge."""

    def meets(self, digest: "EventDigest") -> bool:
        """Whether the event ``digest`` describes can reach the cache;
        ``False`` proves :func:`affects` would answer no."""
        if self.exact & digest.parents:
            return True
        if not self.keys.isdisjoint(digest.keys):
            return True
        if self.loose and any(map(digest.matches, self.loose)):
            return True
        return bool(self.closure and self.closure & digest.upward())


class EventDigest:
    """One event as the :class:`Triggers` and the walk read it, built
    once per event at rest: the mask of the edges' parents, the edges
    by ``(parent_type, child_type)``, the keys of those edges, and —
    read at most once, and only when a summary asks — the mask of the
    parents and all their ancestors on the post-commit ``M``."""

    __slots__ = (
        "parents", "keys", "edges", "by_type", "_nodes", "_reach", "_upward"
    )

    def __init__(self, edges, reach):
        by_type: dict[tuple[str, str], list[EdgeRecord]] = {}
        keys = set()
        nodes = set()
        for rec in edges:
            nodes.add(rec.parent)
            pair = (rec.parent_type, rec.child_type)
            by_type.setdefault(pair, []).append(rec)
            keys.add((*pair, rec.child_value))
        keys.update(by_type)
        self.parents = mask_of(nodes)
        self.keys = keys
        """Per edge, its ``(parent_type, child_type)`` pair and its
        ``(parent_type, child_type, child_value)`` key (``None`` for an
        unknown value): a typed pattern matches an edge exactly when
        the two share one of the pattern's :attr:`Triggers.keys`."""
        self.edges = edges
        self.by_type = by_type
        self._nodes = nodes
        self._reach = reach
        self._upward: int | None = None

    def upward(self) -> int:
        """The parents and their ancestors, as a bitmask."""
        if self._upward is None:
            self._upward = self._reach.anc_or_self_mask(self._nodes)
        return self._upward

    def edges_of(self, pattern: EdgePattern):
        """The edges that can match ``pattern``: the group of its type
        pair, or every edge when it leaves a type open."""
        if pattern.parent is None or pattern.child is None:
            return self.edges
        return self.by_type.get((pattern.parent, pattern.child), ())

    def matches(self, pattern: EdgePattern) -> bool:
        """Whether an event edge matches ``pattern`` by type and value."""
        return any(map(pattern.matches, self.edges_of(pattern)))


class Snapshot(NamedTuple):
    """What the subscription cache keeps of one evaluation
    (:meth:`QueryProfile.snapshot`)."""

    levels: list
    triggers: Triggers


class SeededLevel(NamedTuple):
    """A seeded level as the decision reads it."""

    level: int
    """The level; its filter is step ``level``."""
    seed: Seed
    legs: tuple[EdgePattern, ...]
    """The seed leg's patterns, matched without the context."""
    rest: tuple[EdgePattern, ...]
    """The patterns of the filter's other conjuncts."""
    leading: bool = False
    """Whether the steps feeding the level are a step-0 ``//`` and its
    label step: the level is then moved by its legs alone (see the
    module docstring)."""


class Stage(NamedTuple):
    """One stop of the decision's walk (see the module docstring)."""

    stop: int
    """The cached level that ends the walk when it is empty."""
    seeded: SeededLevel | None
    """The seeded level a hit re-derives; ``None``: a hit affects."""
    tests: tuple[tuple[int, bool, tuple[EdgePattern, ...]], ...]
    """``(scope, by_closure, patterns)``: ``patterns`` are read against
    cached level ``scope`` (by ancestor when ``by_closure``), or by type
    and value alone when the cache holds no level ``scope`` (a seed
    leg's scope is past any cache)."""


@dataclass(frozen=True)
class QueryProfile:
    """The per-step edge-dependency patterns of one subscribed path."""

    path: XPath
    per_step: tuple[tuple[EdgePattern, ...], ...]
    seeded: dict[int, SeededLevel] = field(
        default_factory=dict, compare=False
    )
    """The first step feeding each seeded level (its label step, or the
    ``//`` before that) → the level
    (:func:`~repro.core.dag_eval.seed_plan`)."""
    stages: tuple[Stage, ...] = field(default=(), compare=False)
    """The decision's walk (:func:`_stages`): what :func:`affects`
    reads and :meth:`snapshot` folds into the :class:`Triggers`."""

    def snapshot(self, contexts: list) -> Snapshot:
        """What the cache keeps of an evaluation's per-level membership
        (:attr:`~repro.core.dag_eval.EvalResult.contexts`): a ``//``
        level as the :class:`Closure` of the level before it, every
        other level as a set; and the :class:`Triggers` of those
        levels."""
        steps = self.path.steps
        levels: list = []
        for level, members in enumerate(contexts):
            if level and isinstance(steps[level - 1], DescendantStep):
                before = levels[-1]
                levels.append(
                    before if isinstance(before, Closure) else Closure(before)
                )
            else:
                levels.append(
                    members if isinstance(members, set) else set(members)
                )
        return Snapshot(levels, self._triggers(levels))

    def _triggers(self, levels: list) -> Triggers:
        """The trigger summary of ``levels``: :attr:`stages` read up to
        the first empty level, as the walk stops there."""
        exact = closure = 0
        keys: set = set()
        loose: list[EdgePattern] = []
        count = len(levels)
        for stop, _, tests in self.stages:
            if stop < count and not levels[stop]:
                break
            for scope, by_closure, patterns in tests:
                if scope >= count:
                    for pattern in patterns:
                        _fold(pattern, keys, loose)
                    continue
                cached = levels[scope]
                mask = mask_of(
                    cached.nodes if isinstance(cached, Closure) else cached
                )
                if by_closure:
                    closure |= mask
                else:
                    exact |= mask
        return Triggers(exact, closure, frozenset(keys), tuple(loose))


def _fold(pattern: EdgePattern, keys: set, loose: list) -> None:
    """Add a pattern decided by type and value alone to a summary's
    ``keys`` (see :attr:`Triggers.keys`), or to ``loose``."""
    parent, child, values = pattern.parent, pattern.child, pattern.values
    if parent is None or child is None:
        loose.append(pattern)
    elif values is None:
        keys.add((parent, child))
    else:
        keys.add((parent, child, None))
        keys.update((parent, child, value) for value in values)


def _stages(
    steps, per_step, seeded: dict[int, SeededLevel]
) -> tuple[Stage, ...]:
    """The decision's walk, worked out once per query: one stage per
    step, stopping at its input level, except around a seeded level —
    there the feeding steps and the seed leg make one stage that stops
    at the first feeding step's level and re-derives the seeded level
    on a hit, and the filter's other conjuncts one that stops at the
    seeded level."""
    unscoped = len(steps) + 1

    def stage(stop: int, scanned, group: SeededLevel | None = None) -> Stage:
        tests: dict[tuple[int, bool], list[EdgePattern]] = {}
        for index, patterns in scanned:
            for pattern in patterns:
                if pattern.in_region:
                    key = (index + 1, True)
                elif pattern.depth is None:
                    key = (unscoped, False)
                else:
                    key = (index, bool(pattern.depth) or (
                        index > 0
                        and isinstance(steps[index - 1], DescendantStep)
                    ))
                tests.setdefault(key, []).append(pattern)
        return Stage(stop, group, tuple(
            (scope, by_closure, tuple(patterns))
            for (scope, by_closure), patterns in tests.items()
        ))

    stages = []
    index = 0
    while index < len(per_step):
        group = seeded.get(index)
        if group is None:
            stages.append(stage(index, [(index, per_step[index])]))
            index += 1
            continue
        level = group.level
        feeding = [] if group.leading else [
            (step, per_step[step]) for step in range(index, level)
        ]
        stages.append(stage(index, [*feeding, (level, group.legs)], group))
        stages.append(stage(level, [(level, group.rest)]))
        index = level + 1
    return tuple(stages)


def profile_query(path: XPath, root_label: str | None = None) -> QueryProfile:
    """Extract per-step dependencies; ``root_label`` (the DTD root's
    element type) tightens the parent constraint of the first step."""
    per_step: list[tuple[EdgePattern, ...]] = []
    # A seeded level ``i`` is the ``i``-th step: its filter is step ``i``.
    seeds = seed_plan(path.steps)
    seeded: dict[int, SeededLevel] = {}
    ctx: CtxTypes = frozenset((root_label,)) if root_label else None
    for index, step in enumerate(path.steps):
        if isinstance(step, LabelStep):
            per_step.append(tuple(_label_patterns(step.label, ctx, None, 0)))
            ctx = frozenset((step.label,))
        elif isinstance(step, WildcardStep):
            per_step.append((EdgePattern(None, None, depth=0),))
            ctx = None
        elif isinstance(step, DescendantStep):
            per_step.append((REGION_EDGE,))
            ctx = None
        elif isinstance(step, FilterStep):
            seed = seeds.get(index)
            filt = step.filter
            legs: list[EdgePattern] = []
            rest: list[EdgePattern] = []
            for part in filt.parts if isinstance(filt, FAnd) else (filt,):
                if seed is not None and part is seed.part:
                    legs.extend(_filter_patterns(part, ctx, None))
                else:
                    rest.extend(_filter_patterns(part, ctx, 0))
            per_step.append((*legs, *rest))
            if seed is not None:
                start, leading = index - 1, False  # the label step
                if start and isinstance(path.steps[start - 1], DescendantStep):
                    start -= 1
                    leading = start == 0
                seeded[start] = SeededLevel(
                    index, seed, tuple(legs), tuple(rest), leading
                )
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
    return QueryProfile(
        path=path, per_step=tuple(per_step), seeded=seeded,
        stages=_stages(path.steps, per_step, seeded),
    )


class _Scan:
    """One decision's reading of the cached levels after the commit: a
    level resolves on first use, a set as cached, a :class:`Closure`
    through ``evaluator.closure`` on the post-commit ``M``."""

    __slots__ = ("digest", "levels", "evaluator", "_regions")

    def __init__(self, digest: EventDigest, levels: list, evaluator):
        self.digest = digest
        self.levels = levels
        self.evaluator = evaluator
        self._regions: dict[int, object] = {}

    def level(self, level: int):
        """The membership of cached ``level`` after the commit."""
        cached = self.levels[level]
        if not isinstance(cached, Closure):
            return cached
        region = self._regions.get(level)
        if region is None:
            region = self._regions[level] = self.evaluator.closure(
                cached.nodes
            )
        return region

    def hits(self, scope: int, patterns) -> bool:
        """Whether an event edge matches one of ``patterns`` at a node
        cached level ``scope`` holds — at any node when the cache holds
        no level ``scope``.  A pattern reads only the edges of its type
        (:meth:`EventDigest.edges_of`)."""
        members = None
        edges_of = self.digest.edges_of
        for pattern in patterns:
            depth = 0 if pattern.in_region else pattern.depth
            for rec in edges_of(pattern):
                if not pattern.matches(rec):
                    continue
                if members is None:
                    if scope >= len(self.levels):
                        return True
                    members = self.level(scope)
                if depth == 0:
                    if rec.parent in members:
                        return True
                elif _hangs_below(
                    rec.parent, depth, members,
                    self.evaluator.store.parents_of,
                ):
                    return True
        return False


def _hangs_below(node: int, depth: int, scope, parents_of) -> bool:
    """Whether ``node`` has an ancestor exactly ``depth`` levels up in
    ``scope``."""
    nodes = (node,)
    for _ in range(depth):
        nodes = {p for n in nodes for p in parents_of(n)}
    return any(n in scope for n in nodes)


def affects(
    profile: QueryProfile,
    event: ViewEvent,
    levels: list,
    evaluator,
    digest: EventDigest | None = None,
) -> bool:
    """Whether ``event`` may change the result whose levels are cached.

    ``levels`` is :meth:`QueryProfile.snapshot` of the subscription's
    last evaluation at rest, read after the commit through
    ``evaluator``, the post-commit
    :class:`~repro.core.dag_eval.DagXPathEvaluator` at rest (see the
    module docstring for why that is sound).  The walk over
    :attr:`QueryProfile.stages` answers no at the first empty cached
    level, since every later level stays empty; a hit in a seeded stage
    re-derives that level once and goes on when it did not change; any
    other hit answers yes.  ``digest`` is the event's
    :class:`EventDigest` when the caller has built it.
    """
    if digest is None:
        digest = EventDigest(event.edges, evaluator.reach)
    scan = _Scan(digest, levels, evaluator)
    count = len(levels)
    for stop, seeded, tests in profile.stages:
        if stop < count and not levels[stop]:
            return False
        if not any(scan.hits(scope, patterns) for scope, _, patterns in tests):
            continue
        if seeded is None:
            return True
        level = seeded.level
        if level >= count or evaluator.seed_members(
            seeded.seed, scan.level(level - 1)
        ) != levels[level]:
            return True
    return False
