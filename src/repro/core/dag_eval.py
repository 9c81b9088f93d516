"""Demand-driven XPath evaluation on DAGs with side-effect detection (§3.2).

Given an XPath ``p``, the relational DAG view ``V`` (a
:class:`~repro.views.store.ViewStore`), the topological order ``L`` and
the reachability matrix ``M``, the evaluator computes:

- ``r[[p]]`` — the selected nodes (with their types);
- ``Ep(r)`` — for every selected node ``v``, the parent edges ``(u, v)``
  through which ``p`` reaches ``v`` (needed by deletions);
- ``S`` — the side-effect set: nodes through which an *unselected*
  occurrence of an affected node is reachable.  ``S ≠ ∅`` iff the update
  has XML side effects under the paper's revised semantics.

Every entry point runs one pipeline, and the top-down pass drives it:

**Compile.**  ``p`` is compiled once into integer-indexed plans — op
codes for its steps, one plan per filter sub-expression — and cached per
path (the AST is immutable), so a repeated query pays for a dictionary
lookup.

**Top-down pass.**  The step contexts ``C0 ⊇ root, C1, ..., Cn`` are
computed left to right.  A ``//`` step records its *region*
(descendant-or-self closure of the previous context): all of ``L`` when
the previous context is the root and ``M`` is at rest, otherwise fetched
from ``M`` (or walked from the store while ``M`` is stale).  The region
is listed in ``L``'s order only when the next step walks a list; a
seeded next step reads its membership alone.  Nothing else is recorded:
the parents through which a node entered ``Ci`` are its parents inside
``C(i-1)`` (child step) or inside the region (``//`` step), and are
derived from the contexts at the few nodes ``Ep`` and the side-effect
walk visit.

Every value-filtered label step ``label[leg = value and ...]`` (``leg``
zero or more label child steps) is *seeded* at rest, by ``evaluate``
and ``evaluate_from`` alike: DAG compression interns one node per
(type, value), so the store's value index names the nodes holding
``value``, and walking up from them through the leg's steps in reverse
gives the ``label`` nodes the leg holds at.  Those with a parent in the
previous context (the region, after a ``//``) are the step's context,
in the order the full step would list them, and the whole filter is
tested only there — the pass no longer expands every child of the
previous context (all of ``L`` after a leading ``//``; every child of
the root for ``cnode[key=a]/...``).  ``Ep`` and the side-effect walk are
unchanged: they read the regions, the filtered contexts, and a seeded
label level only at nodes that passed its filter — none of which
seeding changes.  :func:`seed_plan` is the one statement of which steps
seed; the subscription engine's dependency analysis reads it too.  The
``reach=None`` mid-batch path never seeds.

**Filters, on demand.**  The paper evaluates every filter
sub-expression ``q`` at every node by dynamic programming over ``L``
(children before parents): ``val(q, v)`` — does ``q`` hold at ``v`` —
and, behind a ``//``, ``desc(q, v)`` — does ``q`` hold at some
descendant-or-self of ``v``.  Here ``val`` is memoised per call and
computed only at the nodes the top-down pass asks about, recursing over
the *plan* (bounded by ``|q|``), never over the data; only filters with
a ``//`` inside them, whose ``desc`` tables would recurse over the
possibly deep DAG, keep the paper's sweep over ``L``.  Each
``(q, v)`` pair is still computed at most once from its children's
values, so the paper's ``O(|p|·|V|)`` bound holds as the worst case (a
path whose contexts cover the view); a path anchored by selective steps
costs what its contexts touch.

**Side-effect detection.**  The update affects node ``w`` (the selected
node for insertions; the modified parent for deletions).  There is a side
effect iff some root-to-``w`` path is not matched by the relevant prefix
of ``p``.  The detector walks *backwards* from the affected nodes through
the matched structure; any incoming edge from outside it witnesses an
unmatched occurrence and its source node is added to ``S``.  This refines
the paper's per-step rule (which flags parents of every intermediate
context) to the nodes actually affected, while keeping the same
single-pass complexity.  It reads contexts and regions only, never
filter values, so how the filters were evaluated cannot change ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex
from repro.views.store import ViewStore
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

_PathKey = tuple[XPath, str | None]

# Step op codes, shared by the query's own steps and its filter paths.
_LABEL, _WILDCARD, _FILTER, _DESCENDANT = range(4)

_MODES = ("insert", "delete")

#: Compiled programs kept per process: one per distinct path read,
#: written or subscribed.  Bounded so a long-lived service that sees
#: ever-new paths cannot grow without limit.
_PROGRAM_CACHE_SIZE = 1024


class Seed(NamedTuple):
    """A seeded label step ``label[leg = value and ...]``."""

    label: str
    part: ValueEq
    """The ``leg = value`` conjunct of the step's filter it starts from
    (``part.path`` is ``leg``, label steps only)."""


@dataclass
class EvalResult:
    """Outcome of evaluating an XPath on the DAG."""

    path: XPath
    targets: list[int] = field(default_factory=list)
    ep: list[tuple[int, int, int]] = field(default_factory=list)
    """``Ep(r)`` as (parent, child, parent_level) triples."""
    side_effects: set[int] = field(default_factory=set)
    _match: "_Match | None" = field(default=None, repr=False, compare=False)

    @property
    def contexts(self) -> list:
        """Membership of ``C_0 .. C_k``, up to the first empty one (the
        levels after it are empty and not listed): the region at a
        ``//`` level — ``L`` itself after a leading ``//`` at rest, so
        a live container, not a snapshot — and a set elsewhere, built
        on first read.

        Exact, except at the levels :func:`seed_plan` names, at rest:
        there ``contexts[i]`` holds only the candidates reached upward
        from the nodes holding the value — a subset of the unseeded
        ``C_i``.  Every other level is exact, since the filter keeps
        only nodes the leg holds at.  Order is not kept: ``targets`` is
        the last level in document-like order."""
        match = self._match
        if match is None:
            return []
        return [match.members(level) for level in range(len(match.contexts))]

    @property
    def has_side_effects(self) -> bool:
        return bool(self.side_effects)

    def ep_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, _ in self.ep]


class DagXPathEvaluator:
    """Evaluator bound to one (store, topo, reachability) triple.

    ``reach`` may be ``None`` when the reachability index is stale or
    absent (batched update sessions defer its repair): descendant
    regions are then computed by walking the store's edges instead of
    reading ``M`` rows — same results, higher per-query cost.

    Passing a ``reach`` asserts the triple is *at rest*: ``M`` and ``L``
    are repaired and every node in ``L`` is reachable from the root (no
    deleted subtree is waiting for garbage collection).  A ``//`` from
    the root then ranges over ``L`` itself.  While collection is
    pending — ``XMLViewUpdater.evaluator`` knows — pass ``None``, or
    the orphans still listed in ``L`` would be selected.

    An evaluation keeps its state in per-call objects, so one evaluator
    can serve concurrent readers of an unchanging view.
    """

    def __init__(
        self,
        store: ViewStore,
        topo: TopoOrder,
        reach: ReachabilityIndex | None,
    ):
        self.store = store
        self.topo = topo
        self.reach = reach

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(self, path: XPath, mode: str = "insert") -> EvalResult:
        """Evaluate ``path``; ``mode`` selects whose occurrences the
        side-effect check protects ('insert': the selected nodes;
        'delete': the modified parents from ``Ep``)."""
        if mode not in _MODES:
            raise ValueError(f"unknown side-effect mode {mode!r}")
        result = self._top_down(path)
        if result.targets:
            match = result._match
            result.ep = self._compute_ep(path, match, result.targets)
            self._detect_side_effects(result, match, mode)
        return result

    def evaluate_from(self, path: XPath) -> EvalResult:
        """Targets and contexts only: the subscription engine's entry
        point.  Seeded like :meth:`evaluate`; ``Ep`` and side-effect
        detection are not computed — ``result.ep`` /
        ``result.side_effects`` stay empty."""
        return self._top_down(path)

    # ------------------------------------------------------------------
    # Filters: on demand, or the bottom-up sweep
    # ------------------------------------------------------------------

    def _filter_values(
        self, program: "_Program"
    ) -> "_FilterValues | _LazyFilterValues":
        """Filter truth for one evaluation, chosen from the plan alone.

        Filters without ``//`` inside them are answered on demand at the
        nodes the top-down pass consults; a plan with a descendant op
        takes the bottom-up sweep over all of ``L``.
        """
        if program.lazy:
            return _LazyFilterValues(program, self.store)
        return self._bottom_up(program)

    def _closure(self, nodes: list[int]):
        """``nodes ∪ desc(nodes)``: a MaskView from ``M`` (one union of
        descendant rows, no per-node set), or a set from a store walk
        when there is no ``M`` — consumers only need membership and
        iteration."""
        reach = self.reach
        if reach is None:
            return set(nodes) | self.store.descendants_of(nodes)
        return reach.desc_mask_of_set(nodes).with_nodes(nodes)

    def _bottom_up(self, program: "_Program") -> "_FilterValues":
        """Evaluate every filter sub-expression at every node.

        A single pass over ``L`` (children before parents) fills
        per-expression truth tables from the integer-indexed plans.
        """
        values = _FilterValues(program)
        if not program.units:
            return values
        store = self.store
        children_of = store.children_of
        type_of = store.type_of
        value_of = store.value_of
        ex_tables = values.ex_tables
        dsc_tables = values.dsc_tables
        f_tables = values.f_tables
        for node in self.topo:
            # descendants (children) first
            children = children_of(node)
            for kind, index in program.units:
                if kind == "path":
                    ops, value = program.path_plans[index]
                    ex_rows = ex_tables[index]
                    dsc_rows = dsc_tables[index]
                    for i in range(len(ops), -1, -1):
                        if i == len(ops):
                            ex = True if value is None else (
                                value_of(node) == value
                            )
                        else:
                            op = ops[i]
                            code = op[0]
                            if code == _LABEL:
                                nxt = ex_rows[i + 1]
                                label = op[1]
                                ex = any(
                                    type_of(c) == label and nxt[c]
                                    for c in children
                                )
                            elif code == _WILDCARD:
                                nxt = ex_rows[i + 1]
                                ex = any(nxt[c] for c in children)
                            elif code == _FILTER:
                                ex = (
                                    f_tables[op[1]][node]
                                    and ex_rows[i + 1][node]
                                )
                            else:  # descendant-or-self
                                ex = dsc_rows[i + 1][node]
                        ex_rows[i][node] = ex
                        row = dsc_rows[i]
                        row[node] = ex or any(row[c] for c in children)
                else:
                    op = program.filter_plans[index]
                    code = op[0]
                    if code == 0:  # label test
                        result = type_of(node) == op[1]
                    elif code == 1:  # exists/value path
                        result = ex_tables[op[1]][0][node]
                    elif code == 2:  # and
                        result = all(f_tables[k][node] for k in op[1])
                    elif code == 3:  # or
                        result = any(f_tables[k][node] for k in op[1])
                    else:  # code == 4: not
                        result = not f_tables[op[1]][node]
                    f_tables[index][node] = result
        return values

    # ------------------------------------------------------------------
    # Top-down pass: contexts and regions
    # ------------------------------------------------------------------

    def _seeds(self, program: "_Program") -> dict[int, Seed]:
        """The levels an evaluation seeds: all of ``program.seeds`` at
        rest, none while ``M`` is stale.  The one switch for seeding —
        an override returning ``{}`` gives the paper's evaluator."""
        return program.seeds if self.reach is not None else {}

    def _seed_context(self, seed: Seed, prev: list[int], region) -> list[int]:
        """The context of a seeded ``label[leg = value and ...]`` step.

        Walk up from the nodes holding ``value`` through the leg's steps
        in reverse to their ``label`` parents, and keep those with a
        parent in the previous context — ``region`` after a ``//`` step
        (``None`` otherwise: the list ``prev``).  That is exactly the
        members of the unseeded context the leg holds at, put in its
        order: by their earliest parent in ``prev``'s order (``L``
        reversed after a ``//``, so the region is neither listed nor
        ranked), then by that parent's child order.
        """
        label, part = seed
        store = self.store
        parents_of, type_of = store.parents_of, store.type_of
        chain = (label, *(step.label for step in part.path.steps))
        nodes = store.nodes_with_value(chain[-1], part.value)
        for above in reversed(chain[:-1]):
            nodes = {
                p for n in nodes for p in parents_of(n) if type_of(p) == above
            }
        if region is None:  # rank the list the unseeded step would walk
            region = {u: i for i, u in enumerate(prev)}
            key, earliest, backward = region.__getitem__, min, False
        else:
            key, earliest, backward = self.topo.position, max, True
        by_first: dict[int, list[int]] = {}
        for node in nodes:
            parents = [p for p in parents_of(node) if p in region]
            if parents:
                by_first.setdefault(earliest(parents, key=key), []).append(node)
        context: list[int] = []
        for parent in sorted(by_first, key=key, reverse=backward):
            siblings = by_first[parent]
            if len(siblings) > 1:
                order = {c: i for i, c in enumerate(store.children_of(parent))}
                siblings.sort(key=order.__getitem__)
            context.extend(siblings)
        return context

    def _top_down(self, path: XPath) -> EvalResult:
        """Targets and the matched structure (``result._match``)."""
        store = self.store
        if store.root_id is None:
            raise ValueError("store has no root")
        program = _compile(path)
        values = self._filter_values(program)
        seeds = self._seeds(program)
        children_of = store.children_of
        type_of = store.type_of
        current = [store.root_id]
        match = _Match(program.steps, current)
        for level, op in enumerate(program.steps, start=1):
            code = op[0]
            if code == _FILTER:
                holds, index = values.holds, op[1]
                current = [u for u in current if holds(index, u)]
            elif code == _DESCENDANT:
                # At rest (the constructor's contract) L lists exactly
                # the root's descendants-or-self: no row read.
                at_root = self.reach is not None and current == [store.root_id]
                region = self.topo if at_root else self._closure(current)
                match.regions[level] = region
                if level + 1 in seeds:
                    # The seeded step reads the region's membership and
                    # ``L``'s positions only: the level is never listed.
                    match.contexts.append(None)
                    continue
                if at_root:
                    current = list(self.topo.backward())
                else:
                    current = self.topo.sort_nodes(region)
                    current.reverse()  # ancestors first: document-like
            elif level in seeds:
                current = self._seed_context(
                    seeds[level], current, match.regions.get(level - 1)
                )
            else:
                label = op[1] if code == _LABEL else None
                seen: set[int] = set()
                reached: list[int] = []
                for u in current:
                    for c in children_of(u):
                        if c not in seen and (
                            label is None or type_of(c) == label
                        ):
                            seen.add(c)
                            reached.append(c)
                current = reached
            match.contexts.append(current)
            if not current:
                break
        return EvalResult(path, targets=list(current), _match=match)

    def _compute_ep(
        self, path: XPath, match: "_Match", targets: list[int]
    ) -> list[tuple[int, int, int]]:
        """``Ep(r)``: parent edges through which ``p`` reaches the targets.

        The relevant step is the last non-filter step ``k``:
        - child step: the parents inside the previous context, at level
          k-1;
        - ``//`` step: every in-region parent (level k, still inside the
          descendant segment) plus, for self-matches, the parents
          through which the previous level was entered;
        - no such step (pure filter path): the targets have no parent
          edge (root selection), ``Ep = ∅``.
        Filters after ``k`` only narrow the target set.
        """
        k = path.last_child_step_index
        if k is None:
            return []
        level = k + 1  # contexts are 1-based w.r.t. steps
        parents_of = self.store.parents_of
        ep: list[tuple[int, int, int]] = []
        # Parents reached by a // step are still inside its segment.
        inside = match.steps[k][0] == _DESCENDANT
        prev_context = match.members(level - 1) if inside else ()
        for v in targets:
            for u in match.entry_parents(level, v, parents_of):
                ep.append((u, v, level if inside else level - 1))
            if v in prev_context:  # self-match of the // step
                for u in match.entry_parents(level - 1, v, parents_of):
                    ep.append((u, v, level - 1))
        return ep

    # ------------------------------------------------------------------
    # Side-effect detection
    # ------------------------------------------------------------------

    def _detect_side_effects(
        self, result: EvalResult, match: "_Match", mode: str
    ) -> None:
        """Populate ``result.side_effects`` (the set ``S``).

        Walk backwards from the affected nodes through the matched
        structure; every incoming DAG edge that leaves the matched
        structure witnesses an occurrence the path did not select, and
        its source node joins ``S``.
        """
        if mode == "insert":
            last_level = len(match.contexts) - 1
            stack = [(v, last_level) for v in result.targets]
        else:
            stack = list(dict.fromkeys((u, lvl) for u, _, lvl in result.ep))
        parents_of = self.store.parents_of
        steps = match.steps
        seen: set[tuple[int, int]] = set()
        S = result.side_effects
        while stack:
            node, level = stack.pop()
            if (node, level) in seen:
                continue
            seen.add((node, level))
            if level <= 0:
                continue  # root level: no incoming edges to classify
            code = steps[level - 1][0]
            if code == _FILTER:
                # Pass-through level: same node one level down.
                stack.append((node, level - 1))
            elif code == _DESCENDANT:
                region = match.regions[level]
                in_prev = node in match.members(level - 1)
                for parent in parents_of(node):
                    if parent in region:
                        stack.append((parent, level))
                    elif not in_prev:
                        S.add(parent)
                if in_prev:
                    stack.append((node, level - 1))
            else:
                # A node the walk placed at this level without the step
                # having reached it has no matched parent at all.
                matched = (
                    match.members(level - 1)
                    if node in match.members(level)
                    else ()
                )
                for parent in parents_of(node):
                    if parent in matched:
                        stack.append((parent, level - 1))
                    else:
                        S.add(parent)


class _Match:
    """The matched structure of one evaluation, owned by the call.

    ``contexts[i]`` is ``C_i`` in document-like order, or ``None`` at a
    ``//`` level a seeded step follows (never listed); ``regions[i]`` is
    the descendant-or-self closure a ``//`` step ``i`` ranges over (a
    set, a MaskView or ``L`` itself — only membership is used).  Level
    ``i`` means "member of ``C_i``"; for a ``//`` step the whole region
    lives at level ``i``.
    """

    __slots__ = ("steps", "contexts", "regions", "_members")

    def __init__(self, steps: list[tuple], start: list[int]):
        self.steps = steps
        self.contexts: list[list[int] | None] = [start]
        self.regions: dict[int, object] = {}
        self._members: dict[int, object] = {}

    def members(self, level: int):
        """``C_level`` as a membership container, built on first use."""
        members = self._members.get(level)
        if members is None:
            members = self.regions.get(level)  # a // context is its region
            if members is None:
                members = set(self.contexts[level])
            self._members[level] = members
        return members

    def entry_parents(self, level: int, node: int, parents_of) -> list[int]:
        """Sorted parents through which ``node ∈ C_level`` entered it:
        its parents in the previous context (child step) or in the
        region (``//`` step); filter levels pass the question down, and
        the start context was entered through no edge."""
        steps = self.steps
        while level and steps[level - 1][0] == _FILTER:
            level -= 1
        if not level:
            return []
        if steps[level - 1][0] == _DESCENDANT:
            inside = self.regions[level]
        else:
            inside = self.members(level - 1)
        return sorted(p for p in parents_of(node) if p in inside)


class _Program:
    """One compiled query (integer-indexed plans).

    - ``steps``: the query's own steps as ops — ``(_LABEL, label)`` /
      ``(_WILDCARD,)`` / ``(_FILTER, filter_index)`` / ``(_DESCENDANT,)``.
    - ``path_plans[j] = (ops, value)``: a filter path (same ops) with an
      optional terminal value test.
    - ``filter_plans[k]``: ``(0, label)`` label test, ``(1, path_index)``
      path existence (incl. value tests), ``(2, (k...))`` and,
      ``(3, (k...))`` or, ``(4, k)`` not.
    - ``units``: the evaluation order — inner expressions first, so the
      per-node sweep can run plans in list order.
    - ``lazy``: no filter path has a descendant op, so filter truth can
      be computed on demand by recursion over the plans.
    - ``seeds``: :func:`seed_plan` of the query's steps.
    """

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.seeds: dict[int, Seed] = {}
        self.units: list[tuple[str, int]] = []
        self.path_plans: list[tuple[list[tuple], str | None]] = []
        self.filter_plans: list[tuple] = []
        self.path_index: dict[_PathKey, int] = {}
        self.filter_index: dict[Filter, int] = {}
        self.lazy = True


class _FilterValues:
    """Per-node truth tables for every compiled expression."""

    def __init__(self, program: _Program):
        self.ex_tables = [
            [dict() for _ in range(len(ops) + 1)]
            for ops, _ in program.path_plans
        ]
        self.dsc_tables = [
            [dict() for _ in range(len(ops) + 1)]
            for ops, _ in program.path_plans
        ]
        self.f_tables = [dict() for _ in program.filter_plans]

    def holds(self, index: int, node: int) -> bool:
        """Truth of filter plan ``index`` at ``node`` (unswept: False)."""
        return self.f_tables[index].get(node, False)


class _LazyFilterValues:
    """On-demand, memoized filter truth — for filters without ``//``.

    Presents the same ``holds`` interface as :class:`_FilterValues` but
    evaluates each (expression, node) pair only when the top-down pass
    asks for it, recursing over the *plan* (bounded by the filter's step
    count) rather than the data.  Plans containing descendant-or-self
    ops would recurse over the possibly deep DAG, so those stay on the
    bottom-up sweep (``_Program.lazy``).
    """

    def __init__(self, program: _Program, store: ViewStore):
        self.program = program
        self.store = store
        self._f_memo: list[dict[int, bool]] = [
            {} for _ in program.filter_plans
        ]
        self._ex_memo: list[list[dict[int, bool]]] = [
            [{} for _ in range(len(ops) + 1)]
            for ops, _ in program.path_plans
        ]

    def holds(self, index: int, node: int) -> bool:
        memo = self._f_memo[index]
        cached = memo.get(node)
        if cached is not None:
            return cached
        plan = self.program.filter_plans[index]
        code = plan[0]
        if code == 0:  # label test
            result = self.store.type_of(node) == plan[1]
        elif code == 1:  # exists/value path
            result = self._ex(plan[1], 0, node)
        elif code == 2:  # and
            result = all(self.holds(k, node) for k in plan[1])
        elif code == 3:  # or
            result = any(self.holds(k, node) for k in plan[1])
        else:  # code == 4: not
            result = not self.holds(plan[1], node)
        memo[node] = result
        return result

    def _ex(self, pindex: int, i: int, node: int) -> bool:
        memo = self._ex_memo[pindex][i]
        cached = memo.get(node)
        if cached is not None:
            return cached
        ops, value = self.program.path_plans[pindex]
        store = self.store
        if i == len(ops):
            result = value is None or store.value_of(node) == value
        elif ops[i][0] == _FILTER:
            result = self.holds(ops[i][1], node) and self._ex(
                pindex, i + 1, node
            )
        elif ops[i][0] == _DESCENDANT:  # pragma: no cover - _Program.lazy
            raise AssertionError("descendant plans require the bottom-up sweep")
        else:
            label = ops[i][1] if ops[i][0] == _LABEL else None
            type_of = store.type_of
            result = False
            for c in store.children_of(node):
                if (label is None or type_of(c) == label) and self._ex(
                    pindex, i + 1, c
                ):
                    result = True
                    break
        memo[node] = result
        return result


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _compile(path: XPath) -> _Program:
    """The compiled program of ``path`` — shared, never mutated after."""
    program = _Program()
    program.steps = _compile_steps(path, program)
    program.lazy = not any(
        op[0] == _DESCENDANT for ops, _ in program.path_plans for op in ops
    )
    program.seeds = seed_plan(path.steps)
    return program


def seed_plan(steps: tuple) -> dict[int, Seed]:
    """The levels an evaluation at rest seeds, for a query with these
    steps: level ``i`` (the ``i``-th step, 1-based) for every ``label``
    step followed by a filter whose top-level ``and`` has a
    ``leg = value`` part over label child steps only (no ``*``, ``//``
    or filter in it); no ``or`` / ``not`` at the top.  The first such
    part is the one seeded from."""
    seeds: dict[int, Seed] = {}
    for level, (step, nxt) in enumerate(zip(steps, steps[1:]), start=1):
        if not (isinstance(step, LabelStep) and isinstance(nxt, FilterStep)):
            continue
        filt = nxt.filter
        for part in filt.parts if isinstance(filt, FAnd) else (filt,):
            if isinstance(part, ValueEq) and all(
                isinstance(leg_step, LabelStep) for leg_step in part.path.steps
            ):
                seeds[level] = Seed(step.label, part)
                break
    return seeds


def _compile_steps(path: XPath, program: _Program) -> list[tuple]:
    ops: list[tuple] = []
    for step in path.steps:
        if isinstance(step, LabelStep):
            ops.append((_LABEL, step.label))
        elif isinstance(step, WildcardStep):
            ops.append((_WILDCARD,))
        elif isinstance(step, FilterStep):
            ops.append((_FILTER, _compile_filter(step.filter, program)))
        elif isinstance(step, DescendantStep):
            ops.append((_DESCENDANT,))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown step {step!r}")
    return ops


def _compile_path(path: XPath, value: str | None, program: _Program) -> int:
    key: _PathKey = (path, value)
    existing = program.path_index.get(key)
    if existing is not None:
        return existing
    ops = _compile_steps(path, program)
    index = len(program.path_plans)
    program.path_plans.append((ops, value))
    program.path_index[key] = index
    program.units.append(("path", index))
    return index


def _compile_filter(filt: Filter, program: _Program) -> int:
    existing = program.filter_index.get(filt)
    if existing is not None:
        return existing
    if isinstance(filt, LabelTest):
        plan: tuple = (0, filt.label)
    elif isinstance(filt, ExistsPath):
        plan = (1, _compile_path(filt.path, None, program))
    elif isinstance(filt, ValueEq):
        plan = (1, _compile_path(filt.path, filt.value, program))
    elif isinstance(filt, FAnd):
        plan = (2, tuple(_compile_filter(p, program) for p in filt.parts))
    elif isinstance(filt, FOr):
        plan = (3, tuple(_compile_filter(p, program) for p in filt.parts))
    elif isinstance(filt, FNot):
        plan = (4, _compile_filter(filt.part, program))
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown filter {filt!r}")
    index = len(program.filter_plans)
    program.filter_plans.append(plan)
    program.filter_index[filt] = index
    program.units.append(("filter", index))
    return index
