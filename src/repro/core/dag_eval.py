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

**Compile.**  ``p`` is compiled into integer-indexed plans — op codes
for its steps, one plan per filter sub-expression — once per *shape*
(:attr:`~repro.xpath.ast.XPath.shape`), and its constants are bound in:
a repeated query pays for a dictionary lookup (the AST is immutable).

**Top-down pass.**  The step contexts ``C0 ⊇ root, C1, ..., Cn`` are
computed left to right.  A ``//`` step records its *region*
(descendant-or-self closure of the previous context): all of ``L`` when
the previous context is the root and ``M`` is at rest, otherwise a view
that tests a candidate's ancestor row in ``M`` (or a set walked from the
store on a replica, which keeps no ``M``).  The region is listed — a store walk — and
put in ``L``'s order only when the next step walks a list; a seeded next
step reads its membership alone.  Nothing else is recorded:
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
``reach=None`` path of a replica never seeds.

**Filters, on demand.**  The paper evaluates every filter
sub-expression ``q`` at every node by dynamic programming over ``L``
(children before parents): ``val(q, v)`` — does ``q`` hold at ``v`` —
and, behind a ``//``, ``desc(q, v)`` — does ``q`` hold at some
descendant-or-self of ``v``.  Here both are memoised per call and
computed only at the nodes the top-down pass asks about: ``val`` by
recursion over the *plan* (bounded by ``|q|``), never over the data, and
``desc`` by a walk of the descendants-or-self with an explicit stack, so
a deep DAG cannot exhaust Python's.  Each ``(q, v)`` pair is still
computed at most once, so the paper's ``O(|p|·|V|)`` bound holds as the
worst case (a path whose contexts cover the view); a path anchored by
selective steps costs what its contexts touch — the top-down side of
the trade-off Gottlob, Koch & Pichler describe for XPath.  The paper's
sweep over ``L`` is kept as the test reference
(``tests/uncompiled.py``).

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

#: Compiled programs kept per process, one per distinct shape and path:
#: bounded, so ever-new paths cannot grow a long-lived service.
_PROGRAM_CACHE_SIZE = 1024


class Seed(NamedTuple):
    """A seeded label step ``label[leg = value and ...]``."""

    label: str
    part: ValueEq
    """The ``leg = value`` conjunct of the step's filter it starts from
    (``part.path`` is ``leg``, label steps only)."""

    chain: tuple[str, ...]
    """``label`` and the leg's labels, top down."""


@dataclass
class EvalResult:
    """Outcome of evaluating an XPath on the DAG.

    Every evaluation fills ``targets`` and ``contexts``.  ``ep`` and
    ``side_effects`` are an update's (§3.2) and only
    :meth:`DagXPathEvaluator.evaluate` fills them; a read
    (:meth:`DagXPathEvaluator.evaluate_from`, hence ``ViewService.xpath``
    and ``ReplicaView.xpath``) leaves both empty."""

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
        ``//`` level and a set elsewhere, built on first read.  At rest
        a region is live — ``L`` itself after a leading ``//``, a
        :class:`~repro.index._bits.Region` over ``M``'s rows otherwise —
        so it answers as of the evaluation only until the next write;
        ``set(level)`` is a snapshot.

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

    ``reach`` is ``None`` on a replica, which keeps no ``M``
    (:meth:`~repro.replica.view.ReplicaView.xpath`): a descendant
    region is then a set walked from the store's edges, built whole
    before the first membership test, where with ``M`` a region answers
    each test on the candidate's ancestor row — same results, higher
    per-query cost.

    Passing a ``reach`` asserts the triple is *at rest*: ``M`` and ``L``
    are repaired and every node in ``L`` is reachable from the root (no
    deleted subtree is waiting for garbage collection), which holds
    after every commit.  A ``//`` from the root then ranges over ``L``
    itself.

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
        """Targets and contexts only: the read path's entry point (the
        service and replica reads, and the subscription engine).  Seeded
        like :meth:`evaluate`; ``Ep`` and side-effect detection are not
        computed — ``result.ep`` / ``result.side_effects`` stay empty."""
        return self._top_down(path)

    # ------------------------------------------------------------------
    # Filters and closures
    # ------------------------------------------------------------------

    def _filter_values(self, program: "_Program") -> "_FilterValues":
        """Filter truth for one evaluation: every ``holds`` the top-down
        pass asks is answered by the object returned here, on demand."""
        return _FilterValues(program, self.store)

    def closure(self, nodes: list[int]):
        """``nodes ∪ desc(nodes)``: a :class:`~repro.index._bits.Region`
        over ``M`` (membership is one AND on the candidate's ancestor
        row; only listing walks the store), or a set from a store walk
        when there is no ``M`` — consumers only need membership and
        iteration.  The one closure primitive: the ``//`` regions and
        the insert plan's cycle check both ask it."""
        reach = self.reach
        if reach is None:
            return set(nodes) | self.store.descendants_of(nodes)
        return reach.region(self.store, nodes)

    # ------------------------------------------------------------------
    # Top-down pass: contexts and regions
    # ------------------------------------------------------------------

    def _seeds(self, program: "_Program") -> dict[int, Seed]:
        """The levels an evaluation seeds: all of ``program.seeds`` at
        rest, none without ``M`` (a replica).  The one switch for seeding —
        an override returning ``{}`` gives the paper's evaluator."""
        return program.seeds if self.reach is not None else {}

    def _leg_holders(self, seed: Seed):
        """The ``label`` nodes the seed leg ``leg = value`` holds at: up
        from the nodes holding ``value`` through the leg's steps in
        reverse (read-only: may be the store's own value set)."""
        store = self.store
        parents_of, type_of = store.parents_of, store.type_of
        *above, last = seed.chain
        nodes = store.nodes_with_value(last, seed.part.value)
        for label in reversed(above):
            nodes = {
                p for n in nodes for p in parents_of(n) if type_of(p) == label
            }
        return nodes

    def seed_members(self, seed: Seed, context) -> set[int]:
        """The members of a seeded step's context, unordered: the leg's
        holders with a parent in ``context`` (the previous level's
        membership, the region after a ``//``).  What
        :meth:`_seed_context` lists; the subscription engine re-derives
        a cached seeded level with it."""
        parents_of = self.store.parents_of
        members = set()
        for node in self._leg_holders(seed):
            for parent in parents_of(node):
                if parent in context:
                    members.add(node)
                    break
        return members

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
        store = self.store
        parents_of = store.parents_of
        nodes = self._leg_holders(seed)
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
                region = self.topo if at_root else self.closure(current)
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
          through which the previous level was entered, at the level
          they sit at (:meth:`_Match.entry_parents`);
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
        self_match = match.steps[k][0] == _DESCENDANT
        prev_context = match.members(level - 1) if self_match else ()
        for v in targets:
            at, parents = match.entry_parents(level, v, parents_of)
            ep.extend((u, v, at) for u in parents)
            if v in prev_context:  # self-match of the // step
                at, parents = match.entry_parents(level - 1, v, parents_of)
                ep.extend((u, v, at) for u in parents)
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

        The walk stops before a ``//`` level whose region is ``L`` itself
        (``region is self.topo``: a ``//`` from the root, at rest), so it
        never climbs, or lists, the affected nodes' ancestors.  Nothing is
        lost.  At rest every node of the store is in ``L``: every parent
        of a node at that level or the next is in the region, none joins
        ``S`` from either.  The only node of the previous context is the
        root (the region is ``L`` only when that context is
        ``[root]``), which has no parents: the levels below contribute
        nothing either.
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
                if region is self.topo:
                    continue  # every parent is in L; only the root below
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
                if matched is self.topo:
                    continue  # its parents are all in L, where the walk ends
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
    set, a Region or ``L`` itself — only membership is used).  Level
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

    def entry_parents(
        self, level: int, node: int, parents_of
    ) -> tuple[int, list[int]]:
        """The level of the parents through which ``node ∈ C_level``
        entered it, and those parents sorted: its parents in the
        previous context (child step: the level below) or in the region
        (``//`` step: the region's own level); filter levels pass the
        question down, and the start context was entered through no
        edge."""
        steps = self.steps
        while level and steps[level - 1][0] == _FILTER:
            level -= 1
        if not level:
            return 0, []
        if steps[level - 1][0] == _DESCENDANT:
            inside = self.regions[level]
        else:
            level -= 1
            inside = self.members(level)
        return level, sorted(p for p in parents_of(node) if p in inside)


class _Program:
    """One compiled query (integer-indexed plans).

    - ``steps``: the query's own steps as ops — ``(_LABEL, label)`` /
      ``(_WILDCARD,)`` / ``(_FILTER, filter_index)`` / ``(_DESCENDANT,)``.
    - ``path_plans[j] = (ops, value)``: a filter path (same ops) with an
      optional terminal value test.
    - ``filter_plans[k]``: ``(0, label)`` label test, ``(1, path_index)``
      path existence (incl. value tests), ``(2, (k...))`` and,
      ``(3, (k...))`` or, ``(4, k)`` not.
    - ``seeds``: :func:`seed_plan` of the query's steps.

    A plan only names plans compiled before it, so indices run inner
    expressions first within each list.
    """

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.seeds: dict[int, Seed] = {}
        self.path_plans: list[tuple[list[tuple], str | None]] = []
        self.filter_plans: list[tuple] = []
        self.path_index: dict[_PathKey, int] = {}
        self.filter_index: dict[Filter, int] = {}

    def bind(self, params: tuple[str, ...]) -> "_Program":
        """This shape's program, ``params`` bound where constants live."""
        program = _Program()
        program.__dict__.update(self.__dict__)
        program.path_plans = [
            (ops, value if value is None else params[int(value)])
            for ops, value in self.path_plans
        ]
        program.seeds = {
            level: Seed(label, ValueEq(part.path, params[int(part.value)]), chain)
            for level, (label, part, chain) in self.seeds.items()
        }
        return program


class _FilterValues:
    """Filter truth for one evaluation, memoised and computed on demand.

    Each (expression, node) pair is evaluated only when the top-down pass
    asks for it, and at most once.  ``holds`` and ``_ex`` recurse over
    the *plan* (bounded by the filter's size), never over the data: a
    child step asks each child once, and a ``//`` op walks the
    descendants-or-self with an explicit stack (:meth:`_below`).
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
        """Truth of filter plan ``index`` at ``node``."""
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
        """Does path plan ``pindex`` from op ``i`` on hold at ``node``?"""
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
        elif ops[i][0] == _DESCENDANT:
            return self._below(pindex, i, node, memo)
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

    def _below(self, pindex: int, i: int, node: int, memo: dict) -> bool:
        """``desc(q, node)`` for the ``//`` op ``i``: does the rest of
        the plan (op ``i + 1`` on) hold at some descendant-or-self of
        ``node``?

        A depth-first walk with an explicit stack, so a deep DAG cannot
        exhaust Python's.  It keeps no table of its own: ``_ex`` at a
        ``//`` op is exactly ``desc`` of the op after it, so ``memo`` is
        op ``i``'s, and the walk settles every node it enters there —
        false once its whole subtree is walked, true for the stack above
        the first node where the rest holds.  Each node's children are
        read at most once per op and evaluation.
        """
        ex = self._ex
        children_of = self.store.children_of
        rest = i + 1
        if ex(pindex, rest, node):
            memo[node] = True
            return True
        stack = [(node, iter(children_of(node)))]
        while stack:
            for child in stack[-1][1]:
                found = memo.get(child)
                if found is None:
                    found = ex(pindex, rest, child)
                    if not found:  # descend: settled when walked
                        stack.append((child, iter(children_of(child))))
                        break
                    memo[child] = True
                if found:
                    for above, _ in stack:
                        memo[above] = True
                    return True
            else:  # every child settled false
                memo[stack.pop()[0]] = False
        return False


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _compile(path: XPath) -> _Program:
    """``path``'s program: its shape's, constants bound in (never mutated)."""
    if path.shape is not None:
        return _compile(path.shape).bind(path.params)
    program = _Program()
    program.steps = _compile_steps(path, program)
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
                chain = (step.label, *(leg.label for leg in part.path.steps))
                seeds[level] = Seed(step.label, part, chain)
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
    return index
