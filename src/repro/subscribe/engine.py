"""Incrementally maintained XPath subscriptions over one published view.

``service.subscribe(path)`` evaluates ``path`` once, eagerly, and from
then on the :class:`SubscriptionRegistry` keeps the result current from
the structured ΔV events every committed operation emits
(:mod:`repro.subscribe.delta`): the commit pipeline's maintain phase
hands it one sealed event per write scope
(:meth:`SubscriptionRegistry.apply_batched`, the only maintenance
entry point).  Per event, every standing subscription gets **one
decision** — ``k = first_affected_step(profile, event, contexts)``
(:mod:`repro.subscribe.deps`), the earliest step whose context the
event's edges can change — and one of **three actions**:

- **skip** (``k is None``) — no event edge intersects any step's
  dependency map: the cached result is provably current; the ``skips``
  counter, an empty delta and the generation tag are set on the spot;
- **cone refresh** — contexts ``C_0 .. C_k`` are intact.  When no
  filter of ``steps[k:]`` can have changed its truth and the event's
  *cone* (the changed edges' children and their descendants) is smaller
  than what re-running ``steps[k:]`` would restart over, memberships
  are re-derived inside the cone only
  (:meth:`SubscriptionRegistry._refresh_cone`): a leading-``//`` query,
  whose step 0 every structural event affects, then costs what the
  event touched;
- **re-evaluation from** ``C_k`` — where the cone declines,
  ``steps[k:]`` re-runs from the cached ``C_k``
  (:meth:`SubscriptionRegistry._reevaluate`, the one caller of
  :meth:`DagXPathEvaluator.evaluate_from` for a refresh).  ``k = 0`` is
  the whole query from the root: coarse events (store rebuilds, or an
  edge list past :data:`DEFAULT_COARSE_THRESHOLD`), an affected step 0,
  or no cached contexts.  Counted as ``suffix_refreshes`` for ``k > 0``
  (as every cone refresh is) and ``full_refreshes`` for ``k = 0``.

That is all there is, and each piece is there because switching it off
was measured (``benchmarks/measurements/pr22/``, the ``BENCHMARK.json``
workload ``subscribed_durable``: 32 subscriptions, ~365 ``ops_per_s``,
``op_p50_ms`` ~3.2).  Without the cone refresh the workload runs 2.0x
slower (~183 ``ops_per_s``, 8 full re-evaluations per commit).  Without
the node-membership sharpening of ``first_affected_step``
(``in_context`` / ``in_region`` in :mod:`~repro.subscribe.deps`) no
event is ever skipped — ``skip_ratio`` 0.56 → 0, evaluations per op
double — which the cone refresh absorbs down to 5% of ``op_p50_ms``,
but every decision changes.  Restarting from ``C_k`` rather than from
the root is what keeps an anchored query's downstream change a
``suffix_refresh``.  What a type/value pattern index, a node-level
watch index and a lazy skip ledger used to add in front of this
decision bought nothing measurable at 32 or at 256 subscriptions once
an evaluation cost 0.07 ms, so the decision is made once, per
subscription, in the open.

Alongside the full result set, each action derives the per-commit
**result delta** from the old/new tuples the registry already holds:
:meth:`Subscription.delta` returns ``(added, removed)`` node ids at
near-zero cost.  Base-update propagation emits *fine-grained* events
(typed :class:`~repro.atg.incremental.PropagationReport` records), so
the same pruning applies to the reverse pipeline.

Every subscription is generation-tagged with the updater's version
counter.  :meth:`Subscription.result` compares tags before answering
and falls back to a full re-evaluation on any mismatch — a missed or
not-yet-emitted event (e.g. reading mid-batch) degrades to
correct-but-slower, never to stale data.  Maintenance runs inside the
writer's critical section (the service write lock) and takes each
subscription's mutex around its action; ``result()`` takes the read
side and the same mutex; ``_members`` guards the subscription list.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext

from repro.metrics.registry import MetricsRegistry
from repro.subscribe.delta import ViewEvent
from repro.subscribe.deps import (
    QueryProfile,
    first_affected_step,
    profile_query,
)
from repro.xpath.ast import (
    DescendantStep,
    FilterStep,
    LabelStep,
    XPath,
)
from repro.xpath.parser import parse_xpath

_STAT_KEYS = (
    "skips",
    "suffix_refreshes",
    "full_refreshes",
    "fallback_refreshes",
    "coarse_fallbacks",
)

#: ``//`` as a one-step path: the descendant-or-self closure of a start
#: context, ancestors first (:meth:`SubscriptionRegistry._refresh_cone`).
_DESCENDANTS = XPath((DescendantStep(),))

#: Above this many edges in one event, scanning every subscription's
#: per-step patterns against every edge costs more than simply
#: re-evaluating, so the registry degrades the event to coarse — a
#: selection on the observable input size.  The default is calibrated
#: by ``benchmarks/test_coarse_fallback.py`` and sits at the measured
#: crossover: 256 worst-case (never-matching) edges at 16 standing
#: queries — fine 1.9–2.0 vs coarse 2.1–2.3 ms at 64, 2.5–2.7 vs
#: 2.2–2.4 ms at 256, 4.9–5.6 vs 2.2–2.3 ms at 1024
#: (``benchmarks/measurements/pr22/``).  Real events match patterns and
#: re-evaluate some queries either way, which only lowers the crossover.
DEFAULT_COARSE_THRESHOLD = 256


class Subscription:
    """One registered XPath with an incrementally maintained result."""

    def __init__(
        self,
        sid: int,
        text: str,
        path: XPath,
        profile: QueryProfile,
        registry: "SubscriptionRegistry",
    ):
        self.id = sid
        self.path = text
        self.query = path
        self.profile = profile
        self.active = True
        self._stats: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self._registry = registry
        self._mutex = threading.Lock()
        self._generation = -1
        self._nodes: tuple[int, ...] = ()
        self._delta: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self._contexts: list[set[int]] | None = None
        """Membership of ``C_0 .. C_n`` as of ``_generation`` — what
        events are pruned against and patched in place."""

    @property
    def stats(self) -> dict[str, int]:
        """Maintenance-action counters (one key per :data:`_STAT_KEYS`).

        A copy: the registry totals and the monotonic fold
        :meth:`close` makes are summed from the live counters, which a
        caller must not be able to edit.
        """
        return dict(self._stats)

    @property
    def generation(self) -> int:
        """The updater generation this subscription's cache reflects."""
        return self._generation

    def result(self) -> tuple[int, ...]:
        """The current result set as a sorted tuple of view node ids.

        Equal — after every committed operation — to
        ``tuple(sorted(service.xpath(self.path).targets))``; stale
        generations trigger an inline full re-evaluation first.
        """
        return self._registry.result_of(self)

    def delta(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(added, removed)`` node ids of the most recent commit.

        Derived in the registry from the old/new result tuples it
        already holds, so the watcher pattern — "tell me what changed,
        not the whole set" — costs nothing extra.  Both tuples are
        sorted; a commit that did not move this result yields
        ``((), ())``, as does a freshly registered subscription.  Reads
        carry the same freshness guarantee as :meth:`result`: a stale
        generation triggers an inline refresh first, and the delta then
        spans everything since the last refreshed generation.
        """
        return self._registry.delta_of(self)

    def close(self) -> None:
        """Stop maintaining this subscription (idempotent)."""
        self._registry.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Subscription(#{self.id} {self.path!r} gen={self._generation} "
            f"|result|={len(self._nodes)})"
        )


class SubscriptionRegistry:
    """All subscriptions of one view; consumes the commit event stream."""

    def __init__(self, updater, lock=None, metrics=None):
        metrics = metrics or MetricsRegistry()
        self.updater = updater
        # The series handle (``labels()`` materializes it at 0 in the
        # exposition); ``stats()["events_processed"]`` reads it back.
        self._m_events = metrics.counter(
            "repro_subscription_events_total",
            "Commit events processed by the subscription registry "
            "(coalesced batches count once).",
        ).labels()
        self._lock = lock
        self._subs: list[Subscription] = []
        self._members = threading.Lock()
        """Guards ``_subs``; taken after a subscription mutex, never
        around one."""
        self._ids = itertools.count(1)
        self._closed_totals: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self.coarse_threshold = DEFAULT_COARSE_THRESHOLD
        """Cost-based fallback: events carrying more edges than this are
        handled as coarse (one full re-evaluation per subscription)
        instead of being scanned edge-by-edge against every pattern."""
        self.publish_seconds = 0.0
        self._cone: tuple[ViewEvent, list[int], set[int]] | None = None
        """The last maintained event's cone (see :meth:`_cone_of`)."""

    # -- registration ------------------------------------------------------------

    def subscribe(self, path: str | XPath) -> Subscription:
        """Register ``path`` and evaluate it eagerly.

        Callers must hold the writer side of the service lock (the
        :class:`~repro.service.facade.ViewService` façade does) so
        registration is serialized against commits.
        """
        parsed = parse_xpath(path) if isinstance(path, str) else path
        store = self.updater.store
        root_label = (
            store.type_of(store.root_id)
            if store.root_id is not None
            else None
        )
        sub = Subscription(
            next(self._ids), str(parsed) or ".", parsed,
            profile_query(parsed, root_label), self,
        )
        with sub._mutex:
            self._reevaluate(sub)
            sub._generation = self.updater.generation
        with self._members:
            # From here on commits build events: the pipeline derives
            # "someone consumes" from this list being non-empty.
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Drop ``sub`` from maintenance (idempotent; folds its stats)."""
        with sub._mutex, self._members:
            sub.active = False
            if sub in self._subs:
                self._subs.remove(sub)
                # Keep the registry-level counters monotonic: fold the
                # closed subscription's tallies into the totals.
                for key in _STAT_KEYS:
                    self._closed_totals[key] += sub._stats[key]

    def __len__(self) -> int:
        return len(self._subs)

    def __iter__(self):
        return iter(list(self._subs))

    # -- the maintenance path (writer's critical section) --------------------------

    def apply_batched(self, event: ViewEvent) -> None:
        """The pipeline's maintain phase: every subscription, one action.

        An event with more edges than :attr:`coarse_threshold` is
        coarsened first; then each standing subscription, under its
        mutex, takes the action :meth:`_apply_event` decides and ends at
        the event's generation with a current result, delta and stats.
        Cost per event: O(subscriptions × patterns × edges) for the
        decisions — bounded by the threshold — plus the refreshes.

        The caller (:class:`~repro.service.pipeline.CommitPipeline`)
        holds the write lock and passes the *sealed* event — one per
        write scope, batches already coalesced.
        """
        with self._members:
            subs = list(self._subs)
        if not subs:
            return
        start = time.perf_counter()
        if not event.coarse and len(event.edges) > self.coarse_threshold:
            event = ViewEvent(
                generation=event.generation,
                coarse=True,
                reason=f"cost_fallback({event.reason})",
            )
            for sub in subs:
                sub._stats["coarse_fallbacks"] += 1
        for sub in subs:
            with sub._mutex:
                self._apply_event(sub, event)
        self.publish_seconds += time.perf_counter() - start
        self._m_events.inc()

    # ``benchmarks/e2e/trace.py`` resolves ``SubscriptionRegistry.handle``
    # by name in the class dict; the alias goes when that table is edited.
    handle = apply_batched

    def _apply_event(self, sub: Subscription, event: ViewEvent) -> None:
        """The decision and its action; callers hold ``sub._mutex``."""
        k = first_affected_step(sub.profile, event, sub._contexts)
        if k is None:
            sub._stats["skips"] += 1
            sub._delta = ((), ())
        else:
            old = sub._nodes
            cached = sub._contexts is not None and len(sub._contexts) > k
            if cached and not event.coarse and self._refresh_cone(sub, k, event):
                # ``k = 0`` too: a leading ``//`` sees every structural
                # event, but the change is confined to the cone.
                sub._stats["suffix_refreshes"] += 1
            else:
                k = k if cached else 0
                self._reevaluate(sub, k)
                sub._stats["suffix_refreshes" if k else "full_refreshes"] += 1
            sub._delta = _diff(old, sub._nodes)
        sub._generation = event.generation

    def _reevaluate(self, sub: Subscription, k: int = 0) -> None:
        """Re-run ``steps[k:]`` from the intact ``C_k``; ``k = 0`` is
        the whole query from the root and needs no cached context."""
        if k:
            intact = sub._contexts[: k + 1]
            path, start = XPath(sub.query.steps[k:]), list(intact[k])
        else:
            intact, path, start = [], sub.query, None
        result = self.updater.evaluator().evaluate_from(path, start=start)
        # ``result.contexts[0]`` is the start context: for a suffix that
        # is ``C_k``, kept as it is.
        fresh = result.contexts[1:] if k else result.contexts
        sub._contexts = intact + [set(c) for c in fresh]
        sub._nodes = tuple(sorted(result.targets))

    def _refresh_cone(self, sub: Subscription, k: int, event: ViewEvent) -> bool:
        """A suffix refresh restricted to the event's *cone*.

        Whether a node belongs to a step context depends on the
        root-to-node paths and on filter truth along them.  Every path
        an event edge creates or destroys ends in the cone — the changed
        edges' children and their descendants — so as long as no filter
        of the suffix can have changed its truth, a node outside the
        cone keeps its membership in every context.  Inside the cone,
        membership is re-derived node by node from the parents,
        ancestors first: in ``C_{j+1}`` iff a parent is in ``C_j``
        (child step), iff the node is in ``C_j`` or a parent is in
        ``C_{j+1}`` (``//``), iff in ``C_j`` and the filter holds there.
        A leading-``//`` subscription's refresh then costs what the
        event touched instead of one pass over every node.

        Returns ``False`` — nothing modified — when the restriction does
        not apply: an event edge matches a pattern of one of the
        suffix's filter steps (truth may have changed outside the cone),
        a cached context is missing, or the cone is no smaller than the
        context an ordinary suffix refresh would restart from.
        """
        steps = sub.query.steps
        contexts = sub._contexts
        if len(contexts) != len(steps) + 1:
            return False  # evaluation stopped at an empty context
        for j in range(k, len(steps)):
            if isinstance(steps[j], FilterStep) and any(
                pattern.matches(rec)
                for pattern in sub.profile.per_step[j]
                for rec in event.edges
            ):
                return False
        cone, stale = self._cone_of(event)
        # What the ordinary refresh would restart over: a ``//`` step
        # expands ``C_k`` to its closure ``C_{k+1}`` before anything else.
        restart = k + 1 if isinstance(steps[k], DescendantStep) else k
        if len(cone) >= len(contexts[restart]):
            return False
        store = self.updater.store
        evaluator = self.updater.evaluator()
        parents_of, type_of = store.parents_of, store.type_of
        current = contexts[k]
        for j in range(k, len(steps)):
            step, old = steps[j], contexts[j + 1]
            if isinstance(step, FilterStep):
                inside = [node for node in cone if node in current]
                if inside:
                    inside = evaluator.evaluate_from(
                        XPath((step,)), start=inside
                    ).targets
                members = set(inside)
            elif isinstance(step, DescendantStep):
                members = set()
                for node in cone:
                    if node in current or any(
                        p in members or (p in old and p not in stale)
                        for p in parents_of(node)
                    ):
                        members.add(node)
            else:
                label = step.label if isinstance(step, LabelStep) else None
                members = {
                    node
                    for node in cone
                    if (label is None or type_of(node) == label)
                    and any(p in current for p in parents_of(node))
                }
            if j + 1 == len(steps) and old & stale != members:
                sub._nodes = tuple(sorted((old - stale) | members))
            old -= stale
            old |= members
            if not old:
                # Like the evaluator: nothing follows an empty context.
                del contexts[j + 2 :]
                sub._nodes = ()
                break
            current = old
        return True

    def _cone_of(self, event: ViewEvent) -> tuple[list[int], set[int]]:
        """``event``'s cone, ancestors first like every ``//`` context,
        and the nodes whose memberships it leaves open: the cone plus
        the changed edges' children that were collected (members of
        nothing now).  Computed once per event, for all subscriptions."""
        if self._cone is None or self._cone[0] is not event:
            store = self.updater.store
            touched = {rec.child for rec in event.edges}
            live = [node for node in touched if store.has_node(node)]
            cone = (
                self.updater.evaluator()
                .evaluate_from(_DESCENDANTS, start=live)
                .targets
                if live
                else []
            )
            self._cone = (event, cone, touched.union(cone))
        return self._cone[1], self._cone[2]

    # -- the read path --------------------------------------------------------------

    def _read(self):
        return self._lock.read() if self._lock is not None else nullcontext()

    def _refresh_if_stale(self, sub: Subscription) -> None:
        """Generation-tagged fallback: a missed or not-yet-emitted event
        (mid-batch reads, a failed commit's bump) costs a full
        re-evaluation, never staleness.  The delta then spans everything
        since the last generation this subscription reflected."""
        if sub._generation != self.updater.generation:
            old = sub._nodes
            self._reevaluate(sub)
            sub._delta = _diff(old, sub._nodes)
            sub._generation = self.updater.generation
            sub._stats["fallback_refreshes"] += 1

    def result_of(self, sub: Subscription) -> tuple[int, ...]:
        """Current result of ``sub`` (see :meth:`Subscription.result`)."""
        with self._read():
            with sub._mutex:
                self._refresh_if_stale(sub)
                return sub._nodes

    def delta_of(
        self, sub: Subscription
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Last-commit ``(added, removed)`` (see :meth:`Subscription.delta`)."""
        with self._read():
            with sub._mutex:
                self._refresh_if_stale(sub)
                return sub._delta

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe registry counters (monotonic across closes)."""
        totals = dict(self._closed_totals)
        for sub in list(self._subs):
            for key in _STAT_KEYS:
                totals[key] += sub._stats[key]
        return {
            "subscriptions": len(self._subs),
            "events_processed": int(self._m_events.value),
            "publish_seconds": self.publish_seconds,
            "coarse_threshold": self.coarse_threshold,
            **totals,
        }


def _diff(
    old: tuple[int, ...], new: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(added, removed)`` between two sorted result tuples."""
    if old == new:
        return ((), ())
    old_set, new_set = set(old), set(new)
    return (
        tuple(sorted(new_set - old_set)),
        tuple(sorted(old_set - new_set)),
    )
