"""Incrementally maintained XPath subscriptions over one published view.

``service.subscribe(path)`` evaluates ``path`` once, eagerly, and from
then on the :class:`SubscriptionRegistry` keeps the result current from
the structured ΔV events every committed operation emits
(:mod:`repro.views.events`): the commit pipeline's maintain phase
hands it one sealed event per write scope
(:meth:`SubscriptionRegistry.apply_batched`, the only maintenance
entry point), always at rest.  Per event, every standing subscription
gets **one decision** — ``affects(profile, event, levels, evaluator)``
(:mod:`repro.subscribe.deps`): can any event edge change the result? —
and one of **two actions**:

- **skip** (no, or the event misses the subscription's trigger summary)
  — no event edge changes a level the cache holds, read after the
  commit by membership: the cached result is provably current; the
  ``skips`` counter, an empty delta and the generation tag are set on
  the spot;
- **re-evaluate from the root** — anything else: one seeded
  :meth:`DagXPathEvaluator.evaluate_from` of the whole query
  (:meth:`SubscriptionRegistry._reevaluate`), diffed against the cached
  result and counted as ``full_refreshes``.  Two cases take it
  undecided: an event with more edges than
  :data:`DEFAULT_COARSE_THRESHOLD` (the cost fallback, counted as
  ``coarse_fallbacks``), and a subscription whose last evaluation ran
  while ``M`` was stale (read or subscribed mid-batch), which keeps no
  cache to decide on.

Nothing sits between the two, because the re-evaluation is the one every
read runs: each ``label[leg = value]`` step starts from the value's node
and a ``//`` level before one is never listed, so a refresh costs what
its contexts touch.  Partial refreshes that restart from cached contexts
measured no faster than that on the ``BENCHMARK.json`` workload
``subscribed_durable`` (32 subscriptions; subscription time per commit
0.76 → 0.57 ms without them, on the same 1,000 commits and the same
skips).  The node-membership sharpening of the decision is what makes a
skip possible at all: without it no event on that workload is ever
skipped.  Every cached level is read by membership — a listed level as a
set, a ``//`` level as the nodes it closes over, re-derived on the
post-commit ``M``, a seeded level re-derived from the value index, a
filter chain's deeper edges tested against their own ancestors — so a
leading ``//`` path refreshes only when its seeded level or a region it
reads moves.  On that workload's 1,000 commits this took the refreshes
from 14,356 to 332 (``skip_ratio`` 0.551 → 0.990; 201 of the 332 changed
a result).  The decision's one post-commit evaluator is built once per
event and shared by every subscription's decision and refresh.

Once refreshes were that rare, the decisions themselves were the cost:
32,000 scans for 332 refreshes.  So each subscription keeps a trigger
summary of its cache (:class:`~repro.subscribe.deps.Triggers`, folded by
:meth:`QueryProfile.snapshot` from the stages the decision walks), each
event one :class:`~repro.subscribe.deps.EventDigest`, and a subscription
whose summary the digest does not meet is skipped without the walk.
On the same 1,000 commits the summaries took the scans from 32,000 to
2,754 (W1 8,000 → 1,466, W2 18,000 → 356, W3 6,000 → 932) with the same
skips and refreshes, and ``seed_members`` calls fell from 9,621 to 1,621 once
a seeded level after a leading ``//`` stopped re-deriving on every edge
under the root; the workload's ``ops_per_s`` rose 1.17x (ten alternating
pairs, all ten won).  A registry-level type/value pattern index,
node-level watch index and lazy skip ledger in front of the decision had
bought nothing measurable at 32 or at 256 subscriptions when a refresh
followed 45% of the decisions; they stay out.  The summary is per
subscription, read from the cache the decision reads, and the skip
bookkeeping stays eager.

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
from repro.subscribe.deps import (
    EventDigest,
    QueryProfile,
    affects,
    profile_query,
)
from repro.views.events import ViewEvent
from repro.xpath.ast import XPath
from repro.xpath.parser import parse_xpath

_STAT_KEYS = (
    "skips",
    "full_refreshes",
    "fallback_refreshes",
    "coarse_fallbacks",
)

#: Above this many edges in one event, deciding every subscription
#: against every edge costs more than simply re-evaluating, so the
#: registry re-evaluates every subscription without deciding — a
#: selection on the observable input size.  The default is calibrated by
#: ``benchmarks/test_coarse_fallback.py`` (best of five, 2 shared Xeon
#: cores) and is the first power of two past the measured crossover of
#: worst-case (never-matching) edges at 16 standing queries.  With the
#: trigger summaries the four leading-``//`` queries skip such events
#: without a scan, while each refresh also builds a summary, and the
#: crossover moved from 64–96 to 128–160 edges (six passes per side,
#: alternating, one host): fine vs coarse ms at 64 / 96 / 128 / 160
#: edges read 0.50–0.54 vs 0.95–1.01, 0.71–0.76 vs 0.97–1.03,
#: 0.92–0.97 vs 0.98–1.03 and 1.10–1.13 vs 0.95–1.03, against
#: 0.70–0.72 vs 0.84–0.90, 0.98–1.04 vs 0.82–0.85, 1.25–1.32 vs
#: 0.82–0.89 and 1.52–1.57 vs 0.82–0.88 before.  Real events match
#: patterns and re-evaluate some queries either way, which only lowers
#: the crossover.
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
        self._contexts: list | None = None
        """``C_0 .. C_n`` as of ``_generation``, cached by
        :meth:`QueryProfile.snapshot` — a set per listed level, a ``//``
        level as the nodes it closes over, re-derived after each commit
        — what events are decided against; ``None`` after an evaluation
        with ``M`` stale (see :meth:`SubscriptionRegistry._reevaluate`)."""
        self._triggers = None
        """The :class:`~repro.subscribe.deps.Triggers` of ``_contexts``
        (``None`` with them)."""

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
        """Cost-based fallback: events carrying more edges than this
        cost one full re-evaluation per subscription instead of being
        scanned edge-by-edge against every pattern."""
        self.publish_seconds = 0.0

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

        Each standing subscription, under its mutex, takes the action
        :meth:`_apply_event` decides — a re-evaluation, undecided, when
        the event has more edges than :attr:`coarse_threshold` — and
        ends at the event's generation with a current result, delta and
        stats; one closed since the list was copied is left alone.  Cost
        per event: one digest (O(edges), and one OR of the
        parents' ancestor rows if a summary asks), O(subscriptions ×
        summary patterns) to meet the summaries, O(patterns × edges)
        per subscription the digest meets — bounded by the threshold —
        plus the refreshes.

        The caller (:class:`~repro.service.pipeline.CommitPipeline`)
        holds the write lock and passes the *sealed* event — one per
        write scope, batches already coalesced — at rest: ``M`` is
        repaired, so the evaluator built here reads it.
        """
        with self._members:
            subs = list(self._subs)
        if not subs:
            return
        start = time.perf_counter()
        # One post-commit evaluator decides and refreshes every query,
        # and one digest of the event meets every summary.
        evaluator = self.updater.evaluator()
        digest = (
            EventDigest(event.edges, evaluator.reach)
            if len(event.edges) <= self.coarse_threshold
            else None
        )
        for sub in subs:
            with sub._mutex:
                if sub.active:  # not closed since the copy above
                    if digest is None:
                        sub._stats["coarse_fallbacks"] += 1
                    self._apply_event(sub, event, evaluator, digest)
        self.publish_seconds += time.perf_counter() - start
        self._m_events.inc()

    # ``benchmarks/e2e/trace.py`` resolves ``SubscriptionRegistry.handle``
    # by name in the class dict; the alias goes when that table is edited.
    handle = apply_batched

    def _apply_event(
        self, sub: Subscription, event: ViewEvent, evaluator, digest
    ) -> None:
        """The decision and its action; callers hold ``sub._mutex``.
        Without a ``digest`` (the cost fallback) or a cache nothing is
        decided (re-evaluate); otherwise :func:`affects` runs only when
        the event meets the subscription's summary."""
        if (
            digest is not None
            and sub._contexts is not None
            and not (
                sub._triggers.meets(digest)
                and affects(sub.profile, event, sub._contexts, evaluator)
            )
        ):
            sub._stats["skips"] += 1
            sub._delta = ((), ())
        else:
            old = sub._nodes
            self._reevaluate(sub, evaluator)
            sub._stats["full_refreshes"] += 1
            sub._delta = _diff(old, sub._nodes)
        sub._generation = event.generation

    def _reevaluate(self, sub: Subscription, evaluator=None) -> None:
        """Evaluate the whole query from the root and cache its result
        and per-level membership (:meth:`QueryProfile.snapshot`: a
        ``//`` region, a live view of ``M``, is kept as the nodes it
        closes over and never listed).  An evaluation with ``M`` stale
        (mid-batch) does not seed, so its levels are not the ones a
        decision re-derives: it keeps no cache, and the next event
        re-evaluates the subscription without a decision."""
        if evaluator is None:
            evaluator = self.updater.evaluator()
        result = evaluator.evaluate_from(sub.query)
        if evaluator.reach is not None:
            sub._contexts, sub._triggers = sub.profile.snapshot(
                result.contexts
            )
        else:
            sub._contexts = sub._triggers = None
        sub._nodes = tuple(sorted(result.targets))

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
            # ``benchmarks/e2e/worker.py`` reads this key; no action
            # counts it since every refresh starts from the root.
            "suffix_refreshes": 0,
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
