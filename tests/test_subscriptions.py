"""Tests for the ΔV-driven subscription engine (``service.subscribe``).

The acceptance contract: after *every* committed operation — single
ops of every kind, batched lists, batch context managers, aborted
plans, rejected ops, undo — every active subscription's ``result()``
equals a fresh ``service.xpath()`` evaluation of the same path, while
the per-step dependency analysis provably skips maintenance for
unaffected queries and re-evaluates the rest from the root.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from index_seam import INDEX_CLASSES, substitute_index
from registrar_streams import OP_KINDS, registrar_streams
from repro.bench.workload_gen import WorkloadSpec, generate_ops, make_header
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.topo import TopoOrder
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.service import ViewConfig, open_view
from repro.subscribe import (
    EdgeRecord,
    SubscriptionRegistry,
    ViewEvent,
    affects,
    engine,
    profile_query,
)
from repro.dtd.parser import parse_dtd
from repro.index import build_index
from repro.subscribe.deps import ANY_EDGE, Closure, EventDigest
from repro.views.store import ViewStore
from repro.workloads import (
    REGISTRAR_QUERIES,
    make_query_set,
    make_workload,
    named_workload,
)
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.ast import DescendantStep
from repro.xpath.parser import parse_xpath


def registrar_service(**config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return open_view(atg, db, config=ViewConfig(**config))


def synthetic_service(n_c=90, seed=5, **config):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    service = open_view(dataset.atg, dataset.db, config=ViewConfig(**config))
    return service, dataset


def assert_current(service, subs, tag=""):
    """Every subscription equals a fresh evaluation, right now."""
    for sub in subs:
        fresh = tuple(sorted(service.xpath(sub.path).targets))
        assert sub.result() == fresh, (
            f"{tag}: subscription {sub.path!r} drifted: "
            f"{sub.result()} != fresh {fresh}"
        )


def results(subs):
    """Each subscription's result, by id: the ``before`` of
    :func:`assert_refreshed`."""
    return {sub.id: sub.result() for sub in subs}


def as_sets(levels, evaluator):
    """Cached or fresh per-level membership as sets, read now: a cached
    ``//`` level (a :class:`Closure` of the nodes it closes over) is
    re-derived through ``evaluator.closure`` and listed, as a fresh
    evaluation's live region (``L`` itself after a leading ``//``) is."""
    return [
        set(evaluator.closure(level.nodes))
        if isinstance(level, Closure) else set(level)
        for level in levels
    ]


def assert_refreshed(service, subs, before=None, tag=""):
    """Results, cached memberships — what the next event is pruned
    against — and, given ``before`` (:func:`results` ahead of one
    committed op), deltas equal a fresh ``evaluate_from``'s."""
    evaluator = service.updater.evaluator()
    for sub in subs:
        fresh = evaluator.evaluate_from(sub.query)
        now = tuple(sorted(fresh.targets))
        assert sub.result() == now, (tag, sub.path)
        if before is not None:
            old, new = set(before[sub.id]), set(now)
            assert sub.delta() == (
                tuple(sorted(new - old)), tuple(sorted(old - new))
            ), (tag, sub.path)
        assert as_sets(sub._contexts, evaluator) == as_sets(
            fresh.contexts, evaluator
        ), f"{tag}: cached contexts of {sub.path!r} drifted"
        # The one snapshot rule: every level is cached, a ``//`` level
        # as the level before it, never listed; the summary is theirs.
        assert (sub._contexts, sub._triggers) == sub.profile.snapshot(
            fresh.contexts
        ), f"{tag}: {sub.path!r} is not cached by the snapshot rule"


# ---------------------------------------------------------------------------
# Dependency extraction and event pruning (unit level)
# ---------------------------------------------------------------------------


class TestDependencyAnalysis:
    def test_anchored_child_path_is_prunable(self):
        profile = profile_query(
            parse_xpath("course[cno=CS650]/prereq/course"), "db"
        )
        assert not any(ANY_EDGE in deps for deps in profile.per_step)
        # Step 0 only feels (db -> course) edges.
        assert {(p.parent, p.child) for p in profile.per_step[0]} == {
            ("db", "course")
        }
        # The value filter feels (course -> cno) edges with value CS650.
        [pattern] = profile.per_step[1]
        assert pattern.child == "cno"
        assert pattern.values == frozenset({"CS650"})

    def test_descendant_steps_depend_on_their_region(self):
        # ``//`` steps match any edge type, but only through a parent
        # the cached region already contains.
        profile = profile_query(parse_xpath("course//student"), "db")
        [pattern] = profile.per_step[1]
        assert pattern.parent is None and pattern.child is None
        assert pattern.in_region

    def test_wildcard_steps_depend_on_their_context(self):
        profile = profile_query(parse_xpath("*/prereq"), "db")
        [pattern] = profile.per_step[0]
        assert pattern.child is None and pattern.depth == 0

    def test_a_filter_chains_kth_edge_hangs_k_minus_1_levels_down(self):
        # ``sub/cnode/tag``: the chain's edges hang 0, 1 and 2 levels
        # below the step's context; the seed leg's edges anywhere.
        profile = profile_query(
            parse_xpath("cnode[key=1 and sub/cnode/tag]"), "db"
        )
        depths = {(p.parent, p.child): p.depth for p in profile.per_step[1]}
        assert depths == {
            ("cnode", "key"): None,
            ("cnode", "sub"): 0,
            ("sub", "cnode"): 1,
            ("cnode", "tag"): 2,
        }

    def test_filter_path_wildcards_are_never_prunable(self):
        profile = profile_query(parse_xpath("course[.//project]"), "db")
        assert ANY_EDGE in profile.per_step[1]
        assert any(ANY_EDGE in deps for deps in profile.per_step)

    def test_label_test_and_own_value_never_invalidate(self):
        # label() and the context node's own value are immutable.
        profile = profile_query(
            parse_xpath("course[label()=course]"), "db"
        )
        assert profile.per_step[1] == ()

    # Registrar view nodes, as ``(element, sem)``.
    CS240 = ("course", ("CS240", "Data Structures"))
    CS500 = ("course", ("CS500", "Operating Systems"))
    CS240_CNO = ("cno", ("CS240",))
    CS650_CNO = ("cno", ("CS650",))
    CS650_PREREQ = ("prereq", ("CS650",))
    CS320_TAKEN_BY = ("takenBy", ("CS320",))
    ADA = ("student", ("S01", "Ada"))

    def _decide(self, path, *changes, values=True):
        """Evaluate ``path`` on the registrar view, apply the
        ``(kind, parent, child)`` edge changes to its store and decide
        their event at rest; ``values=False`` leaves the records'
        child values unknown."""
        service = registrar_service()
        store = service.updater.store
        profile = profile_query(parse_xpath(path), "db")
        levels, _ = profile.snapshot(
            service.updater.evaluator().evaluate_from(profile.path).contexts
        )
        records = []
        for kind, parent, child in changes:
            p, c = store.lookup(*parent), store.lookup(*child)
            if kind == "insert":
                store.add_edge(p, c)
            else:
                store.remove_edge(p, c)
            records.append(EdgeRecord(
                kind, store.type_of(p), store.type_of(c), p, c,
                child_value=store.value_of(c) if values else None,
            ))
        topo = TopoOrder.from_store(store)
        after = DagXPathEvaluator(store, topo, build_index(store, topo))
        event = ViewEvent(generation=1, edges=records)
        return affects(profile, event, levels, after)

    def test_unrelated_edge_is_skipped(self):
        assert not self._decide(
            "course[cno=CS650]/prereq/course",
            ("insert", self.CS320_TAKEN_BY, self.ADA),
        )

    def test_value_anchor_prunes_other_values(self):
        path = "course[cno=CS650]/prereq/course"
        assert not self._decide(
            path, ("insert", self.CS500, self.CS240_CNO)
        )
        # CS240 gains the CS650 cno: the seeded level gains CS240.
        hit = ("insert", self.CS240, self.CS650_CNO)
        assert self._decide(path, hit)
        assert self._decide(path, hit, values=False)  # conservative

    def test_suffix_restart_index(self):
        # A (prereq -> course) change only meets the last step, under
        # the cached prereq level.
        assert self._decide(
            "course[cno=CS650]/prereq/course",
            ("insert", self.CS650_PREREQ, self.CS500),
        )

    def test_empty_event_touches_nothing(self):
        assert not self._decide("//course")


# ---------------------------------------------------------------------------
# Registrar: every op kind, plans, batches, undo
# ---------------------------------------------------------------------------


class TestRegistrarEquivalence:
    def test_mixed_stream_keeps_every_subscription_current(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        assert_current(service, subs, "eager initial evaluation")
        stream = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                      "course", ("CS320", "Databases")),
            DeleteOp("course[cno=NOPE]"),  # rejected: no event
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
            InsertOp(".", "course", ("CS700", "Theory")),
            DeleteOp("//course[cno=CS240]/project"),  # rejected by DTD? no: selects none
        ]
        undoable = []
        for op in stream:
            outcome = service.apply(op)
            if outcome.accepted:
                undoable.append(outcome)
            assert_current(service, subs, f"after {op.kind}")
        for outcome in reversed(undoable):
            if outcome.delta_r is None or not len(outcome.delta_r.ops):
                continue
            service.undo(outcome)
            assert_current(service, subs, "after undo")
        assert service.check_consistency() == []

    def test_batched_list_and_context_manager(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        service.apply([
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp(".", "course", ("CS700", "Theory")),
        ])
        assert_current(service, subs, "after batched list")
        with service.batch() as batch:
            batch.apply(InsertOp(".", "course", ("CS800", "Quantum")))
            # Mid-batch reads fall back to a full re-evaluation (the
            # generation tag mismatches while maintenance is pending).
            assert_current(service, subs, "mid-batch")
            batch.apply(DeleteOp("course[cno=CS800]"))
        assert_current(service, subs, "after batch flush")
        assert service.check_consistency() == []

    def test_aborted_and_rejected_plans_change_nothing(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        before = [sub.result() for sub in subs]
        generations = [sub.generation for sub in subs]
        service.plan(InsertOp(".", "course", ("CS900", "X"))).abort()
        plan = service.plan(DeleteOp("course[cno=NOPE]"))
        assert not plan.accepted
        assert [sub.result() for sub in subs] == before
        assert [sub.generation for sub in subs] == generations
        assert_current(service, subs, "after abort")

    def test_plan_commit_notifies(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        plan = service.plan(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        plan.commit()
        assert_current(service, subs, "after plan commit")

    def test_every_event_the_registry_receives_is_at_rest(self, monkeypatch):
        """The decision reads ``M``: every commit path hands its event
        to ``apply_batched`` after the repair, a batch's at its flush."""
        service = registrar_service()
        service.subscribe("course[cno=CS650]/prereq/course")
        received = []
        apply_batched = SubscriptionRegistry.apply_batched

        def at_rest(registry, event):
            received.append(registry.updater.evaluator().reach is not None)
            return apply_batched(registry, event)

        monkeypatch.setattr(SubscriptionRegistry, "apply_batched", at_rest)
        single = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        service.apply([
            InsertOp(".", "course", ("CS700", "Theory")),
            InsertOp(".", "course", ("CS710", "Logic")),
        ])
        with service.batch() as batch:
            batch.apply(InsertOp(".", "course", ("CS800", "Quantum")))
            batch.apply(DeleteOp("course[cno=CS800]"))
        service.plan(InsertOp(".", "course", ("CS900", "Graphs"))).commit()
        service.apply(BaseUpdateOp(ops=(
            ("insert", "course", ("CS777", "Compilers", "CS")),
        )))
        service.undo(single)
        assert received == [True] * 6

    def test_unrelated_ops_are_skipped_not_reevaluated(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS240]/takenBy/student")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["skips"] == 1
        assert sub.stats["full_refreshes"] == 0
        # ...and the skip was sound:
        assert_current(service, [sub], "after skipped op")

    def test_downstream_change_is_refreshed_from_the_root(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = results([sub])
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["full_refreshes"] == 1
        assert sub.stats["skips"] == 0
        assert_refreshed(service, [sub], before, "after downstream change")

    def test_close_stops_maintenance(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        sub.close()
        assert not sub.active
        assert len(service.subscriptions) == 0
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["full_refreshes"] == 0
        sub.close()  # idempotent

    def test_observer_hooked_lazily_and_unhooked_on_last_close(self):
        """Services that never subscribe (or no longer have subscribers)
        must not pay the commit-event construction cost."""
        service = registrar_service()

        def sealed():
            return service.stats()["pipeline"]["records_sealed"]

        service.apply(InsertOp(".", "course", ("CS801", "One")))
        assert sealed() == 0  # nobody consumes: no event was built
        first = service.subscribe("//course")
        second = service.subscribe("course[cno=CS240]")
        service.apply(InsertOp(".", "course", ("CS802", "Two")))
        assert sealed() == 1
        first.close()
        service.apply(InsertOp(".", "course", ("CS803", "Three")))
        assert sealed() == 2  # one subscription still stands
        second.close()
        service.apply(InsertOp(".", "course", ("CS804", "Four")))
        assert sealed() == 2  # the last close() switched events off
        # Re-subscribing switches them on again and stays correct.
        again = service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sealed() == 3
        assert again.result() == tuple(
            sorted(service.xpath(again.path).targets)
        )

    def test_stats_surface(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        stats = service.stats()["subscriptions"]
        assert stats["subscriptions"] == 1
        assert stats["events_processed"] == 1
        # A structural delete under a leading-// query is re-evaluated
        # from the root; no action restarts from a cached context.
        assert stats["full_refreshes"] == 1
        assert stats["suffix_refreshes"] == 0
        assert "suffix_refreshes" not in sub.stats

    def test_structural_stream_keeps_contexts_current(self):
        """A leading-``//`` query over a structural stream: an insert
        that adds no result node, one under another course, deletes, and
        a delete whose subtree is garbage-collected.  Every event
        reaches step 0 (its region is every node) and is one
        re-evaluation; the result, delta and cached contexts stay
        equal to a fresh evaluation's."""
        service = registrar_service()
        sub = service.subscribe("//student")
        stream = [
            InsertOp(".", "course", ("CS700", "Theory")),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS500]"),
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            DeleteOp("course[cno=CS700]"),
        ]
        unchanged = sub.result()
        for op in stream:
            before = results([sub])
            outcome = service.apply(op)
            assert outcome.accepted
            assert_refreshed(service, [sub], before, f"after {op.kind}")
        assert sub.result() == unchanged  # no op here adds a student
        assert sub.stats["full_refreshes"] == len(stream)
        assert service.stats()["subscriptions"]["events_processed"] == len(
            stream
        )

    def test_student_insert_stays_current(self):
        """An op that adds result nodes via a matching deeper step: the
        new student is in the refreshed result and its delta."""
        service = registrar_service()
        sub = service.subscribe("//student")
        before = results([sub])
        service.apply(
            InsertOp("course[cno=CS240]/takenBy", "student", ("999", "Zed"))
        )
        assert sub.result() != before[sub.id]
        assert len(sub.delta()[0]) == 1
        assert sub.stats["full_refreshes"] == 1
        assert_refreshed(service, [sub], before, "after student insert")

    def test_stats_stay_monotonic_after_close(self):
        """Regression: closing a subscription used to subtract its
        tallies from the registry totals, making deltas go negative."""
        service = registrar_service()
        sub = service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        before = service.subscriptions.stats()["full_refreshes"]
        assert before == 1
        sub.close()
        assert service.subscriptions.stats()["full_refreshes"] == before

    def test_a_subscription_closed_while_a_commit_decides_is_left_alone(
        self, monkeypatch
    ):
        """Regression: the commit decides a copy of the subscription
        list and ``close()`` takes no service lock, so B, closed from
        inside A's decision, was still decided and refreshed after its
        counters had been folded into the registry totals."""
        service = registrar_service()
        a = service.subscribe("course[cno=CS240]/takenBy/student")
        b = service.subscribe("course[cno=CS650]/prereq/course")
        apply_event = SubscriptionRegistry._apply_event

        def closing(self, sub, *rest):
            if sub is a:
                b.close()
            return apply_event(self, sub, *rest)

        monkeypatch.setattr(SubscriptionRegistry, "_apply_event", closing)
        generation, folded = b.generation, b.stats
        assert service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        ).accepted
        assert not b.active
        assert b.generation == generation
        assert b.stats == folded
        assert a.stats["skips"] == 1
        totals = service.subscriptions.stats()
        assert (totals["skips"], totals["full_refreshes"]) == (1, 0)

    def test_stats_property_hands_out_a_copy(self):
        """Regression: ``sub.stats`` used to be the registry's live
        counter dict, so a caller's edit showed up in the service totals
        (and in the monotonic fold ``close()`` makes)."""
        service = registrar_service()
        sub = service.subscribe("course[cno=CS240]/takenBy/student")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        before = service.stats()["subscriptions"]
        handed_out = sub.stats
        handed_out["skips"] += 1000
        handed_out.clear()
        assert service.stats()["subscriptions"] == before
        assert sub.stats["skips"] == 1
        sub.close()
        assert service.subscriptions.stats()["skips"] == before["skips"]


# ---------------------------------------------------------------------------
# Synthetic DAG: workload streams of every kind, on the index and its reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_synthetic_workload_stream_equivalence(index_class):
    service, dataset = synthetic_service()
    substitute_index(service.updater, index_class)
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=10)]
    assert_current(service, subs, "initial")
    ops = []
    for cls in ("W1", "W2", "W3"):
        ops.extend(make_workload(dataset, "delete", cls, count=2))
        ops.extend(make_workload(
            dataset, "insert", cls, count=2, new_key_fraction=0.0
        ))
    ops.extend(make_workload(
        dataset, "replace", "W2", count=2, new_key_fraction=0.0
    ))
    undoable = []
    for op in ops:
        outcome = service.apply(op)
        if outcome.accepted:
            undoable.append(outcome)
        assert_current(service, subs, f"after {op.kind} {op.path}")
    assert undoable, "stream should commit at least one op"
    service.undo(undoable[-1])
    assert_current(service, subs, "after undo")
    assert service.check_consistency() == []
    # The anchored queries must actually have skipped unrelated ops —
    # otherwise the engine degrades to evaluate-per-op silently.
    stats = service.subscriptions.stats()
    assert stats["skips"] > 0


def test_synthetic_batched_sessions_equivalence():
    service, dataset = synthetic_service()
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=8)]
    deletes = make_workload(dataset, "delete", "W2", count=3)
    inserts = make_workload(
        dataset, "insert", "W2", count=3, new_key_fraction=0.0
    )
    # Interleave inside one session: one flush, one coalesced event.
    runs_before = service.maintenance_runs
    with service.batch() as batch:
        for delete_op, insert_op in zip(deletes, inserts):
            batch.apply(delete_op)
            batch.apply(insert_op)
    assert service.maintenance_runs - runs_before == 1
    assert_current(service, subs, "after interleaved batch")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Refresh oracles: ``//`` and seeded subscriptions over generated streams
# ---------------------------------------------------------------------------


def descendant_queries(dataset):
    """``//`` in every position, and seeded steps below the root, over
    keys the synthetic view has."""
    desc = make_query_set(dataset, count=8, descendant_fraction=1.0)[:4]
    a, b = desc[0].split("key=")[1].split("]")[0], 7
    return desc + [
        "//cnode",
        f"//cnode[key={a}]",
        f"//sub/cnode[key={b}]",
        f"cnode[key={b}]//cnode",
        f"//cnode[key={a}]/sub//cnode",
        f"//*[key={a}]//sub/*",
        f"//cnode[not(key={a})]/sub/cnode[key={b}]",
        f"cnode/sub/cnode[key={a}]",
        f"cnode[key={b}]/sub/cnode[key={a} and sub]",
    ]


class TestConeRefresh:
    """The streams the event-cone refresh was checked on, kept as the
    oracle of the one refresh left: after every op the results, deltas
    and cached memberships equal a fresh ``evaluate_from``.  They
    include seeded levels whose value appears or disappears under a
    parent that was not a candidate."""

    def test_descendant_subscriptions_track_a_mixed_stream(self):
        service, dataset = synthetic_service(n_c=120, seed=3)
        subs = [service.subscribe(q) for q in descendant_queries(dataset)]
        ops = []
        for cls in ("W1", "W2", "W3"):  # inserts first: most are accepted
            ops.extend(make_workload(dataset, "insert", cls, count=3))
            ops.extend(make_workload(dataset, "delete", cls, count=3))
        ops.extend(make_workload(dataset, "replace", "W2", count=3))
        ops.extend(make_workload(
            dataset, "insert", "W2", count=3, seed=9, new_key_fraction=1.0
        ))
        accepted = []
        for op in ops:
            before = results(subs)
            outcome = service.apply(op)
            if outcome.accepted:
                accepted.append(outcome)
            else:
                before = None  # no commit: the last delta stands
            assert_refreshed(service, subs, before, f"after {op.kind}")
        before = results(subs)
        service.undo(accepted[-1])
        assert_refreshed(service, subs, before, "after undo")
        assert service.check_consistency() == []
        stats = service.subscriptions.stats()
        assert stats["skips"] > 0
        assert stats["full_refreshes"] > len(accepted)  # most events, most queries

    def test_batched_session_is_patched_from_the_coalesced_event(self):
        """One coalesced event for the whole session: one decision, and
        at most one refresh, per subscription."""
        service, dataset = synthetic_service(n_c=120, seed=3)
        subs = [service.subscribe(q) for q in descendant_queries(dataset)]
        deletes = make_workload(dataset, "delete", "W2", count=3)
        inserts = make_workload(
            dataset, "insert", "W2", count=3, new_key_fraction=0.0
        )
        before = results(subs)
        with service.batch() as batch:
            for delete_op, insert_op in zip(deletes, inserts):
                batch.apply(delete_op)
                batch.apply(insert_op)
        assert_refreshed(service, subs, before, "after batch")
        for sub in subs:
            assert sub.stats["skips"] + sub.stats["full_refreshes"] == 1

    def test_emptied_context_truncates_like_a_fresh_evaluation(self):
        """Deleting the one edge a query passes through (its child stays
        alive under another parent, so no filter edge is collected)
        empties a mid-path context; the cache must end there, exactly
        as the evaluator's contexts do."""
        service, dataset = synthetic_service(n_c=120, seed=3)
        store = service.updater.store
        for op in make_workload(dataset, "delete", "W2", count=12):
            (target,) = service.xpath(op.path).targets
            if len(store.parents_of(target)) > 1:
                break
        else:  # pragma: no cover - dataset invariant
            pytest.fail("no shared W2 target in the synthetic view")
        sub = service.subscribe(f"//{op.path}/key")
        before = results([sub])
        assert before[sub.id]
        outcome = service.apply(op)
        assert outcome.accepted
        assert sub.result() == ()
        assert len(sub._contexts) < len(sub.query.steps) + 1
        assert_refreshed(service, [sub], before, "after emptying")
        # The shortened cache is refilled by an ordinary refresh.
        emptied = results([sub])
        service.undo(outcome)
        assert sub.result() == before[sub.id]
        assert_refreshed(service, [sub], emptied, "after undo")

    def test_seeded_value_appears_and_disappears_under_a_non_candidate(self):
        """A shared course node moves under a ``prereq`` that was not a
        candidate of the seeded level (empty, in the second query), and
        out again: neither event may be skipped."""
        service = registrar_service()
        subs = [
            service.subscribe("course/prereq[course/cno=CS240]"),
            service.subscribe("course[cno=CS650]/prereq[course/cno=CS240]"),
        ]
        assert subs[1].result() == ()
        for op in (
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS240", "Data Structures")),
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS240]"),
        ):
            before = results(subs)
            assert service.apply(op).accepted
            assert all(sub.delta() != ((), ()) for sub in subs)
            assert_refreshed(service, subs, before, f"after {op.kind}")

    def test_filter_hit_falls_back_to_the_ordinary_refresh(self):
        """An event edge that flips a filter (here: the collected node's
        ``key`` edge carries the compared value) is one re-evaluation
        from the root, like every refresh."""
        service, dataset = synthetic_service(n_c=120, seed=3)
        (insert,) = make_workload(
            dataset, "insert", "W2", count=1, new_key_fraction=1.0
        )
        assert service.apply(insert).accepted
        key = insert.sem[0]
        sub = service.subscribe(f"//cnode[key={key}]/sub/cnode")
        before = results([sub])
        assert service.apply(
            DeleteOp(f"{insert.path}/cnode[key={key}]")
        ).accepted
        assert sub.stats["full_refreshes"] == 1
        assert_refreshed(service, [sub], before, "after filter hit")

    def test_non_leading_descendant_region_is_read_live(self):
        """``course[cno=CS650]//course[cno=CS240]``: prunable, with a
        ``//`` region under one course.  Writes move CS320 and CS240 out
        of the region and back in, and one lands elsewhere.  Results,
        deltas and cached memberships equal a fresh evaluation after
        every op.  The cache keeps the region as the nodes it closes
        over, and those nodes, read on the post-commit ``M``, answer as
        of the commit: the live-region contract the decision relies
        on."""
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]//course[cno=CS240]")
        assert not any(ANY_EDGE in deps for deps in sub.profile.per_step)
        store = service.updater.store
        cs320 = store.lookup("course", ("CS320", "Databases"))
        level = 1 + next(
            i for i, step in enumerate(sub.query.steps)
            if isinstance(step, DescendantStep)
        )
        under_cs650 = "course[cno=CS650]/prereq"
        ops = [
            DeleteOp(f"{under_cs650}/course[cno=CS320]"),  # both leave
            InsertOp(under_cs650, "course", ("CS240", "Data Structures")),
            InsertOp(under_cs650, "course", ("CS320", "Databases")),
            InsertOp("course[cno=CS500]/prereq", "course", ("CS990", "Far")),
            DeleteOp(f"{under_cs650}/course[cno=CS240]"),  # still via CS320
            DeleteOp(f"{under_cs650}/course[cno=CS320]"),  # now it leaves
        ]
        seen = []
        for op in ops:
            cached = sub._contexts[level]
            assert isinstance(cached, Closure)
            was_in = cs320 in service.updater.evaluator().closure(cached.nodes)
            before = results([sub])
            assert service.apply(op).accepted, op
            # The nodes cached before the op answer as of after it.
            evaluator = service.updater.evaluator()
            fresh = evaluator.evaluate_from(sub.query).contexts[level]
            assert (cs320 in evaluator.closure(cached.nodes)) == (
                cs320 in fresh
            ), op
            assert_refreshed(service, [sub], before, f"after {op}")
            seen.append((was_in, sub.result()))
        assert {was_in for was_in, _ in seen} == {True, False}
        assert {bool(result) for _, result in seen} == {True, False}
        # Re-adding CS320, the far insert and dropping the direct CS240
        # edge leave the seeded CS240 level as it was: three skips.
        assert sub.stats["skips"] >= 3 and sub.stats["full_refreshes"] >= 3


# ---------------------------------------------------------------------------
# Seeded levels: the decision over contexts that hold only candidates
# ---------------------------------------------------------------------------

_SEEDED_DTD = """
<!ELEMENT root (cnode*)>
<!ELEMENT cnode (key, sub, tag)>
<!ELEMENT sub (cnode*)>
<!ELEMENT tag (#PCDATA)>
"""


def seeded_store():
    """root → a, b; a → key 1, sa; sa → c, d; c → key 9, tag; d → key 2,
    tag; spare key 7 and tag nodes.  ``cnode/sub/cnode[key=9 and tag]``
    seeds its level 3 from the key-9 node: only c is a candidate."""
    store = ViewStore(SimpleNamespace(dtd=parse_dtd(_SEEDED_DTD)))
    ids = {}
    for name, element, sem in [
        ("root", "root", ()), ("a", "cnode", ("a",)), ("b", "cnode", ("b",)),
        ("sa", "sub", ("sa",)), ("c", "cnode", ("c",)), ("d", "cnode", ("d",)),
        ("k1", "key", (1,)), ("k2", "key", (2,)), ("k7", "key", (7,)),
        ("k9", "key", (9,)), ("tc", "tag", ("tc",)), ("td", "tag", ("td",)),
        ("tx", "tag", ("tx",)),
    ]:
        ids[name] = store.intern(element, sem)[0]
    for parent, child in [
        ("root", "a"), ("root", "b"), ("a", "k1"), ("a", "sa"),
        ("sa", "c"), ("sa", "d"), ("c", "k9"), ("c", "tc"),
        ("d", "k2"), ("d", "td"),
    ]:
        store.add_edge(ids[parent], ids[child])
    store.root_id = ids["root"]
    return store, ids


def edge(kind, store, ids, parent, child):
    """The event record of one edge change in :func:`seeded_store`."""
    p, c = ids[parent], ids[child]
    return EdgeRecord(
        kind, store.type_of(p), store.type_of(c), p, c,
        child_value=store.value_of(c),
    )


class TestSeededLevelDecisions:
    """``affects`` over seeded contexts, built by hand: a seeded level
    holds the seed leg's candidates only, so the leg's edges are
    matched under any parent; the other conjuncts keep their
    membership test."""

    def _decide(self, query, contexts, *records):
        """Decide the ``records`` over the hand-built ``contexts``,
        applied to :func:`seeded_store` and read at rest."""
        store, ids = seeded_store()
        profile = profile_query(parse_xpath(query), "root")
        for kind, parent, child in records:
            if kind == "insert":
                store.add_edge(ids[parent], ids[child])
            else:
                store.remove_edge(ids[parent], ids[child])
        event = ViewEvent(generation=1, edges=[
            edge(kind, store, ids, parent, child)
            for kind, parent, child in records
        ])
        members = [{ids[name] for name in level} for level in contexts]
        return affects(profile, event, members, self._evaluator(store))

    QUERY = "cnode/sub/cnode[key=9 and tag]"
    SEEDED = [["root"], ["a", "b"], ["sa"], ["c"], ["c"]]

    def test_hand_built_contexts_are_the_seeded_ones(self):
        store, ids = seeded_store()
        topo = TopoOrder.from_store(store)
        evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
        for query, contexts in [
            (self.QUERY, self.SEEDED),
            ("cnode/sub/cnode[key=7 and tag]", self.SEEDED[:3] + [[]]),
            ("cnode/sub/cnode[key=7 and tag]/tag", self.SEEDED[:3] + [[]]),
        ]:
            got = evaluator.evaluate_from(parse_xpath(query)).contexts
            assert got == [{ids[name] for name in level} for level in contexts]

    def test_leg_edge_under_a_non_candidate_reaches_the_filter(self):
        # d holds key 2, not 9: it is no member of the seeded level, and
        # gaining the key-9 node makes it one.
        assert self._decide(self.QUERY, self.SEEDED, ("insert", "d", "k9"))

    def test_emptied_seeded_level_with_a_leg_edge_is_not_skipped(self):
        query = "cnode/sub/cnode[key=7 and tag]"
        contexts = self.SEEDED[:3] + [[]]
        assert self._decide(query, contexts, ("insert", "d", "k7"))
        # ...but an empty seeded level still skips what cannot fill it.
        assert not self._decide(query, contexts, ("insert", "d", "k9"))
        assert not self._decide(query, contexts, ("insert", "d", "tx"))
        # ...nor what a step past it reads: the walk stops there.
        later = query + "/tag"
        assert not self._decide(later, contexts, ("insert", "d", "tx"))

    def test_other_conjunct_under_a_non_candidate_is_skipped(self):
        assert not self._decide(self.QUERY, self.SEEDED, ("insert", "d", "tx"))
        assert self._decide(self.QUERY, self.SEEDED, ("delete", "c", "tc"))

    # After a leading ``//`` the seeded level is the leg's holders other
    # than the root, at rest: only a leg edge moves it.

    LEADING = "//cnode[key=1]//cnode[key=9]"

    def _commit(self, query, new, changes, monkeypatch):
        """Evaluate ``query`` on :func:`seeded_store`, intern the ``new``
        ``(name, element)`` nodes, apply the ``(kind, parent, child)``
        ``changes`` and collect what the root no longer reaches, with
        the collected edges in the event; then decide at rest.  Returns
        the decision, whether a fresh evaluation gives the cached
        result, and the seeds ``seed_members`` was asked about."""
        store, ids = seeded_store()
        parsed = parse_xpath(query)
        profile = profile_query(parsed, "root")
        before = self._evaluator(store).evaluate_from(parsed)
        levels, triggers = profile.snapshot(before.contexts)
        for name, element in new:
            ids[name] = store.intern(element, (name,))[0]
        records = []
        for kind, parent, child in changes:
            p, c = ids[parent], ids[child]
            if kind == "insert":
                store.add_edge(p, c)
            records.append(edge(kind, store, ids, parent, child))
            if kind == "delete":
                store.remove_edge(p, c)
        live = store.reachable_from_root()
        dead = [node for node in list(store.nodes()) if node not in live]
        names = {node: name for name, node in ids.items()}
        for node in dead:
            for child in list(store.children_of(node)):
                records.append(
                    edge("delete", store, ids, names[node], names[child])
                )
                store.remove_edge(node, child)
        for node in dead:
            store.remove_node(node)
        event = ViewEvent(generation=1, edges=records)
        after = self._evaluator(store)
        seeds = []
        seed_members = DagXPathEvaluator.seed_members

        def counting(self, seed, context):
            seeds.append(seed)
            return seed_members(self, seed, context)

        monkeypatch.setattr(DagXPathEvaluator, "seed_members", counting)
        decision = affects(profile, event, levels, after)
        monkeypatch.undo()
        if not triggers.meets(EventDigest(records, after.reach)):
            assert not decision
        fresh = after.evaluate_from(parsed)
        return decision, sorted(fresh.targets) == sorted(before.targets), seeds

    @staticmethod
    def _evaluator(store):
        topo = TopoOrder.from_store(store)
        return DagXPathEvaluator(store, topo, build_index(store, topo))

    def test_leading_seed_refreshes_for_a_new_holder_under_an_unrelated_parent(
        self, monkeypatch
    ):
        # e holds key 9 and hangs below b's new sub: no cached level
        # lists either parent.
        decision, same, _ = self._commit(
            "//cnode[key=9]",
            [("sb", "sub"), ("e", "cnode")],
            [("insert", "b", "sb"), ("insert", "sb", "e"),
             ("insert", "e", "k9")],
            monkeypatch,
        )
        assert decision and not same

    def test_leading_seed_refreshes_when_its_holder_is_collected(
        self, monkeypatch
    ):
        # Cutting sa → c collects c, and with it the c → key 9 edge.
        decision, same, _ = self._commit(
            "//cnode[key=9]", [], [("delete", "sa", "c")], monkeypatch
        )
        assert decision and not same

    def test_leading_seed_skips_a_second_parent_without_rederiving(
        self, monkeypatch
    ):
        """c gains a parent below a: the leading group's level (the
        key-1 holders) is not re-derived; the ``//`` after it is, and
        finds c's level unchanged."""
        profile = profile_query(parse_xpath(self.LEADING), "root")
        leading, inner = (
            profile.seeded[start].seed for start in sorted(profile.seeded)
        )
        decision, same, seeds = self._commit(
            self.LEADING,
            [("sa2", "sub")],
            [("insert", "a", "sa2"), ("insert", "sa2", "c")],
            monkeypatch,
        )
        assert not decision and same
        assert seeds == [inner] and leading not in seeds


# ---------------------------------------------------------------------------
# Pinned decisions: which action each subscription takes per commit
# ---------------------------------------------------------------------------

#: ``(skips, full_refreshes, fallback_refreshes)`` per header
#: subscription of the stream below, as decided before every level was
#: read by membership: a leading ``//`` cached nothing after it (the
#: first eight, ``//cnode[key=a]//cnode[key=b]``, refreshed on every
#: op), and a filter chain's second edge matched anywhere.  The skips
#: column was recorded at ``3126a11`` (the engine with the pattern
#: index, the watch index and the lazy skip ledger) and did not move
#: until then.  Kept as the floor the current decisions must not sink
#: below.
PARENT_CHURN_DECISIONS = (
    [(0, 60, 0)] * 8
    + [(60, 0, 0), (0, 60, 0), (58, 2, 0), (60, 0, 0)]
    + [(0, 60, 0), (58, 2, 0), (43, 17, 0), (0, 60, 0)]
    + [(58, 2, 0), (58, 2, 0), (0, 60, 0), (60, 0, 0)]
    + [(60, 0, 0), (56, 4, 0)]
    + [(60, 0, 0)] * 4
    + [(58, 2, 0)]
    + [(60, 0, 0)] * 5
)

#: The same counts with every cached level decided by membership: the
#: seeded level after a leading ``//`` is re-derived, a ``//`` region
#: is read on the post-commit ``M``, and the ``sub/cnode`` edge of
#: ``cnode[key=a and sub/cnode]`` is tested one level below ``a``.
PINNED_CHURN_DECISIONS = (
    [(60, 0, 0)] * 8
    + [(60, 0, 0), (57, 3, 0), (60, 0, 0), (60, 0, 0)]
    + [(60, 0, 0), (60, 0, 0), (43, 17, 0), (58, 2, 0)]
    + [(60, 0, 0), (58, 2, 0), (58, 2, 0), (60, 0, 0)]
    + [(60, 0, 0), (56, 4, 0)]
    + [(60, 0, 0)] * 4
    + [(58, 2, 0)]
    + [(60, 0, 0)] * 5
)


@pytest.fixture(scope="class")
def pinned_churn():
    """The ``subscribed_durable`` shape in small: 32 header
    subscriptions over one generated churn stream (``synthetic:120``,
    seed 7, 60 ops), checked current after every op.  Returns the
    subscriptions and how many times each one's event was walked by
    ``affects``."""
    spec = WorkloadSpec(
        workload="synthetic:120", ops=60, seed=7,
        pattern="churn", key_skew=0.8, subscriptions=32,
    )
    atg, db = named_workload(spec.workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    subs = [
        service.subscribe(path)
        for path in make_header(spec)["subscriptions"]
    ]
    scans = []

    def counting(profile, *rest):
        scans.append(profile)
        return affects(profile, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "affects", counting)
        for op in generate_ops(spec):
            assert service.apply(op).accepted
            assert_current(service, subs, f"after {op}")
    return subs, scans


class TestPinnedDecisions:
    def test_churn_stream_decisions_are_pinned(self, pinned_churn):
        """Per subscription of the pinned churn stream, skips are no
        fewer and full refreshes no more than
        :data:`PARENT_CHURN_DECISIONS`, with no fallback; and the action
        counts equal the recorded literals."""
        subs, _ = pinned_churn
        keys = ("skips", "full_refreshes", "fallback_refreshes")
        decisions = [tuple(sub.stats[key] for key in keys) for sub in subs]
        for sub, now, floor in zip(subs, decisions, PARENT_CHURN_DECISIONS):
            assert now[0] >= floor[0] and now[1] <= floor[1], sub.path
            assert now[2] == 0, sub.path
        assert decisions == PINNED_CHURN_DECISIONS

    def test_churn_stream_scans_at_most_a_quarter_of_its_decisions(
        self, pinned_churn
    ):
        """The trigger summaries answer most of the 32 × 60 decisions:
        ``affects`` runs for at most a quarter of them (it
        ran for every one before the summaries)."""
        subs, scans = pinned_churn
        decided = sum(
            sub.stats["skips"] + sub.stats["full_refreshes"] for sub in subs
        )
        assert decided == 32 * 60
        assert len(scans) <= decided // 4

    def test_unaffected_subscriptions_cost_no_evaluation(self, monkeypatch):
        """256 standing subscriptions, none of which the op can affect:
        the commit decides 256 skips without one evaluator call."""
        service, dataset = synthetic_service(n_c=120, seed=3)
        (op,) = make_workload(dataset, "delete", "W2", count=1)
        store = service.updater.store
        (target,) = service.xpath(op.path).targets
        # ``cnode[key=K]/sub/cnode`` feels only edges below the one
        # top-level node with key K: anchor away from the op's parents.
        near = {
            store.value_of(key)
            for sub_node in store.parents_of(target)
            for parent in store.parents_of(sub_node)
            for key in store.children_of(parent)
            if store.type_of(key) == "key"
        }
        keys = [k for k in range(1, 121) if str(k) not in near]
        subs = [
            service.subscribe(f"cnode[key={keys[i % len(keys)]}]/sub/cnode")
            for i in range(256)
        ]
        calls = []
        original = DagXPathEvaluator.evaluate_from

        def counting(self, path):
            calls.append(path)
            return original(self, path)

        monkeypatch.setattr(DagXPathEvaluator, "evaluate_from", counting)
        assert service.apply(op).accepted
        monkeypatch.undo()
        assert calls == []
        assert [sub.stats["skips"] for sub in subs] == [1] * 256
        assert service.subscriptions.stats()["skips"] == 256
        assert_current(service, subs, "after 256 skips")


# ---------------------------------------------------------------------------
# Property-based: random op streams never desynchronize a subscription
# ---------------------------------------------------------------------------


@given(
    registrar_streams(kinds=OP_KINDS),
    st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_streams_keep_subscriptions_current(stream, batched):
    service = registrar_service()
    subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
    batchable = [op for op in stream if not isinstance(op, BaseUpdateOp)]
    if batched and len(batchable) >= 2:
        try:
            service.apply(batchable)
        except Exception:
            pass  # rejected mid-batch under strict=False cannot raise,
            # but keep the property total
        assert_current(service, subs, "after random batch")
    else:
        for op in stream:
            service.apply(op)
            assert_current(service, subs, "after random op")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Result deltas: (added, removed) per commit
# ---------------------------------------------------------------------------


def assert_deltas_compose(service, subs, previous, tag=""):
    """After one apply: every subscription's delta turns its previous
    result into its current one, and matches a fresh-evaluation diff."""
    for sub in subs:
        before = previous[sub.id]
        added, removed = sub.delta()
        now = set(sub.result())
        fresh = set(service.xpath(sub.path).targets)
        assert now == fresh, f"{tag}: {sub.path!r} drifted"
        if sub.generation == previous["generation"]:
            # No commit reached this subscription: nothing changed.
            assert now == before, f"{tag}: {sub.path!r} moved without event"
        else:
            assert set(removed) <= before, f"{tag}: {sub.path!r} bad removed"
            assert not (set(added) & before), f"{tag}: {sub.path!r} bad added"
            assert (before - set(removed)) | set(added) == now, (
                f"{tag}: {sub.path!r} delta does not compose: "
                f"{before} -{removed} +{added} != {now}"
            )
        previous[sub.id] = now
    previous["generation"] = max(sub.generation for sub in subs)


class TestResultDeltas:
    def test_initial_delta_is_empty(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        assert sub.delta() == ((), ())

    def test_skip_yields_empty_delta(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS240]/takenBy/student")
        before = sub.result()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert sub.stats["skips"] == 1
        assert sub.delta() == ((), ())
        assert sub.result() == before

    def test_delete_and_insert_deltas(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = sub.result()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        added, removed = sub.delta()
        assert added == ()
        assert set(removed) == set(before) - set(sub.result())
        service.apply(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS240", "Data Structures")
        ))
        added, removed = sub.delta()
        assert removed == ()
        assert len(added) == 1
        assert set(sub.result()) == set(added)

    def test_mixed_stream_deltas_compose(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        previous = {sub.id: set(sub.result()) for sub in subs}
        previous["generation"] = max(sub.generation for sub in subs)
        stream = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                      "course", ("CS320", "Databases")),
            DeleteOp("course[cno=NOPE]"),  # rejected: no commit, no delta
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
            InsertOp(".", "course", ("CS700", "Theory")),
        ]
        for op in stream:
            service.apply(op)
            assert_deltas_compose(service, subs, previous, f"after {op.kind}")

    def test_batch_delta_spans_the_whole_session(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = set(sub.result())
        service.apply([
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
        ])
        added, removed = sub.delta()
        assert (before - set(removed)) | set(added) == set(sub.result())

    def test_fallback_read_delta_spans_missed_generations(self):
        # Reading mid-batch takes the fallback path; the delta then
        # spans everything since the subscription's last refresh.
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = set(sub.result())
        with service.batch() as batch:
            batch.apply(
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
            )
            added, removed = sub.delta()  # mid-batch: fallback refresh
            assert sub.stats["fallback_refreshes"] == 1
            assert (before - set(removed)) | set(added) == set(sub.result())


@given(
    registrar_streams(kinds=OP_KINDS),
    st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_stream_deltas_compose(stream, batched):
    service = registrar_service()
    subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
    previous = {sub.id: set(sub.result()) for sub in subs}
    previous["generation"] = max(sub.generation for sub in subs)
    batchable = [op for op in stream if not isinstance(op, BaseUpdateOp)]
    if batched and len(batchable) >= 2:
        service.apply(batchable)
        assert_deltas_compose(service, subs, previous, "after random batch")
    else:
        for op in stream:
            service.apply(op)
            assert_deltas_compose(service, subs, previous, "after random op")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Fine-grained base-update events (the reverse pipeline prunes too)
# ---------------------------------------------------------------------------


class TestFineGrainedBaseEvents:
    def test_unrelated_base_update_is_skipped(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        # Enrollment changes touch takenBy subtrees only: the prereq
        # subscription must skip, not re-evaluate.
        service.apply(BaseUpdateOp(ops=(
            ("insert", "enroll", ("S03", "CS650")),
        )))
        assert sub.stats["skips"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert_current(service, [sub], "after unrelated base update")

    def test_relevant_base_update_updates_result(self):
        service = registrar_service()
        sub = service.subscribe("//course[cno=CS901]")
        assert sub.result() == ()
        service.apply(BaseUpdateOp(ops=(
            ("insert", "course", ("CS901", "Seminar", "CS")),
        )))
        assert len(sub.result()) == 1
        added, removed = sub.delta()
        assert removed == () and len(added) == 1
        assert_current(service, [sub], "after relevant base update")

    def test_direct_apply_base_update_also_fine_grained(self):
        # Driven around the façade (no plan/commit), the same event.
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        events = []
        service.changefeed(on_event=events.append)
        from repro.relational.database import RelationalDelta

        delta = RelationalDelta()
        delta.insert("enroll", ("S01", "CS320"))
        service.updater.apply_base_update(delta)
        assert len(events) == 1
        assert not events[0].coarse
        assert all(rec.kind == "insert" for rec in events[0].edges)
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        )

    def test_base_update_losses_and_gains_are_typed(self):
        service = registrar_service()
        events = []
        service.changefeed(on_event=events.append)
        service.apply(BaseUpdateOp(ops=(
            ("delete", "prereq", ("CS650", "CS320")),
            ("insert", "prereq", ("CS650", "CS240")),
        )))
        [event] = events
        assert not event.coarse
        kinds = {(rec.kind, rec.parent_type, rec.child_type)
                 for rec in event.edges}
        assert ("delete", "prereq", "course") in kinds
        assert ("insert", "prereq", "course") in kinds


# ---------------------------------------------------------------------------
# Cost-based coarse fallback
# ---------------------------------------------------------------------------


class TestCoarseFallback:
    def test_threshold_zero_coarsens_every_fine_event(self):
        service = registrar_service()
        service.subscriptions.coarse_threshold = 0
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        stats = service.subscriptions.stats()
        assert stats["coarse_fallbacks"] == len(subs)
        assert stats["skips"] == 0
        assert stats["full_refreshes"] == len(subs)
        assert_current(service, subs, "after coarsened event")

    def test_default_threshold_leaves_small_events_fine(self):
        service = registrar_service()
        service.subscribe("course[cno=CS240]/takenBy/student")
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        stats = service.subscriptions.stats()
        assert stats["coarse_fallbacks"] == 0
        assert stats["skips"] == 1

    def test_threshold_surfaces_in_stats_and_config(self):
        from repro.subscribe.engine import DEFAULT_COARSE_THRESHOLD

        service = registrar_service()
        assert service.subscriptions.stats()["coarse_threshold"] == (
            DEFAULT_COARSE_THRESHOLD
        )
        service.subscriptions.coarse_threshold = 7
        assert service.subscriptions.stats()["coarse_threshold"] == 7
        assert "coarse_event_threshold" not in service.config.to_dict()

    def test_equivalence_preserved_under_tiny_threshold(self):
        service = registrar_service()
        service.subscriptions.coarse_threshold = 1
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        for op in (
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp(".", "course", ("CS700", "Theory")),
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
        ):
            service.apply(op)
            assert_current(service, subs, "tiny threshold")
        assert service.check_consistency() == []
