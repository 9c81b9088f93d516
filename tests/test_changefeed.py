"""Tests for the public changefeed (``service.changefeed``).

The contract under test (normative spec: ``docs/event-schema.md``):

- one JSON-round-trip :class:`ViewEvent` per committed generation
  observable at rest (a batch coalesces to one event, at its last op's
  generation; aborted plans and rejected ops publish nothing);
- ``changefeed(since=g)`` replays exactly the retained events after
  ``g``, gaplessly, then goes live; a resume point older than retention
  raises :class:`ReplayGapError`, one ahead of the feed raises
  :class:`ChangefeedError`;
- a consumer resuming from *any* retained generation reconstructs the
  same final subscription results and ``(added, removed)`` deltas as a
  consumer attached from generation 0 (the acceptance property).
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings

from repro.changefeed import ReplayBuffer, consumer
from repro.errors import ChangefeedError, EventDecodeError, ReplayGapError
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.relational.database import RelationalDelta
from repro.service import ViewConfig, open_view
from repro.subscribe import SCHEMA_VERSION, EdgeRecord, ViewEvent
from repro.workloads import REGISTRAR_QUERIES
from repro.workloads.registrar import build_registrar

from registrar_streams import apply_item, registrar_streams


def registrar_service(**config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return open_view(atg, db, config=ViewConfig(**config))


def summarize(events):
    return [(e.generation, e.coarse, e.reason) for e in events]


# ---------------------------------------------------------------------------
# The replay buffer (unit level)
# ---------------------------------------------------------------------------


class TestReplayBuffer:
    def _event(self, gen):
        return ViewEvent(generation=gen, reason=f"g{gen}")

    def test_since_returns_suffix_in_order(self):
        buf = ReplayBuffer(capacity=10)
        for gen in (1, 2, 5, 6):  # generations need not be dense
            buf.append(self._event(gen))
        assert [e.generation for e in buf.since(0)] == [1, 2, 5, 6]
        assert [e.generation for e in buf.since(2)] == [5, 6]
        assert [e.generation for e in buf.since(3)] == [5, 6]
        assert buf.since(6) == []

    def test_eviction_raises_floor(self):
        buf = ReplayBuffer(capacity=2)
        for gen in (1, 2, 3):
            buf.append(self._event(gen))
        assert buf.floor == 1
        assert [e.generation for e in buf.since(1)] == [2, 3]
        with pytest.raises(ReplayGapError) as info:
            buf.since(0)
        assert info.value.since == 0
        assert info.value.floor == 1

    def test_initial_floor_is_attach_generation(self):
        buf = ReplayBuffer(capacity=4, floor=7)
        with pytest.raises(ReplayGapError):
            buf.since(6)
        assert buf.since(7) == []
        assert buf.latest == 7

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)


# ---------------------------------------------------------------------------
# The frozen event wire format
# ---------------------------------------------------------------------------


class TestEventWireFormat:
    def test_fine_event_round_trips(self):
        event = ViewEvent(
            generation=7,
            edges=[
                EdgeRecord("insert", "prereq", "course", 4, 9, None),
                EdgeRecord("delete", "course", "cno", 9, 11, "CS320"),
            ],
            reason="replace",
        )
        assert ViewEvent.from_json(event.to_json()) == event
        payload = event.to_dict()
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["edges"][1]["child_value"] == "CS320"

    def test_coarse_event_round_trips(self):
        event = ViewEvent(generation=3, coarse=True, reason="rebuild")
        assert ViewEvent.from_dict(event.to_dict()) == event

    def test_deferred_flag_never_serialized(self):
        # Published events are batch-coalesced: the wire format never
        # had a 'deferred' key, and the in-memory event lost the flag.
        event = ViewEvent(generation=2, reason="insert")
        assert "deferred" not in event.to_dict()
        assert not hasattr(event, "deferred")

    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("schema"),
        lambda p: p.update(schema=SCHEMA_VERSION + 1),
        lambda p: p.update(generation="7"),
        lambda p: p.update(generation=True),
        lambda p: p.update(coarse="no"),
        lambda p: p.pop("edges"),
        lambda p: p.update(edges=[{"kind": "upsert"}]),
        lambda p: p.update(edges=[{"kind": "insert"}]),
    ])
    def test_malformed_payloads_raise(self, mutate):
        payload = ViewEvent(
            generation=7,
            edges=[EdgeRecord("insert", "a", "b", 1, 2)],
        ).to_dict()
        mutate(payload)
        with pytest.raises(EventDecodeError):
            ViewEvent.from_dict(payload)

    def test_bad_json_text_raises(self):
        with pytest.raises(EventDecodeError):
            ViewEvent.from_json("{not json")
        with pytest.raises(EventDecodeError):
            ViewEvent.from_json('"a string"')


# ---------------------------------------------------------------------------
# Consumer protocol over a live service
# ---------------------------------------------------------------------------


class TestConsumerProtocol:
    def test_pull_consumer_sees_each_commit(self):
        service = registrar_service()
        feed = service.changefeed()
        assert feed.generation == 0
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        service.apply(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
        ))
        events = feed.events()
        assert [e.generation for e in events] == [1, 2]
        assert events[0].reason == "delete" and events[1].reason == "insert"
        assert all(not e.coarse for e in events)
        assert feed.generation == 2
        assert feed.pending == 0

    def test_rejections_and_aborts_publish_nothing(self):
        service = registrar_service()
        feed = service.changefeed()
        service.apply(DeleteOp("course[cno=NOPE]/prereq"))  # rejected
        plan = service.plan(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
        ))
        plan.abort()
        assert feed.events() == []
        assert service.changefeeds.stats()["events_published"] == 0

    def test_batch_coalesces_to_one_event_at_flush_generation(self):
        service = registrar_service()
        feed = service.changefeed()
        service.apply([
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
        ])
        events = feed.events()
        assert len(events) == 1
        # One generation per op; the event is stamped with the last.
        assert events[0].generation == service.updater.generation == 2
        assert events[0].reason == "insert"
        assert {rec.kind for rec in events[0].edges} == {"insert", "delete"}

    def test_callback_runs_after_subscription_maintenance(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        seen = []

        def on_event(event):
            # The registry is pinned ahead of the hub: the subscription
            # already reflects this event's generation.
            assert sub.generation == event.generation
            seen.append((event.generation, sub.delta()))

        service.changefeed(on_event=on_event)
        before = sub.result()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert len(seen) == 1
        generation, (added, removed) = seen[0]
        assert generation == 1
        assert added == ()
        assert set(before) - set(sub.result()) == set(removed)

    def test_callback_consumer_cannot_pull(self):
        service = registrar_service()
        feed = service.changefeed(on_event=lambda e: None)
        with pytest.raises(ChangefeedError):
            feed.next_event(timeout=0)
        with pytest.raises(ChangefeedError):
            feed.events()
        with pytest.raises(ChangefeedError):
            iter(feed).__next__()

    def test_close_detaches_and_unblocks(self):
        service = registrar_service()
        feed = service.changefeed()
        collected = []
        thread = threading.Thread(
            target=lambda: collected.extend(feed)
        )
        thread.start()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        feed.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert [e.generation for e in collected] == [1]
        assert feed.closed
        assert len(service.changefeeds) == 0
        # Closing twice is fine; next_event on a drained closed feed is None.
        feed.close()
        assert feed.next_event(timeout=0) is None

    def test_context_manager_closes(self):
        service = registrar_service()
        with service.changefeed() as feed:
            service.apply(
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
            )
            assert feed.next_event(timeout=1).generation == 1
        assert feed.closed

    def test_stats_surface(self):
        service = registrar_service()
        stats = service.stats()["changefeed"]
        assert stats["attached"] is False
        service.changefeed()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        stats = service.stats()["changefeed"]
        assert stats == {
            "attached": True,
            "consumers": 1,
            "events_published": 1,
            "callback_errors": 0,
            "overflows": 0,
            "parks": 0,
            "retention": 256,
            "retained": 1,
            "floor": 0,
            "durable": False,
        }

    def test_callback_write_back_is_rejected(self):
        # The write lock is reentrant for its owner, so without a guard
        # a callback could start a nested commit and publish events out
        # of order mid-delivery.  The updater refuses instead.
        from repro.errors import PlanError

        service = registrar_service()
        feed = service.changefeed(on_event=lambda event: service.apply(
            InsertOp(".", "course", ("CS999", "Nested"))
        ))
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert outcome.accepted  # the outer commit is unharmed
        assert feed.closed and isinstance(feed.error, PlanError)
        # No nested event was ever published.
        assert service.changefeeds.stats()["events_published"] == 1
        assert service.check_consistency() == []

    def test_lagging_pull_consumer_detached_at_queue_bound(self, monkeypatch):
        service = registrar_service(changefeed_retention=2)
        # Pull, never drained; bound = 4.  A short block timeout keeps
        # the full-queue grace period from slowing the test down.
        monkeypatch.setattr(consumer, "DEFAULT_BLOCK_TIMEOUT", 0.05)
        feed = service.changefeed()
        ops = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
        ]
        for _ in range(3):
            for op in ops:
                service.apply(op)
        assert feed.closed
        assert isinstance(feed.error, ChangefeedError)
        assert service.changefeeds.stats()["overflows"] == 1
        assert len(service.changefeeds) == 0
        # The backlog (up to the bound) stays drainable, and the
        # consumer can reattach from its last generation via replay.
        backlog = feed.events()
        assert len(backlog) == 4
        resumed = service.changefeed(since=backlog[-1].generation)
        assert [e.generation for e in resumed.events()] == [5, 6]

    def test_raising_callback_detaches_instead_of_failing_commit(self):
        service = registrar_service()
        healthy_seen = []

        def broken(event):
            raise RuntimeError("consumer bug")

        bad = service.changefeed(on_event=broken)
        good = service.changefeed(on_event=healthy_seen.append)
        # The commit itself must succeed — the consumer is the buggy
        # party, not the writer.
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert outcome.accepted
        assert bad.closed
        assert isinstance(bad.error, RuntimeError)
        assert len(healthy_seen) == 1  # later consumers still served
        assert service.changefeeds.stats()["callback_errors"] == 1


# ---------------------------------------------------------------------------
# Replay: resume semantics and edge cases
# ---------------------------------------------------------------------------


class TestReplay:
    def _ops(self):
        # All four kinds; every op is accepted against the seed data
        # applied in this order.
        return [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
            ReplaceOp("course[cno=CS650]/prereq/course[cno=CS320]",
                      "course", ("CS500", "Operating Systems")),
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS901", "Seminar", "CS")),
            )),
        ]

    def test_resume_from_tail_replays_everything(self):
        service = registrar_service()
        # Attach at generation 0: retention covers the whole history.
        full = service.changefeed()
        for op in self._ops():
            service.apply(op)
        published = full.events()
        assert len(published) == len(self._ops())
        feed = service.changefeed(since=0)
        assert summarize(feed.events()) == summarize(published)
        # Replay precedes live delivery; new commits then flow.  (The
        # replace above left CS500 as the CS650 prerequisite.)
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS500]"))
        assert [e.reason for e in feed.events()] == ["delete"]

    def test_resume_from_head_replays_nothing(self):
        service = registrar_service()
        service.changefeed()
        for op in self._ops():
            service.apply(op)
        head = service.updater.generation
        feed = service.changefeed(since=head)
        assert feed.events() == []

    def test_base_update_generations_are_increasing_not_dense(self):
        # The spec promises strictly increasing generations, not dense
        # ones (a failed commit burns one without publishing).
        service = registrar_service()
        feed = service.changefeed()
        for op in self._ops():
            service.apply(op)
        generations = [e.generation for e in feed.events()]
        assert generations == sorted(set(generations))
        assert generations[-1] == service.updater.generation

    def test_resume_mid_stream_gets_exact_suffix(self):
        service = registrar_service()
        full = service.changefeed()
        for op in self._ops():
            service.apply(op)
        all_events = full.events()
        for position, event in enumerate(all_events):
            feed = service.changefeed(since=event.generation)
            assert summarize(feed.events()) == summarize(
                all_events[position + 1:]
            )
            feed.close()

    def test_since_ahead_of_feed_raises(self):
        service = registrar_service()
        service.changefeed()
        with pytest.raises(ChangefeedError):
            service.changefeed(since=99)

    def test_failed_changefeed_call_leaves_no_side_effects(self):
        # A rejected since= must not switch on per-commit event
        # construction for the service's lifetime.
        service = registrar_service()

        def sealed():
            return service.stats()["pipeline"]["records_sealed"]

        with pytest.raises(ChangefeedError):
            service.changefeed(since=99)
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        with pytest.raises(ReplayGapError):
            service.changefeed(since=0)  # floor is already 1: unattached
        assert service.stats()["changefeed"]["attached"] is False
        service.apply(DeleteOp("course[cno=CS240]/prereq/course[cno=CS120]"))
        assert sealed() == 0  # still nobody consuming: no event built
        # A successful call is what attaches.
        service.changefeed()
        assert service.stats()["changefeed"]["attached"] is True
        service.apply(InsertOp(".", "course", ("CS805", "Five")))
        assert sealed() == 1

    def test_base_update_from_callback_is_rejected(self):
        from repro.errors import PlanError

        service = registrar_service()
        delta = RelationalDelta()
        delta.insert("enroll", ("S01", "CS320"))
        feed = service.changefeed(
            on_event=lambda event: service.updater.apply_base_update(delta)
        )
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert outcome.accepted
        assert feed.closed and isinstance(feed.error, PlanError)
        assert service.check_consistency() == []

    def test_since_older_than_retention_raises_gap(self):
        service = registrar_service(changefeed_retention=2)
        full = service.changefeed()
        for op in self._ops():
            service.apply(op)
        generations = [e.generation for e in full.events()]
        with pytest.raises(ReplayGapError) as info:
            service.changefeed(since=0)
        # The floor is the newest evicted generation...
        assert info.value.floor == generations[-3]
        assert info.value.since == 0
        # ...and is itself still resumable: exactly the retained 2 events.
        feed = service.changefeed(since=info.value.floor)
        assert [e.generation for e in feed.events()] == generations[-2:]

    def test_gap_at_exact_compaction_boundary(self):
        # Satellite of ISSUE 7: walk the resume point across the wrap
        # boundary of the bounded replay buffer one generation at a
        # time, and pin down the error payload a replica needs for
        # re-bootstrap (``oldest_available``).
        service = registrar_service(changefeed_retention=3)
        full = service.changefeed()
        cycle = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
        ]
        for op in cycle * 3:  # 6 commits >> retention of 3
            assert service.apply(op).accepted
        generations = [e.generation for e in full.events()]
        assert len(generations) == 6
        floor = generations[-4]  # newest evicted generation
        # One before the boundary: gap, typed, with the resume floor.
        with pytest.raises(ReplayGapError) as info:
            service.changefeed(since=floor - 1)
        assert info.value.since == floor - 1
        assert info.value.floor == floor
        assert info.value.oldest_available == floor
        # At the boundary: attaches gaplessly with the retained suffix.
        feed = service.changefeed(since=floor)
        assert [e.generation for e in feed.events()] == generations[-3:]
        # The hub agrees about what is retained.
        stats = service.stats()["changefeed"]
        assert stats["retained"] == 3
        assert stats["floor"] == floor

    def test_events_before_first_changefeed_are_not_retained(self):
        service = registrar_service()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        with pytest.raises(ReplayGapError):
            service.changefeed(since=0)
        assert service.changefeed(since=1).events() == []

    def test_replay_spans_batches_and_aborts(self):
        service = registrar_service()
        service.changefeed()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        plan = service.plan(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
        ))
        plan.abort()  # publishes nothing, burns no generation
        service.apply([  # coalesces to one event
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
            DeleteOp("course[cno=CS240]/prereq/course[cno=CS120]"),
        ])
        service.apply(DeleteOp("course[cno=NOPE]"))  # rejected: nothing
        # The batch's delete selects nothing: its event is the insert's.
        assert service.updater.generation == 2
        feed = service.changefeed(since=0)
        assert [(e.generation, e.reason) for e in feed.events()] == [
            (1, "delete"),
            (2, "insert"),
        ]

    def test_undo_publishes_like_any_base_update(self):
        service = registrar_service()
        feed = service.changefeed()
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        service.undo(outcome)
        events = feed.events()
        assert [e.reason for e in events] == ["delete", "base_update"]
        assert all(not e.coarse for e in events)


# ---------------------------------------------------------------------------
# The acceptance property: resume-from-anywhere reconstructs everything
# ---------------------------------------------------------------------------


@given(registrar_streams())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_resume_from_every_generation_reconstructs_results(stream):
    """ISSUE 5 acceptance: for any op stream, a consumer resuming from
    every retained generation sees the exact missing event suffix, and
    folding the per-generation subscription deltas from its resume
    snapshot reconstructs the same final results as the gen-0 consumer."""
    service = registrar_service()
    subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]

    results_at = {0: {s.id: s.result() for s in subs}}
    deltas_at = {}
    event_log = []

    def on_event(event):
        event_log.append(event)
        results_at[event.generation] = {s.id: s.result() for s in subs}
        deltas_at[event.generation] = {s.id: s.delta() for s in subs}

    service.changefeed(on_event=on_event)

    for item in stream:
        apply_item(service, item)

    final = {s.id: s.result() for s in subs}
    for sub in subs:
        fresh = tuple(sorted(service.xpath(sub.path).targets))
        assert final[sub.id] == fresh

    generations = [e.generation for e in event_log]
    for start, snapshot_gen in enumerate([0] + generations):
        feed = service.changefeed(since=snapshot_gen)
        replayed = feed.events()
        # Exactly the missing suffix, in order.
        assert summarize(replayed) == summarize(event_log[start:])
        # Folding the recorded deltas from the resume snapshot lands on
        # the gen-0 consumer's final state for every subscription.
        state = {
            sid: set(nodes)
            for sid, nodes in results_at[snapshot_gen].items()
        }
        for event in replayed:
            for sid, (added, removed) in deltas_at[event.generation].items():
                state[sid] -= set(removed)
                state[sid] |= set(added)
        for sub in subs:
            assert tuple(sorted(state[sub.id])) == final[sub.id], (
                f"resume from {snapshot_gen} drifted for {sub.path!r}"
            )
        feed.close()
    assert service.check_consistency() == []
