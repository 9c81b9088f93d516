"""Tests for the staged commit pipeline (``repro.service.pipeline``).

What the phase split must and must not change:

- ``service.stats()['pipeline']`` surfaces per-phase timings and lock
  wait/hold accounting; batches commit through one pipeline scope;
- a full pull queue parks the publisher until the consumer drains (then
  detaches it on timeout);
- a ``close()`` racing a blocked ``next_event()`` wakes it with
  :class:`~repro.errors.ChangefeedError` instead of letting it time out
  (the changefeed close-race fix).
"""

from __future__ import annotations

import threading
import time

from repro.changefeed import consumer
from repro.errors import ChangefeedError
from repro.ops import DeleteOp, InsertOp
from repro.service import ViewConfig, open_view
from repro.service.pipeline import PHASES
from repro.workloads.registrar import build_registrar

DELETE = DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
INSERT = InsertOp(
    "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
)


def registrar_service(**config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return open_view(atg, db, config=ViewConfig(**config))


def toggle(service, commits):
    """Alternate delete/insert of the CS320 prereq ``commits`` times."""
    for i in range(commits):
        service.apply(DELETE if i % 2 == 0 else INSERT)


# ---------------------------------------------------------------------------
# The pipeline itself
# ---------------------------------------------------------------------------


class TestCommitPipeline:
    def test_stats_surface_per_phase_timings(self):
        service = registrar_service()
        service.subscribe("//course")
        feed = service.changefeed()
        service.apply(DELETE)
        stats = service.stats()["pipeline"]
        assert stats["commits"] == 1
        assert stats["records_sealed"] == 1
        assert stats["lock_wait_seconds"] >= 0.0
        assert stats["lock_hold_seconds"] > 0.0
        # All four phases ran: a subscription forces maintain, the open
        # feed forces publish, and mutate is the accounted remainder.
        assert set(stats["phase_seconds"]) == set(PHASES)
        assert stats["last"]["generation"] == 1
        assert feed.next_event(timeout=1).generation == 1

    def test_publish_runs_after_maintain(self):
        # The fence the stress test hammers, in its smallest form: by
        # the time the callback sees generation g, the subscription has
        # already converged to g.
        service = registrar_service()
        sub = service.subscribe("//course")
        seen = []
        service.changefeed(
            on_event=lambda e: seen.append((e.generation, sub.generation))
        )
        toggle(service, 3)
        assert seen == [(1, 1), (2, 2), (3, 3)]

    def test_batch_commits_through_one_scope(self):
        service = registrar_service()
        feed = service.changefeed()
        with service.batch() as batch:
            batch.apply(DELETE)
            batch.apply(INSERT)
        stats = service.stats()["pipeline"]
        assert stats["commits"] == 1
        # One coalesced event, at the last op's generation.
        events = feed.events()
        assert len(events) == 1
        assert events[0].generation == service.stats()["generation"]

    def test_rejected_op_seals_nothing(self):
        service = registrar_service()
        service.changefeed()
        outcome = service.apply(
            DeleteOp("course[cno=NOPE]/prereq/course[cno=CS320]")
        )
        assert not outcome.accepted
        stats = service.stats()["pipeline"]
        assert stats["commits"] == 1
        assert stats["records_sealed"] == 0
        assert service.changefeeds.stats()["events_published"] == 0


# ---------------------------------------------------------------------------
# A full pull queue
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_block_writer_waits_for_a_drain(self, monkeypatch):
        monkeypatch.setattr(consumer, "DEFAULT_BLOCK_TIMEOUT", 5.0)
        service = registrar_service(changefeed_retention=1)
        feed = service.changefeed()  # bound 2
        toggle(service, 2)  # queue full

        drained = []

        def drain():
            time.sleep(0.05)
            drained.append(feed.next_event(timeout=1))

        thread = threading.Thread(target=drain)
        thread.start()
        # Delivery of generation 3 parks until the drain frees a slot;
        # the consumer survives instead of detaching.
        service.apply(DELETE)
        thread.join()
        assert drained[0].generation == 1
        assert not feed.closed
        assert service.changefeeds.stats()["overflows"] == 0
        assert [e.generation for e in feed.events()] == [2, 3]


# ---------------------------------------------------------------------------
# The close()/next_event() race
# ---------------------------------------------------------------------------


class TestCloseRace:
    def test_close_wakes_blocked_next_event(self):
        service = registrar_service()
        feed = service.changefeed()
        outcome: list[object] = []

        def pull():
            try:
                outcome.append(feed.next_event(timeout=30))
            except ChangefeedError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=pull)
        thread.start()
        time.sleep(0.05)  # let the puller park
        feed.close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "close() left next_event() hanging"
        assert isinstance(outcome[0], ChangefeedError)

    def test_close_before_call_still_returns_none(self):
        service = registrar_service()
        feed = service.changefeed()
        service.apply(DELETE)
        feed.close()
        # Already-queued events stay drainable; only a *blocked* call
        # gets the exception.
        assert feed.next_event(timeout=0).generation == 1
        assert feed.next_event(timeout=0) is None

    def test_iteration_ends_on_concurrent_close(self):
        service = registrar_service()
        feed = service.changefeed()
        service.apply(DELETE)
        collected: list[int] = []

        def consume():
            for event in feed:
                collected.append(event.generation)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        feed.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert collected == [1]
