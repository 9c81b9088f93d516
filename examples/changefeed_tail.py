"""Tailing a view's changefeed: replay, live events, result deltas.

Demonstrates the public changefeed API on the registrar example:

1. ``service.changefeed()`` (opened right after ``open_view``) starts
   retention at generation 0, so later consumers can replay the whole
   history;
2. every committed operation publishes one JSON-serializable
   ``ViewEvent`` (batches arrive as a single coalesced event) — the
   frozen wire format is specified in ``docs/event-schema.md``;
3. ``service.changefeed(since=g)`` replays exactly the events after
   generation ``g`` and then goes live; a resume point older than the
   retention window raises ``ReplayGapError``;
4. subscriptions expose per-commit ``delta()`` — ``(added, removed)``
   node ids — the cheap feed for watchers that mirror a result set.

Run:  python examples/changefeed_tail.py
"""

from repro import ReplayGapError, ViewConfig, ViewEvent, open_view
from repro.workloads import registrar_op_stream
from repro.workloads.registrar import build_registrar


def describe(event: ViewEvent) -> str:
    return f"gen {event.generation:>2}  {event.reason:<12} {len(event.edges)} edge(s)"


def main():
    atg, db = build_registrar()
    service = open_view(atg, db, config=ViewConfig(
        side_effects="propagate", strict=False, changefeed_retention=64,
    ))

    # Attach before the first commit: the replay buffer then covers the
    # whole history of the service.
    archive = service.changefeed()
    watched = service.subscribe("course[cno=CS650]/prereq/course")

    print("=== live tail (callback mode) " + "=" * 34)
    service.changefeed(on_event=lambda event: print(
        f"  {describe(event)}   prereq delta {watched.delta()}"
    ))

    for op in registrar_op_stream():
        service.apply(op)

    print("\n=== every event is one JSON object " + "=" * 29)
    history = archive.events()
    for event in history:
        print(f"  {event.to_json()[:76]}...")

    print("\n=== resuming from a retained generation " + "=" * 24)
    resume_from = history[1].generation
    follower = service.changefeed(since=resume_from)
    replayed = follower.events()
    print(f"  changefeed(since={resume_from}) replayed "
          f"{len(replayed)} event(s): "
          f"{[e.generation for e in replayed]}")

    print("\n=== a gap is a typed error, never silence " + "=" * 22)
    try:
        service.changefeed(since=-1)
    except ReplayGapError as exc:
        print(f"  ReplayGapError: since={exc.since} floor={exc.floor}")

    stats = service.stats()["changefeed"]
    print(f"\nchangefeed stats: {stats}")
    assert stats["events_published"] == len(history)


if __name__ == "__main__":
    main()
