"""Concurrency stress: readers and consumers racing a committing writer.

The staged commit pipeline's ordering contract under real thread
interleavings (see the concurrency-model section of
``docs/architecture.md``):

- **generation fencing** — an event observable on the changefeed (pull
  *or* callback mode) implies subscription maintenance for that
  generation already completed, so a consumer that reads
  ``sub.result()`` after taking generation ``g`` can never see a
  subscription that lags ``g``;
- readers (``service.xpath``) never observe a torn mid-commit view;
- nothing deadlocks or leaks an exception across N readers, M pull
  consumers and a callback consumer while a writer commits a mix of
  single ops and batches.

Marked ``stress``: the plain tier-1 run includes it (it finishes in a
few seconds), CI additionally runs ``-m stress`` as a dedicated smoke
leg under ``timeout``.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.ops import DeleteOp, InsertOp
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar

QUERIES = (
    "course[cno=CS650]//course",
    "//course[cno=CS320]",
    "course/prereq/course",
)

DELETE = DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
INSERT = InsertOp(
    "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
)

COMMITS = 40
READERS = 2
PULLERS = 2


def _service():
    atg, db = build_registrar()
    return open_view(
        atg,
        db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )


@pytest.mark.stress
def test_readers_and_consumers_race_a_committing_writer():
    service = _service()
    subs = [service.subscribe(q) for q in QUERIES]

    errors: list[BaseException] = []
    stop = threading.Event()

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # pragma: no cover - failures
                errors.append(exc)
                stop.set()

        return run

    def write():
        present = True
        try:
            for i in range(COMMITS):
                if i % 5 == 4:
                    # A batch publishes once, at its last op's generation;
                    # it toggles CS320 out and back (or vice versa),
                    # leaving `present` unchanged.
                    first, second = (
                        (DELETE, INSERT) if present else (INSERT, DELETE)
                    )
                    with service.batch() as batch:
                        batch.apply(first)
                        batch.apply(second)
                else:
                    service.apply(DELETE if present else INSERT)
                    present = not present
        finally:
            stop.set()

    def read():
        while not stop.is_set():
            result = service.xpath(QUERIES[0])
            # A torn read would surface as an exception or a result
            # whose targets reference nodes the store no longer holds;
            # xpath() evaluating under the read lock guarantees neither.
            assert result.targets is not None

    def make_puller(feed):
        def pull():
            while True:
                event = feed.next_event(timeout=0.1)
                if event is None:
                    if stop.is_set() and not feed.pending:
                        return
                    continue
                # Generation fencing: this event became observable only
                # after maintenance for its generation completed.
                for sub in subs:
                    assert sub.generation >= event.generation, (
                        f"event generation {event.generation} published "
                        f"before subscription {sub.path} was current "
                        f"(at {sub.generation})"
                    )

        return pull

    stale: list[tuple[int, int]] = []

    def on_event(event):
        # Callback mode publishes on the committing thread; the fence
        # must hold there too.
        for sub in subs:
            if sub.generation < event.generation:
                stale.append((event.generation, sub.generation))

    service.changefeed(on_event=on_event)
    feeds = [service.changefeed() for _ in range(PULLERS)]

    threads = [threading.Thread(target=guarded(write), name="writer")]
    threads += [
        threading.Thread(target=guarded(read), name=f"reader-{i}")
        for i in range(READERS)
    ]
    threads += [
        threading.Thread(target=guarded(make_puller(feed)), name=f"pull-{i}")
        for i, feed in enumerate(feeds)
    ]
    for thread in threads:
        thread.start()
    # Strict mode (calm machines / CI perf leg) keeps the tight bound;
    # the loose default absorbs scheduler starvation on busy runners —
    # a hang still fails, just later.
    join_timeout = 60 if os.environ.get("REPRO_BENCH_STRICT") else 180
    for thread in threads:
        thread.join(timeout=join_timeout)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"threads failed to finish: {hung}"
    assert not errors, f"worker raised: {errors[0]!r}"
    assert not stale, f"callback saw stale subscriptions: {stale[:3]}"

    # Quiescent state: every consumer saw every commit, every
    # subscription converged to the final generation, and the view
    # verifies against a republish.
    final = service.stats()["generation"]
    for feed in feeds:
        assert feed.generation == final
    for sub in subs:
        assert sub.generation == final
    assert service.check_consistency() == []
