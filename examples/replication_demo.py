"""One writer, N replica processes bootstrapped from its WAL directory.

The replication loop from ``docs/replication.md``, end to end, with no
connection between the processes — the log directory is the channel:

1. the writer opens the registrar view with a ``wal_dir`` and
   ``wal_fsync="always"`` (every commit is on disk before ``apply``
   returns) and records its store digest at every generation;
2. half way through its op stream it spawns replica A, which calls
   ``ReplicaView.from_wal(atg, wal_dir)`` — the newest checkpoint plus
   every logged event past it — and lands mid-stream; the writer waits
   for that landing, then commits the rest;
3. after the last op it spawns replica B the same way;
4. once the writer is done it hands each replica its digest table, and
   each replica checks that its own digest equals the writer's at the
   generation it landed on.

The parent exits nonzero unless every replica matched and the last one
reached the writer's final generation — CI runs this.

Run:  python examples/replication_demo.py
"""

import multiprocessing as mp
import sys
import tempfile

from repro import (
    BaseUpdateOp,
    DeleteOp,
    InsertOp,
    ReplaceOp,
    ReplicaView,
    ViewConfig,
    open_view,
)
from repro.workloads.registrar import build_registrar


def op_stream():
    """A deterministic mixed stream: all four op kinds plus a batch."""
    return [
        DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
        InsertOp("course[cno=CS650]/prereq", "course",
                 ("CS500", "Operating Systems")),
        ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                  "course", ("CS700", "Theory")),
        BaseUpdateOp(ops=(("insert", "course", ("CS901", "Seminar", "CS")),)),
        [  # one batch -> one coalesced event
            InsertOp("course[cno=CS240]/prereq", "course",
                     ("CS902", "Colloquium")),
            DeleteOp("course[cno=CS240]/prereq/course[cno=CS120]"),
        ],
    ]


def replica_main(name, wal_dir, landed, digests_queue, reports):
    """Bootstrap from the WAL, then check against the writer's digests."""
    atg, _db = build_registrar()
    replica = ReplicaView.from_wal(atg, wal_dir)
    stats = replica.stats()
    landed.put((name, stats["generation"]))
    writer_digests = digests_queue.get()  # {generation: digest}
    reports.put({
        "name": name,
        "generation": stats["generation"],
        "converged": writer_digests.get(stats["generation"])
        == replica.digest(),
    })


def main():
    with tempfile.TemporaryDirectory(prefix="repro-replication-") as wal_dir:
        return run(wal_dir)


def run(wal_dir):
    ctx = mp.get_context("spawn")
    atg, db = build_registrar()
    service = open_view(atg, db, config=ViewConfig(
        side_effects="propagate", strict=False,
        wal_dir=wal_dir, wal_fsync="always",
    ))
    digests = {service.stats()["generation"]: service.store.digest()}
    landed, report_queue = ctx.Queue(), ctx.Queue()
    queues, procs = [], []

    def spawn(name):
        queue = ctx.Queue()
        proc = ctx.Process(
            target=replica_main,
            args=(name, wal_dir, landed, queue, report_queue),
        )
        proc.start()
        queues.append(queue)
        procs.append(proc)
        name, generation = landed.get(timeout=60.0)
        print(f"writer: {name} bootstrapped from the WAL at generation "
              f"{generation}")

    ops = op_stream()
    for position, op in enumerate(ops):
        if position == len(ops) // 2:
            spawn("replica-A")  # lands mid-stream
        service.apply(op)
        digests[service.stats()["generation"]] = service.store.digest()
    spawn("replica-B")  # lands at the end
    final_generation = service.stats()["generation"]
    print(f"writer: head at generation {final_generation}, "
          f"digest {digests[final_generation][:12]}")

    for queue in queues:
        queue.put(digests)
    reports = sorted(
        (report_queue.get(timeout=60.0) for _ in procs),
        key=lambda r: r["name"],
    )
    for proc in procs:
        proc.join(timeout=30.0)
    service.close()

    for report in reports:
        print(f"{report['name']}: from_wal landed at generation "
              f"{report['generation']}, digest matches the writer's: "
              f"{report['converged']}")
    if (
        not all(r["converged"] for r in reports)
        or reports[-1]["generation"] != final_generation
        # A mid-stream landing past the boot checkpoint replayed the log.
        or reports[0]["generation"] == 0
    ):
        print("replication demo FAILED", file=sys.stderr)
        return 1
    print(f"replication demo OK: {len(reports)} replica process(es) "
          f"bootstrapped from the WAL, byte-identical to the writer")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
