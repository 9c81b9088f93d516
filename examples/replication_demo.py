"""One writer, N out-of-process read replicas, over the socket transport.

The full replication loop from ``docs/replication.md``, end to end:

1. the writer process opens the registrar view, attaches a changefeed
   (retention from generation 0) and starts a ``ReplicationServer`` on
   an ephemeral TCP port;
2. replica A bootstraps immediately (snapshot at generation 0 + the
   whole event stream); the writer then applies half its op stream;
3. replica B bootstraps **mid-stream** — its snapshot already contains
   the first half, and it folds only the rest;
4. the writer applies the remaining ops, publishes its final generation
   and store digest, and every replica fences with
   ``wait_for(final_generation)`` before comparing digests.

The parent process asserts byte-identical convergence (equal digests,
nonzero events folded) and exits nonzero otherwise — CI runs this.

Run:  python examples/replication_demo.py
"""

import multiprocessing as mp
import sys

from repro import (
    BaseUpdateOp,
    DeleteOp,
    InsertOp,
    ReplaceOp,
    ReplicaView,
    ReplicationServer,
    SocketTransport,
    ViewConfig,
    open_view,
)
from repro.workloads.registrar import build_registrar

N_REPLICAS = 2


def op_stream():
    """A deterministic mixed stream: all four op kinds plus a batch."""
    return [
        DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
        InsertOp("course[cno=CS650]/prereq", "course",
                 ("CS500", "Operating Systems")),
        ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                  "course", ("CS700", "Theory")),
        BaseUpdateOp(ops=(("insert", "course", ("CS901", "Seminar", "CS")),)),
        [  # one batched session -> one coalesced event
            InsertOp("course[cno=CS240]/prereq", "course",
                     ("CS902", "Colloquium")),
            DeleteOp("course[cno=CS240]/prereq/course[cno=CS120]"),
        ],
    ]


def replica_main(name, address, attach_barrier, done_queue):
    """Bootstrap over TCP, fold to the writer's final state, report."""
    atg, _db = build_registrar()
    replica = ReplicaView(atg, SocketTransport(*address))
    started = replica.bootstrap()
    replica.start()
    attach_barrier.put((name, started))
    final_generation, writer_digest = done_queue.get()
    try:
        replica.wait_for(final_generation, timeout=30.0)
    except TimeoutError:
        pass  # report whatever state we reached; the parent will flag it
    stats = replica.stats()
    done_queue.put({
        "name": name,
        "started_at": started,
        "generation": stats["generation"],
        "events_folded": stats["events_folded"],
        "lag": replica.lag(),
        "converged": replica.digest() == writer_digest,
    })
    replica.close()


def main():
    ctx = mp.get_context("spawn")
    atg, db = build_registrar()
    service = open_view(atg, db, config=ViewConfig(
        side_effects="propagate", strict=False,
    ))
    service.changefeed().close()  # start retention at generation 0

    with ReplicationServer(service) as server:
        print(f"writer: serving replication on {server.address}")
        ops = op_stream()
        midpoint = len(ops) // 2

        attach_barrier = ctx.Queue()
        queues, procs = [], []

        def spawn(index):
            queue = ctx.Queue()
            proc = ctx.Process(
                target=replica_main,
                args=(f"replica-{index}", server.address,
                      attach_barrier, queue),
            )
            proc.start()
            queues.append(queue)
            procs.append(proc)
            name, started = attach_barrier.get(timeout=30.0)
            print(f"writer: {name} bootstrapped at generation {started}")

        spawn(0)  # replica A sees the whole stream
        for position, op in enumerate(ops):
            if position == midpoint and N_REPLICAS > 1:
                spawn(1)  # replica B bootstraps mid-stream
            service.apply(op)

        final_generation = service.stats()["generation"]
        writer_digest = service.store.digest()
        print(f"writer: head at generation {final_generation}, "
              f"digest {writer_digest[:12]}")
        for queue in queues:
            queue.put((final_generation, writer_digest))

        reports = [queue.get(timeout=60.0) for queue in queues]
        for proc in procs:
            proc.join(timeout=30.0)

    failed = False
    for report in sorted(reports, key=lambda r: r["name"]):
        print(f"{report['name']}: bootstrapped at gen "
              f"{report['started_at']}, now at gen {report['generation']} "
              f"(lag {report['lag']}), {report['events_folded']} event(s) "
              f"folded, converged={report['converged']}")
        if not report["converged"]:
            failed = True
    total_folded = sum(r["events_folded"] for r in reports)
    if failed or total_folded == 0:
        print("replication demo FAILED", file=sys.stderr)
        return 1
    print(f"replication demo OK: {len(reports)} replica(s) byte-identical "
          f"at generation {final_generation}, "
          f"{total_folded} event(s) folded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
