"""Kill a durable writer with SIGKILL, then recover its log.

The crash-safety loop from ``docs/durability.md``, end to end:

1. a writer subprocess opens the registrar view with a ``wal_dir`` and
   commits an endless op stream, printing its generation after every
   commit (one acknowledgement per line);
2. the parent waits for a batch of acknowledged commits, then delivers
   ``SIGKILL`` — no atexit handler, no ``finally``, no flush runs;
3. a fresh process recovers the directory with nothing but
   ``open_view(..., config=ViewConfig(wal_dir=...))``: newest
   checkpoint + segment replay, torn tail truncated;
4. the parent asserts the recovered generation covers every
   acknowledged commit (a *process* crash loses nothing that reached
   ``write(2)``), that the consistency check passes, and that the
   recovered service keeps committing.

Exits nonzero on any violation — CI runs this.

Run:  python examples/crash_recovery_demo.py
"""

import subprocess
import sys
import tempfile

from repro import InsertOp, ViewConfig, open_view
from repro.workloads.registrar import build_registrar

WRITER = """
import itertools, sys
from repro.ops import DeleteOp, InsertOp
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar

atg, db = build_registrar()
service = open_view(atg, db, config=ViewConfig(
    wal_dir=sys.argv[1], strict=False, side_effects="propagate",
    wal_checkpoint_every=16, wal_segment_bytes=4096,
))
for i in itertools.count():
    cno = ("CS650", "CS320", "CS240")[i % 3]
    service.apply(InsertOp(
        f"//course[cno={cno}]/prereq", "course", ("CS900", "X")))
    service.apply(DeleteOp(f"//course[cno={cno}]/prereq/course[cno=CS900]"))
    print(service.stats()["generation"], flush=True)
"""


def main():
    wal_dir = tempfile.mkdtemp(prefix="repro-wal-demo-")
    writer = subprocess.Popen(
        [sys.executable, "-c", WRITER, wal_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    acked = 0
    for _ in range(25):
        line = writer.stdout.readline()
        if not line:
            sys.stderr.write(writer.stderr.read())
            raise SystemExit("writer died before making progress")
        acked = int(line)
    writer.kill()  # SIGKILL mid-stream
    writer.wait(timeout=30)
    print(f"writer killed after acknowledging generation {acked}")

    atg, db = build_registrar()
    service = open_view(atg, db, config=ViewConfig(
        wal_dir=wal_dir, strict=False, side_effects="propagate",
        wal_checkpoint_every=16, wal_segment_bytes=4096,
    ))
    generation = service.stats()["generation"]
    print(f"recovered generation {generation} from {wal_dir}")
    assert generation >= acked, (
        f"recovery lost acknowledged commits: {generation} < {acked}"
    )
    problems = service.check_consistency()
    assert problems == [], problems

    # The recovered service is a fully functional writer.
    outcome = service.apply(
        InsertOp("//course[cno=CS650]/prereq", "course", ("CS903", "New"))
    )
    assert outcome.accepted
    assert service.check_consistency() == []
    service.close()

    # And recovery is repeatable: a third process sees the new commit.
    atg2, db2 = build_registrar()
    again = open_view(atg2, db2, config=ViewConfig(
        wal_dir=wal_dir, strict=False, side_effects="propagate",
        wal_checkpoint_every=16, wal_segment_bytes=4096,
    ))
    assert again.stats()["generation"] == service.stats()["generation"]
    assert again.store.digest() == service.store.digest()
    wal = again.stats()["wal"]
    print(
        f"log: {wal['records']} record(s), {len(wal['checkpoints'])} "
        f"checkpoint(s), replay floor {wal['floor']}"
    )
    again.close()
    print("crash recovery demo OK")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:  # make CI failures readable
        print(f"FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
