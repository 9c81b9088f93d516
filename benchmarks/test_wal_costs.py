"""Durability costs: fsync-policy commit throughput and recovery time.

Two questions an operator sizes a durable writer with:

- **fsync tax** — what does each acknowledgement-durability policy
  (``always`` / ``batch`` / ``os``, see ``docs/durability.md``) cost
  per commit;
- **recovery budget** — how long does ``open_view(wal_dir=...)`` take
  to recover as the replayed log tail grows (checkpoint cadence is the
  knob that bounds it).

Sizes are laptop-scale, and the assertions are correctness ones:
recovered state equals the writer's under every policy and log length.
The costs themselves are measured by ``benchmarks/e2e``
(``wal.fsyncs_per_op``, ``wal.recover_ms``).
"""

from __future__ import annotations

from repro.ops import DeleteOp, InsertOp
from repro.service import ViewConfig, open_view
from repro.wal import FSYNC_POLICIES
from repro.workloads.registrar import build_registrar

COMMITS = 60


def _config(wal_dir, **overrides):
    return ViewConfig(
        strict=False,
        side_effects="propagate",
        wal_dir=str(wal_dir),
        **overrides,
    )


def _commit_loop(service, commits):
    for i in range(commits):
        cno = ("CS650", "CS320", "CS240")[i % 3]
        service.apply(
            InsertOp(f"//course[cno={cno}]/prereq", "course", ("CS900", "X"))
        )
        service.apply(
            DeleteOp(f"//course[cno={cno}]/prereq/course[cno=CS900]")
        )


def test_fsync_policy_commit_throughput(tmp_path):
    """One timed commit loop per fsync policy, same op stream."""
    for policy in FSYNC_POLICIES:
        wal_dir = tmp_path / policy
        atg, db = build_registrar()
        service = open_view(atg, db, config=_config(wal_dir, wal_fsync=policy))
        _commit_loop(service, COMMITS)
        service.close()
        # Correctness always: the directory recovers to the writer.
        atg2, db2 = build_registrar()
        recovered = open_view(atg2, db2, config=_config(wal_dir))
        assert recovered.store.digest() == service.store.digest()
        assert recovered.check_consistency() == []
        recovered.close()


def test_recovery_time_vs_log_length(tmp_path):
    """Recovery cost as the replayed tail grows past the checkpoint.

    ``wal_checkpoint_every`` is set beyond the stream so the only
    checkpoint is the boot one — every record must be replayed, making
    the timing a direct function of log length.
    """
    for commits in (20, 80):
        wal_dir = tmp_path / f"len{commits}"
        atg, db = build_registrar()
        service = open_view(
            atg, db, config=_config(wal_dir, wal_checkpoint_every=100_000)
        )
        _commit_loop(service, commits)
        service.close()

        atg2, db2 = build_registrar()
        recovered = open_view(
            atg2, db2, config=_config(wal_dir, wal_checkpoint_every=100_000)
        )
        assert recovered.store.digest() == service.store.digest()
        assert recovered.check_consistency() == []
        recovered.close()
