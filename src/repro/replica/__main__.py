"""Inspect a snapshot artifact or serve reads from it on the command line.

Two offline modes::

    # Inspect a snapshot artifact's envelope (no workload needed):
    python -m repro.replica --inspect snapshots/view.json.gz

    # A WAL checkpoint is a snapshot artifact too:
    python -m repro.replica --inspect wal/ckpt-000000000042.gz

    # Serve reads from a local artifact:
    python -m repro.replica --snapshot snapshots/view.json.gz \\
        --workload registrar --query "course[cno=CS650]/prereq/course"

The ``--workload`` flag names the view definition the replica constructs
for itself (view definitions are code, not data); the snapshot's
embedded ATG fingerprint is verified against it at bootstrap.  A live
replica is a library object (``ReplicaView(atg, service)``), and one
that follows a writer from another process bootstraps from its WAL
directory (``ReplicaView.from_wal``).  Exit status: 0 on success, 2 on
usage/environment errors (unreadable artifact — a pickle-era file
included, which is never unpickled — or a fingerprint mismatch).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.replica.view import ReplicaView
from repro.views.snapshot import Snapshot
from repro.workloads import named_workload


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.replica",
        description="Inspect a view snapshot artifact or serve reads from it.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--inspect",
        metavar="PATH",
        help="print a snapshot artifact's envelope metadata and exit",
    )
    mode.add_argument(
        "--snapshot",
        metavar="PATH",
        help="bootstrap a frozen replica from a local artifact",
    )
    parser.add_argument(
        "--workload",
        default="registrar",
        help="view definition to construct locally (registrar | bom | "
        "synthetic[:n_c[:seed]] | chain[:depth])",
    )
    parser.add_argument(
        "--query",
        action="append",
        default=[],
        help="XPath to evaluate on the replica (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        if args.inspect:
            print(Snapshot.load(args.inspect).describe())
            return 0
        atg, _db = named_workload(args.workload)
        snapshot = Snapshot.load(args.snapshot)
        replica = ReplicaView.from_snapshot(atg, snapshot)
        print(snapshot.describe())
        for query in args.query:
            targets = sorted(replica.xpath(query).targets)
            print(f"[gen {replica.generation}] {query} -> {targets}")
        return 0
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
