"""Apply JSON-lines update operations to a named workload's view.

The smallest end-to-end exercise of the wire format: each input line is
one serialized operation of the algebra (:mod:`repro.ops`), decoded with
:func:`~repro.ops.op_from_json` and fed through the plan/commit
:class:`~repro.service.ViewService`.

Usage::

    python -m repro.apply --workload registrar ops.jsonl
    python -m repro.apply --workload synthetic:300 --policy propagate - < ops.jsonl
    python -m repro.apply --workload registrar --plan-only ops.jsonl   # dry run
    python -m repro.apply --workload registrar --json ops.jsonl        # JSONL out
    python -m repro.apply --workload registrar --wal wal/ ops.jsonl    # durable
    python -m repro.apply --workload registrar --wal wal/ --recover --stats
    # ^ post-crash: recover the log, verify consistency, print WAL stats
    repro-bench generate --ops 100 | python -m repro.apply --metrics - -
    # ^ generated streams carry a provenance header: the workload is
    #   taken from it, and --metrics emits the Prometheus exposition

Input lines look like::

    {"op": "delete", "path": "course[cno=CS650]/prereq/course[cno=CS320]"}
    {"op": "insert", "path": ".", "element": "course", "sem": ["CS700", "Theory"]}
    {"op": "replace", "path": "//course[cno=CS240]", "element": "course",
     "sem": ["CS241", "Data Structures II"]}
    {"op": "base_update", "ops": [["insert", "course", ["CS800", "Quantum", "CS"]]]}

A malformed line is reported to stderr as ``bad input: line N: ...``;
by default (``--stop-on-error``) processing stops there — the ops
before it *stay applied* and the summary says where the stream stopped
— while ``--keep-going`` skips bad lines and processes the rest.
Either way the exit status is nonzero.

Exit status: 0 on success (rejected updates are *reported*, not fatal),
1 when the final consistency check fails, 2 on malformed input (even
with ``--keep-going``) or an environment error (unknown workload,
unreadable file).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterable, TextIO

from repro.bench.workload_gen import parse_header_line
from repro.errors import OpDecodeError, ReproError
from repro.ops import ops_from_jsonl
from repro.service import ViewConfig, open_view
from repro.workloads import named_workload


def _summary_line(index: int, payload: dict) -> str:
    """One human-readable line per processed operation."""
    dv = payload.get("delta_v") or {}
    dr = payload.get("delta_r") or {}
    status = "ok      " if payload["accepted"] else "REJECTED"
    millis = payload.get("total_time", 0.0) * 1000.0
    line = (
        f"[{index:3d}] {payload['kind']:<11s} {status} "
        f"targets={len(payload['targets'])} "
        f"|dV|={dv.get('insertions', 0) + dv.get('deletions', 0)} "
        f"|dR|={dr.get('insertions', 0) + dr.get('deletions', 0)} "
        f"{millis:8.2f}ms"
    )
    if not payload["accepted"] and payload.get("reason"):
        line += f"  ({payload['reason']})"
    return line


def run(
    lines: Iterable[str],
    workload: str | None = None,
    policy: str = "abort",
    plan_only: bool = False,
    as_json: bool = False,
    stop_on_error: bool = True,
    show_stats: bool = False,
    snapshot_path: str | None = None,
    wal_dir: str | None = None,
    wal_fsync: str = "batch",
    recover_only: bool = False,
    metrics_path: str | None = None,
    out: TextIO | None = None,
) -> int:
    """Drive the service with a JSONL op stream; returns the exit code.

    Malformed lines are reported with their line number; earlier ops
    stay applied either way.  ``stop_on_error`` (default) stops the
    stream at the first bad line, otherwise bad lines are skipped.

    A first line that is a ``repro-bench generate`` provenance header
    is consumed (not treated as an op); with ``workload=None`` the
    header's recorded workload is used, so ``repro-bench generate ... |
    python -m repro.apply -`` targets the dataset the stream was built
    for.  Without a header, ``workload=None`` means ``'registrar'``.

    ``wal_dir`` makes the service durable: commits are logged, and a
    non-empty directory is recovered before the stream is applied (so
    successive invocations with the same ``--wal`` accumulate).
    ``recover_only`` skips the stream entirely — recover, verify,
    report, exit — which is the post-crash health check.

    ``metrics_path`` writes the service's Prometheus exposition
    (:meth:`~repro.service.facade.ViewService.metrics_text`) there
    after the run — ``'-'`` for stdout.
    """
    if out is None:
        out = sys.stdout
    if metrics_path == "-" and out is sys.stdout:
        # Keep stdout a clean exposition (pipeable into
        # scripts/validate_metrics.py); the human report moves aside.
        out = sys.stderr
    header = None
    lines = iter(lines)
    first = next(lines, None)
    if first is not None:
        header = parse_header_line(first)
        if header is None:
            lines = itertools.chain([first], lines)
    if workload is None:
        params = (header or {}).get("params", {})
        workload = params.get("workload", "registrar")
    atg, db = named_workload(workload)
    config = ViewConfig(
        side_effects=policy,
        strict=False,
        wal_dir=wal_dir,
        wal_fsync=wal_fsync,
    )
    service = open_view(atg, db, config=config)
    if wal_dir is not None and not as_json:
        print(
            f"wal: recovered generation {service.stats()['generation']} "
            f"from {wal_dir}",
            file=out,
        )
    if recover_only:
        lines = ()
    if header is not None and not as_json:
        params = header.get("params", {})
        print(
            f"stream: provenance header consumed (workload "
            f"{params.get('workload')!r}, pattern "
            f"{params.get('pattern')!r}, seed {header.get('seed')})",
            file=out,
        )
    accepted = rejected = count = bad_lines = 0
    stopped_at: int | None = None

    def on_error(lineno: int, exc: OpDecodeError) -> bool:
        nonlocal bad_lines, stopped_at
        bad_lines += 1
        print(f"bad input: line {lineno}: {exc}", file=sys.stderr)
        if stop_on_error:
            stopped_at = lineno
            return False
        return True

    for op in ops_from_jsonl(lines, on_error=on_error):
        count += 1
        if plan_only:
            plan = service.plan(op)
            payload = plan.to_dict(include_deltas=as_json)
            if plan.accepted:
                plan.abort()
        else:
            outcome = service.apply(op)
            payload = outcome.to_dict(include_deltas=as_json)
        if payload["accepted"]:
            accepted += 1
        else:
            rejected += 1
        if as_json:
            print(json.dumps(payload, sort_keys=True), file=out)
        else:
            print(_summary_line(count, payload), file=out)
    problems = service.check_consistency()
    if not as_json:
        mode = "planned (dry run)" if plan_only else "applied"
        stats = service.stats()
        trailer = ""
        if stopped_at is not None:
            trailer = f"; stopped at line {stopped_at}"
        elif bad_lines:
            trailer = f"; {bad_lines} malformed line(s) skipped"
        print(
            f"{count} op(s) {mode} against {workload!r}: "
            f"{accepted} accepted, {rejected} rejected; "
            f"view now {stats['nodes']} nodes / {stats['edges']} edges; "
            f"consistency {'OK' if not problems else 'FAILED'}{trailer}",
            file=out,
        )
    if show_stats:
        # Provenance line for benchmark records: which engine ran and
        # how big ``M`` is.
        stats = service.stats()
        print(
            f"index backend: {stats['index_backend']}; "
            f"|M| = {stats['reach_pairs']} reachability pairs",
            file=out,
        )
        # Snapshot-freshness line: the current generation plus how much
        # of the changefeed's bounded replay buffer is occupied tells a
        # replica operator whether changefeed(since=<snapshot gen>)
        # can still attach gaplessly.
        feed = stats["changefeed"]
        print(
            f"generation: {stats['generation']}; changefeed buffer: "
            f"{feed['retained']}/{feed['retention']} event(s) retained "
            f"(replay floor {feed['floor']}, "
            f"{feed['consumers']} consumer(s))",
            file=out,
        )
        # Durable-log line: what a recovery of this directory would see.
        wal = stats["wal"]
        if wal is not None:
            print(
                f"wal: {wal['records']} record(s) across "
                f"{wal['segments']} segment(s) (fsync={wal['fsync']}, "
                f"{wal['rotations']} rotation(s)); "
                f"{len(wal['checkpoints'])} checkpoint(s) at "
                f"{[c['generation'] for c in wal['checkpoints']]}; "
                f"replay floor {wal['floor']}, "
                f"last generation {wal['last_generation']}",
                file=out,
            )
    if snapshot_path is not None:
        snapshot = service.snapshot()
        snapshot.save(snapshot_path)
        print(
            f"snapshot: generation {snapshot.generation}, "
            f"{snapshot.num_nodes} nodes / {snapshot.num_edges} edges "
            f"-> {snapshot_path}",
            file=out,
        )
    if metrics_path is not None:
        exposition = service.metrics_text()
        if metrics_path == "-":
            sys.stdout.write(exposition)
        else:
            with open(metrics_path, "w", encoding="utf-8") as handle:
                handle.write(exposition)
    if problems:
        for problem in problems:
            print(f"consistency: {problem}", file=sys.stderr)
    service.close()  # flush the WAL tail per the fsync policy
    if bad_lines:
        return 2  # malformed input wins, as the docstring promises
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apply",
        description="Apply JSON-lines update ops to a named workload view.",
    )
    parser.add_argument(
        "ops_file",
        nargs="?",
        default=None,
        help="JSONL file of operations, or '-' for stdin (optional "
        "with --recover)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        help="registrar | bom | synthetic[:n_c[:seed]] | chain[:depth] "
        "(default: the input stream's provenance header if present, "
        "else registrar)",
    )
    parser.add_argument(
        "--policy",
        choices=("abort", "propagate"),
        default="abort",
        help="side-effect policy (default: abort)",
    )
    parser.add_argument(
        "--stats",
        dest="show_stats",
        action="store_true",
        help="after the run, print the index backend and |M| "
        "(benchmark provenance)",
    )
    parser.add_argument(
        "--snapshot",
        dest="snapshot_path",
        metavar="PATH",
        default=None,
        help="after the run, save a replication snapshot artifact to "
        "PATH (gzip-compressed; bootstrap a replica from it with "
        "python -m repro.replica)",
    )
    parser.add_argument(
        "--wal",
        dest="wal_dir",
        metavar="DIR",
        default=None,
        help="durable changefeed log directory: commits are logged, "
        "and an existing log is recovered before the stream is applied "
        "(crash-safe; see docs/durability.md)",
    )
    parser.add_argument(
        "--wal-fsync",
        dest="wal_fsync",
        choices=("always", "batch", "os"),
        default="batch",
        help="the log's fsync policy (default: batch)",
    )
    parser.add_argument(
        "--recover",
        dest="recover_only",
        action="store_true",
        help="recover the --wal directory, run the consistency check, "
        "report and exit without applying any ops (post-crash health "
        "check)",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_path",
        metavar="PATH",
        default=None,
        help="after the run, write the service's Prometheus text "
        "exposition to PATH ('-' = stdout; the summary then moves to "
        "stderr so the exposition stays pipeable into "
        "scripts/validate_metrics.py)",
    )
    parser.add_argument(
        "--plan-only",
        action="store_true",
        help="dry run: plan each op, print the preview, abort it",
    )
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit one JSON outcome per line instead of the summary table",
    )
    errors = parser.add_mutually_exclusive_group()
    errors.add_argument(
        "--stop-on-error",
        dest="stop_on_error",
        action="store_true",
        default=True,
        help="stop at the first malformed line (default); earlier ops "
        "stay applied and the failing line number is reported",
    )
    errors.add_argument(
        "--keep-going",
        dest="stop_on_error",
        action="store_false",
        help="skip malformed lines (reported with their line number) "
        "and process the rest; exit status is still nonzero",
    )
    args = parser.parse_args(argv)
    if args.recover_only and args.wal_dir is None:
        parser.error("--recover requires --wal DIR")
    if args.ops_file is None and not args.recover_only:
        parser.error("ops_file is required unless --recover is given")
    kwargs = dict(
        workload=args.workload,
        policy=args.policy,
        plan_only=args.plan_only,
        as_json=args.as_json,
        stop_on_error=args.stop_on_error,
        show_stats=args.show_stats,
        snapshot_path=args.snapshot_path,
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync,
        recover_only=args.recover_only,
        metrics_path=args.metrics_path,
    )
    try:
        if args.ops_file is None or args.recover_only:
            return run((), **kwargs)
        if args.ops_file == "-":
            return run(sys.stdin, **kwargs)
        with open(args.ops_file, "r", encoding="utf-8") as handle:
            return run(handle, **kwargs)
    except (OSError, ReproError) as exc:
        # Decode errors are handled per line inside run(); this covers
        # environment failures (unknown workload, unreadable file).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
